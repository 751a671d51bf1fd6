//! # aviv-ir — front-end substrate for the AVIV code generator
//!
//! Reproduction of the intermediate representation consumed by the AVIV
//! retargetable code generator (Hanono & Devadas, DAC 1998). The paper's
//! front end (SUIF + SPAM) delivers "a number of basic block DAGs connected
//! through control flow information"; this crate provides exactly that:
//!
//! * [`Op`] — the machine-independent operation vocabulary,
//! * [`BlockDag`] — value-numbered basic-block expression DAGs,
//! * [`Function`] / [`BasicBlock`] / [`Terminator`] — the CFG,
//! * [`parse_function`] — a small three-address input language,
//! * [`Interpreter`] — the semantic oracle used for differential testing,
//! * [`dataflow`] — the global dataflow framework (liveness, reaching
//!   definitions, dominators, def-use chains) over the CFG,
//! * [`opt`] — machine-independent optimizations including the loop
//!   unrolling the paper uses to prepare its benchmark blocks,
//! * [`randdag`] — seeded random workloads for scaling experiments.
//!
//! ```
//! use aviv_ir::{parse_function, Interpreter};
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let f = parse_function("func f(a, b) { x = a * b + 1; return x; }")?;
//! let result = Interpreter::new(&f).args(&[6, 7]).run()?;
//! assert_eq!(result.return_value, Some(43));
//! # Ok(())
//! # }
//! ```

#![warn(missing_docs)]

pub mod bitset;
pub mod cfgopt;
pub mod dag;
pub mod dataflow;
pub mod interp;
pub mod op;
pub mod opt;
pub mod parser;
pub mod printer;
pub mod program;
pub mod randdag;
pub mod simplify;
pub mod stablehash;
pub mod symbols;

pub use bitset::{BitMatrix, BitSet};
pub use dag::{BlockDag, Consumers, DagNode, NodeId};
pub use interp::{eval_block_isolated, run_function, InterpError, InterpResult, Interpreter};
pub use op::Op;
pub use parser::{parse_function, ParseError};
pub use printer::to_source;
pub use program::{BasicBlock, BlockId, Function, MemLayout, Terminator};
pub use stablehash::{block_dag_hash, function_block_hashes, StableHasher};
pub use symbols::{Sym, SymbolTable};
