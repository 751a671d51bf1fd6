//! # aviv-vm — assembler and VLIW simulator
//!
//! The downstream half of the paper's framework (Fig. 1): an assembler
//! that turns generated code into binaries whose instruction encoding is
//! derived from the machine description, and an instruction-level
//! simulator that executes them against the machine's real resources.
//! Together with the `aviv-ir` interpreter this closes the differential-
//! testing loop: compiled code must compute exactly what the source
//! program computes.
//!
//! ```
//! use aviv::CodeGenerator;
//! use aviv_ir::parse_function;
//! use aviv_isdl::archs;
//! use aviv_vm::Simulator;
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let f = parse_function("func f(a, b) { x = a * b + 1; return x; }")?;
//! let gen = CodeGenerator::new(archs::example_arch(4));
//! let (program, _) = gen.compile_function(&f)?;
//! let mut sim = Simulator::new(gen.target(), &program);
//! sim.set_var("a", 6).set_var("b", 7);
//! assert_eq!(sim.run()?.return_value, Some(43));
//! # Ok(())
//! # }
//! ```

#![warn(missing_docs)]

pub mod diff;
pub mod packed;
pub mod sim;
pub mod stats;
pub mod trace;

pub use diff::{check_function, DiffError};
pub use packed::{assemble, decode_packed, disassemble, encode_packed, CodecError};
pub use sim::{SimError, SimResult, Simulator};
pub use stats::{program_stats, ProgramStats};
pub use trace::{run_traced, ExecutionTrace, TraceEntry};
