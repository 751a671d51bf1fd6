//! # aviv-isdl — ISDL-style machine descriptions for AVIV
//!
//! The AVIV code generator (Hanono & Devadas, DAC 1998) is retargeted by an
//! ISDL machine description. This crate models the information AVIV
//! extracts from ISDL (paper §II):
//!
//! * [`Machine`] — functional units with per-unit register files, buses,
//!   instruction constraints, and complex instructions;
//! * [`parse_machine`] — a textual description format;
//! * [`rules`] — the one judgment of whether a machine is usable, which
//!   every strict load applies and the lint renders;
//! * [`OpDb`] — the operation→unit correlation database;
//! * [`TransferDb`] — explicit and multi-hop data-transfer paths;
//! * [`archs`] — the paper's Fig. 3 architecture and Table II variant,
//!   plus additional machines used by tests and examples.
//!
//! ```
//! use aviv_isdl::{archs, OpDb};
//! use aviv_ir::Op;
//!
//! let machine = archs::example_arch(4);
//! let db = OpDb::new(&machine);
//! assert_eq!(db.units_for(Op::Mul).len(), 2); // U2 and U3
//! ```

#![warn(missing_docs)]

pub mod archs;
pub mod db;
pub mod model;
pub mod parser;
pub mod printer;
pub mod rules;

pub use db::{Hop, OpDb, Target, TransferDb, TransferPath};
pub use model::{
    BankId, Bus, BusId, ComplexInstr, Constraint, Location, Machine, MachineBuilder, OpCap,
    PatTree, RegBank, SlotPattern, Unit, UnitId,
};
pub use parser::{parse_machine, parse_machine_unchecked, IsdlError};
pub use printer::to_isdl;
pub use rules::{Element, Finding, Rule};
