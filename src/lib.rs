//! # aviv-repro — workspace facade
//!
//! Re-exports the crates of the AVIV reproduction so the examples and
//! cross-crate integration tests have one import surface. See the README
//! for the architecture overview and `DESIGN.md` for the full system
//! inventory.

pub use aviv;
pub use aviv_ir;
pub use aviv_isdl;
pub use aviv_splitdag;
pub use aviv_vm;
