//! # aviv-verify — structured diagnostics and static analysis for AVIV
//!
//! Retargetable code generators live or die by machine-description
//! validation: a malformed target produces silently wrong assembly or a
//! panic deep inside covering. This crate provides the shared
//! [`Diagnostic`] framework used by two static-analysis passes:
//!
//! * [`lint_machine`] — the ISDL target lint behind `avivc lint`,
//!   reporting coded defects (`E001`…, `W001`…) in a machine
//!   description;
//! * [`check_program`] — the source-program checker behind
//!   `avivc check`, reporting dataflow defects (`P001`…) found by the
//!   global analyses in [`aviv_ir::dataflow`];
//! * [`analyze_program`] — the machine×program feasibility analyzer
//!   behind `avivc analyze`, proving every node coverable and every
//!   def→use bank route present (`M001`…) and computing admissible
//!   per-block lower bounds on instruction count and register pressure;
//! * [`tv::validate_asm`] — the translation validator behind
//!   `avivc --validate`, which re-parses emitted assembly and proves
//!   it congruent to the source function block by block (`T001`…);
//! * the pipeline invariant verifier in `aviv::invariants` (the core
//!   crate), which reuses [`Diagnostic`] to report stage-by-stage
//!   violations (`V001`…) during compilation.
//!
//! Every diagnostic carries a stable [`Code`], a [`Severity`], the
//! machine element (or pipeline location) it refers to, and a one-line
//! explanation; reports render as text or JSON (see [`render_report`]).
//! The full registry is documented in `docs/diagnostics.md`.
//!
//! ```
//! use aviv_verify::{lint_machine, Code};
//! let m = aviv_isdl::archs::example_arch(4);
//! assert!(lint_machine(&m).is_empty());
//! ```

#![warn(missing_docs)]

pub mod analyze;
pub mod check;
pub mod diag;
pub mod lint;
pub mod tv;

pub use analyze::{
    analyze_machine, analyze_program, block_bounds, block_bounds_from_matches, render_analysis,
    MachineAnalysis, ProgramAnalysis,
};
pub use check::check_program;
pub use diag::{render_report, Code, Diagnostic, Format, Severity};
pub use lint::lint_machine;
pub use tv::{parse_asm, render_asm, validate_asm, AsmProgram, TvReport};
