//! # aviv — the AVIV retargetable code generator
//!
//! Reproduction of Hanono & Devadas, *"Instruction Selection, Resource
//! Allocation, and Scheduling in the AVIV Retargetable Code Generator"*
//! (DAC 1998): concurrent instruction selection, resource allocation, and
//! scheduling by covering the Split-Node DAG with a minimal set of legal
//! maximal cliques.

#![warn(missing_docs)]
// The generator's panic-free contract (see `docs/robustness.md`) is
// enforced statically: no bare `unwrap()` in shipped code. Use
// `expect("reason")` for genuinely unreachable states, or return a
// structured `CodegenError`/`Diagnostic`. Test modules are exempt.
#![cfg_attr(not(test), deny(clippy::unwrap_used))]

pub mod assign;
mod baseline;
pub mod bound;
pub mod budget;
pub mod cache;
pub mod cliques;
pub mod codegen;
pub mod cover;
pub mod covergraph;
pub mod emit;
pub mod faults;
pub mod invariants;
pub mod jsonv;
pub mod optimal;
pub mod options;
pub mod peephole;
pub mod persist;
pub mod regalloc;
pub mod report;
mod rowset;
pub mod wire;

pub use assign::{explore, Assignment, ExploreResult, ExploreTrace};
pub use budget::{Budget, CancelToken, Exhaustion};
pub use cache::{CacheKey, CacheStats, PlanCache, DEFAULT_CACHE_CAPACITY};
pub use codegen::{
    register_outer_pool, BlockPlan, BlockReport, BlockResult, CodeGenerator, CodegenError,
    CompileReport, CoverMode, Downgrade, DowngradeReason, StageTimes,
};
pub use cover::{
    cover, cover_budgeted, cover_sequential, cover_sequential_budgeted, cover_with_stats,
    peak_pressure, CoverError, Schedule, SearchStats, SpillRecord,
};
pub use covergraph::{Args, CnId, CnKind, CoverGraph, CoverNode, Operand, Resource};
pub use emit::{
    AsmOperand, ControlOp, SlotOp, SlotOpcode, TransferKind, TransferOp, VliwInstruction,
    VliwProgram,
};
pub use faults::{FaultConfig, FaultKind, INJECTED_PANIC};
pub use invariants::{
    verify_block, verify_program, verify_schedule, verify_stage, Stage, StageState,
};
pub use optimal::{optimal_block, OptimalConfig, OptimalResult};
pub use options::CodegenOptions;
pub use persist::{load_snapshot, save_snapshot, LoadOutcome};
pub use regalloc::{
    allocate, allocate_budgeted, verify_allocation, AllocFailure, Allocation, Reg, RegAllocError,
};
pub use report::{covergraph_to_dot, explain_block, SymbolNames};

// Re-export the shared static-analysis crate (diagnostics framework and
// the ISDL machine lint) so downstream users need only depend on `aviv`.
pub use aviv_verify as verify;
pub use aviv_verify::{lint_machine, Code, Diagnostic, Severity};
