//! The top-level code generator: Fig. 5's overall algorithm.
//!
//! ```text
//! Explore possible split-node functional unit assignments
//!   - Estimate cost of assignment
//!   - Select several lowest cost assignments to explore in further detail
//! Foreach selected assignment
//!   - Insert required data transfers
//!   - Generate all maximal groupings of nodes executable in parallel
//!   - Select a minimal-cost set of maximal groupings covering all nodes
//! Final solution is the lowest-cost solution found above
//! ```
//!
//! followed by detailed register allocation (§IV-F), peephole
//! optimization (§IV-G), and conventional lowering of control flow
//! (§III-C).
//!
//! # Robustness
//!
//! The driver is hardened against the search blowing up or a stage
//! misbehaving (see `docs/robustness.md`):
//!
//! - Every block is planned under a cooperative [`Budget`]
//!   ([`CodegenOptions::fuel`] / [`CodegenOptions::deadline_ms`]).
//! - On budget exhaustion or a stage error, the block steps down a
//!   **degradation ladder** ([`CoverMode`]) — full concurrent covering,
//!   then sequential covering, then a minimal spill-everything mode —
//!   recording each step as a [`Downgrade`] in the [`CompileReport`].
//! - Each rung runs under `catch_unwind`, so a panic anywhere in the
//!   per-block pipeline degrades the block (or surfaces as
//!   [`CodegenError::BlockFailed`] on the last rung) instead of
//!   unwinding through — or poisoning — the parallel planner.
//! - A deterministic fault-injection harness ([`crate::faults`])
//!   exercises all of the above from property tests.

use crate::assign::{explore, ExploreResult};
use crate::budget::{self, Budget, Exhaustion};
use crate::cache::{CacheKey, PlanCache};
use crate::cover::{
    cover_sequential_budgeted, cover_with_stats, CoverError, Schedule, SearchStats,
};
use crate::covergraph::{CoverGraph, Operand};
use crate::emit::{
    emit_block, live_out_operands, AsmOperand, ControlOp, VliwInstruction, VliwProgram,
};
use crate::faults::{FaultInjector, FaultKind, INJECTED_PANIC};
use crate::invariants::Stage;
use crate::options::CodegenOptions;
use crate::peephole;
use crate::regalloc::{allocate_budgeted, AllocFailure, Allocation, RegAllocError};
use aviv_ir::{BlockDag, Function, MemLayout, NodeId, Sym, SymbolTable, Terminator};
use aviv_isdl::{Machine, Target};
use aviv_splitdag::{SplitDagError, SplitNodeDag};
use aviv_verify::{Code, Diagnostic};
use std::collections::HashMap;
use std::error::Error;
use std::fmt;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Code-generation failure.
#[derive(Debug, Clone)]
pub enum CodegenError {
    /// The block cannot be implemented on the machine at all.
    Unsupported(SplitDagError),
    /// Covering failed on every explored assignment.
    Cover(CoverError),
    /// Detailed allocation failed (indicates a covering bug; surfaced for
    /// property tests rather than panicking).
    RegAlloc(RegAllocError),
    /// The pipeline invariant verifier ([`crate::invariants`]) found a
    /// violation; only raised when [`CodegenOptions::verify`] is set.
    Invariant(Vec<aviv_verify::Diagnostic>),
    /// An internal defect the generator used to panic on, reported as a
    /// structured diagnostic (C-family codes) instead.
    Internal(Diagnostic),
    /// A panic escaped every rung of the degradation ladder for `block`;
    /// it was caught at the block boundary instead of unwinding out of
    /// [`CodeGenerator::compile_function`].
    BlockFailed {
        /// Index of the failing block.
        block: usize,
        /// The panic message.
        cause: String,
    },
    /// The compile budget ran out and no rung of the degradation ladder
    /// could salvage the block.
    Budget(Exhaustion),
    /// The compile was cancelled cooperatively (diagnostic code `C007`):
    /// the [`crate::CancelToken`] in [`CodegenOptions::cancel`] fired and
    /// the in-flight search aborted at its next budget check. Unlike
    /// [`CodegenError::Budget`], cancellation never walks the degradation
    /// ladder or salvages a partial plan — the caller asked for the work
    /// to stop, not for cheaper code — and nothing is cached or emitted.
    Cancelled,
}

impl fmt::Display for CodegenError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CodegenError::Unsupported(e) => write!(f, "unsupported: {e}"),
            CodegenError::Cover(e) => write!(f, "covering failed: {e}"),
            CodegenError::RegAlloc(e) => write!(f, "register allocation failed: {e}"),
            CodegenError::Invariant(diags) => {
                write!(f, "pipeline invariant violated: {}", diags[0])?;
                if diags.len() > 1 {
                    write!(f, " (+{} more)", diags.len() - 1)?;
                }
                Ok(())
            }
            CodegenError::Internal(d) => write!(f, "internal defect: {d}"),
            CodegenError::BlockFailed { block, cause } => {
                write!(f, "block {block} failed: {cause}")
            }
            CodegenError::Budget(why) => write!(f, "compile budget ran out: {why}"),
            CodegenError::Cancelled => write!(f, "compile cancelled (C007)"),
        }
    }
}

impl Error for CodegenError {}

impl From<SplitDagError> for CodegenError {
    fn from(e: SplitDagError) -> Self {
        CodegenError::Unsupported(e)
    }
}

/// The rung of the degradation ladder a block was compiled on.
///
/// Rung 0 reproduces the paper's algorithm exactly; each step down trades
/// code quality for a stronger termination guarantee. The last rung
/// always terminates on a machine that can execute the block at all.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum CoverMode {
    /// Full branch-and-bound covering over the explored assignments —
    /// the paper's algorithm, with the per-assignment sequential retry.
    Concurrent,
    /// Guaranteed-progress sequential covering over the explored
    /// assignments (one node group per instruction, eager spilling under
    /// pressure).
    Sequential,
    /// Last resort: a single assignment, sequential covering, no
    /// lookahead, no peephole — run *unbudgeted*, because its register
    /// demand is bounded by operation arity and so it terminates.
    SpillAll,
}

impl CoverMode {
    /// The next rung down the ladder, or `None` at the bottom.
    pub fn next(self) -> Option<CoverMode> {
        match self {
            CoverMode::Concurrent => Some(CoverMode::Sequential),
            CoverMode::Sequential => Some(CoverMode::SpillAll),
            CoverMode::SpillAll => None,
        }
    }
}

impl fmt::Display for CoverMode {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CoverMode::Concurrent => write!(f, "concurrent"),
            CoverMode::Sequential => write!(f, "sequential"),
            CoverMode::SpillAll => write!(f, "spill-all"),
        }
    }
}

/// Why a block stepped down the degradation ladder.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum DowngradeReason {
    /// The rung's [`Budget`] ran out.
    Budget(Exhaustion),
    /// The rung failed with a structured error.
    Error(String),
    /// The rung panicked; the panic was caught by the rung boundary.
    Panic(String),
}

impl fmt::Display for DowngradeReason {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DowngradeReason::Budget(why) => write!(f, "budget: {why}"),
            DowngradeReason::Error(e) => write!(f, "error: {e}"),
            DowngradeReason::Panic(p) => write!(f, "panic: {p}"),
        }
    }
}

/// One recorded step down the degradation ladder, kept in the
/// [`BlockReport`] (and aggregated into the [`CompileReport`]) so a
/// degraded compile is always observable.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Downgrade {
    /// Index of the block that degraded.
    pub block: usize,
    /// The rung that failed.
    pub from: CoverMode,
    /// The rung the block fell back to.
    pub to: CoverMode,
    /// Why the rung failed.
    pub reason: DowngradeReason,
}

impl fmt::Display for Downgrade {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "block {}: {} -> {} ({})",
            self.block, self.from, self.to, self.reason
        )
    }
}

/// Wall-clock time spent in each stage of one block's winning rung.
/// Feeds perfbench's per-layer rows and the persisted plan reports.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct StageTimes {
    /// Split-node DAG construction.
    pub sndag: Duration,
    /// Functional-unit assignment exploration.
    pub explore: Duration,
    /// Cover-graph construction + clique covering over all explored
    /// assignments.
    pub cover: Duration,
    /// Detailed register allocation.
    pub alloc: Duration,
    /// Peephole optimization.
    pub peephole: Duration,
    /// Pipeline invariant verification (zero when disabled).
    pub verify: Duration,
}

/// Statistics from compiling one basic block (feeds the paper's tables).
#[derive(Debug, Clone)]
pub struct BlockReport {
    /// Original DAG node count (Table column 2).
    pub orig_nodes: usize,
    /// Split-Node DAG node count (Table column 3).
    pub sndag_nodes: usize,
    /// Size of the full assignment space.
    pub assignment_space: u128,
    /// Assignments that survived enumeration.
    pub assignments_enumerated: usize,
    /// Assignments explored in detail.
    pub assignments_explored: usize,
    /// Whether enumeration was truncated by the safety cap.
    pub truncated: bool,
    /// Spills inserted in the winning solution (Table column 5).
    pub spills: usize,
    /// Final instruction count for the block body (Table column 7).
    pub instructions: usize,
    /// Instructions removed by the peephole pass.
    pub peephole_removed: usize,
    /// Wall-clock compile time (Table column 8).
    pub time: Duration,
    /// Per-stage wall-clock breakdown of the winning rung.
    pub stages: StageTimes,
    /// Node expansions charged to the winning rung's budget (the fuel
    /// unit of [`CodegenOptions::fuel`]).
    pub node_expansions: u64,
    /// The winning rung's lookahead counters, summed over every
    /// assignment it covered: rollouts run, rollout steps charged, memo
    /// hits, and rollouts settled by the incumbent bound.
    pub search: SearchStats,
    /// Peak simultaneous register occupancy of any one bank over the
    /// final schedule (see [`crate::cover::peak_pressure`]).
    pub peak_pressure: usize,
    /// Admissible static lower bound on the block's instruction count,
    /// from [`aviv_verify::analyze::block_bounds`]. The gap to
    /// [`instructions`](BlockReport::instructions) bounds how far the
    /// block is from provably optimal (`avivc --report` prints it).
    pub min_instructions_bound: usize,
    /// Admissible static lower bound on peak single-bank register
    /// pressure, from the same analysis; compare
    /// [`peak_pressure`](BlockReport::peak_pressure).
    pub min_pressure_bound: usize,
    /// `true` when this block's plan was served from the
    /// [`PlanCache`](crate::PlanCache) instead of being computed.
    pub cached: bool,
    /// `true` when the cache entry that served this block was restored
    /// from a persisted snapshot ([`crate::persist`]) rather than computed
    /// in this process — `avivd --validate-on-load` forces translation
    /// validation on such compiles.
    pub restored: bool,
    /// The degradation-ladder rung that produced the block's code.
    pub mode: CoverMode,
    /// Every ladder step the block took, in order.
    pub downgrades: Vec<Downgrade>,
    /// Why the winning rung's budget ran out, when the block was
    /// salvaged from a partially-explored assignment space.
    pub exhausted: Option<Exhaustion>,
    /// `true` when the block compiled on the first rung with nothing
    /// truncated or exhausted — i.e. the output is what an unbudgeted
    /// run would have produced.
    pub complete: bool,
}

/// Everything produced for one basic block.
#[derive(Debug, Clone)]
pub struct BlockResult {
    /// The block body (control flow not included).
    pub instructions: Vec<VliwInstruction>,
    /// The winning cover graph.
    pub graph: CoverGraph,
    /// The winning schedule.
    pub schedule: Schedule,
    /// The register allocation.
    pub alloc: Allocation,
    /// Where live-out values (branch conditions, return values) reside.
    pub live_out: HashMap<NodeId, AsmOperand>,
    /// Statistics.
    pub report: BlockReport,
}

/// The pure result of planning one basic block against an immutable
/// snapshot of the symbol table: everything up to (but not including)
/// emission, with the spill slots the block wants recorded as appended
/// *names* rather than as mutations of shared state.
///
/// Plans for different blocks are independent, so a function's blocks can
/// be planned concurrently ([`CodegenOptions::jobs`]) and then applied in
/// block order by [`CodeGenerator::apply_plan`], which renames each
/// plan-local spill slot to its final function-wide symbol. The merge
/// reproduces exactly the symbol ids and names a sequential run picks, so
/// the emitted program is byte-identical for any worker count.
#[derive(Debug, Clone)]
pub struct BlockPlan {
    graph: CoverGraph,
    schedule: Schedule,
    alloc: Allocation,
    /// Names interned beyond the snapshot during covering, in creation
    /// order; their plan-local ids are `snapshot_len..`.
    appended_syms: Vec<String>,
    snapshot_len: usize,
    /// Partial report; `instructions` and final `time` are filled in by
    /// [`CodeGenerator::apply_plan`].
    report: BlockReport,
}

impl BlockPlan {
    /// Spill-slot names this block wants appended to the symbol table.
    pub fn appended_syms(&self) -> &[String] {
        &self.appended_syms
    }

    /// Decompose into the parts the snapshot codec ([`crate::persist`])
    /// writes to disk.
    #[allow(clippy::type_complexity)]
    pub(crate) fn wire_parts(
        &self,
    ) -> (
        &CoverGraph,
        &Schedule,
        &Allocation,
        &[String],
        usize,
        &BlockReport,
    ) {
        (
            &self.graph,
            &self.schedule,
            &self.alloc,
            &self.appended_syms,
            self.snapshot_len,
            &self.report,
        )
    }

    /// Reassemble from decoded snapshot parts ([`crate::persist`]).
    pub(crate) fn from_wire_parts(
        graph: CoverGraph,
        schedule: Schedule,
        alloc: Allocation,
        appended_syms: Vec<String>,
        snapshot_len: usize,
        report: BlockReport,
    ) -> BlockPlan {
        BlockPlan {
            graph,
            schedule,
            alloc,
            appended_syms,
            snapshot_len,
            report,
        }
    }
}

/// Statistics — and the robustness record — from compiling a whole
/// function: per-block reports plus every degradation-ladder step taken.
#[derive(Debug, Clone)]
pub struct CompileReport {
    /// Per-block reports in block order.
    pub blocks: Vec<BlockReport>,
    /// Total instructions including control flow.
    pub total_instructions: usize,
    /// Every ladder step taken by any block, in block order.
    pub downgrades: Vec<Downgrade>,
    /// `true` when every block compiled complete (see
    /// [`BlockReport::complete`]): no downgrades, no truncation, no
    /// budget exhaustion — the output matches an unbudgeted run.
    pub complete: bool,
    /// Blocks whose plans were served from the attached
    /// [`PlanCache`](crate::PlanCache) (0 when no cache is attached).
    pub cache_hits: usize,
    /// Blocks planned from scratch while a cache was attached (0 when no
    /// cache is attached).
    pub cache_misses: usize,
    /// Cache hits served by entries restored from a persisted snapshot
    /// (a subset of [`cache_hits`](CompileReport::cache_hits)).
    pub restored_hits: usize,
}

impl Default for CompileReport {
    fn default() -> CompileReport {
        CompileReport {
            blocks: Vec::new(),
            total_instructions: 0,
            downgrades: Vec::new(),
            complete: true,
            cache_hits: 0,
            cache_misses: 0,
            restored_hits: 0,
        }
    }
}

/// Former name of [`CompileReport`], kept for source compatibility.
pub type FunctionReport = CompileReport;

/// Why one rung of the degradation ladder failed.
enum RungFailure {
    /// The rung's budget ran out before any solution was found.
    Budget(Exhaustion),
    /// The rung failed with a structured error.
    Error(CodegenError),
}

/// Extract a readable message from a caught panic payload.
fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_string()
    }
}

/// The retargetable code generator: construct once per machine, compile
/// any number of blocks or functions.
///
/// ```
/// use aviv::CodeGenerator;
/// use aviv_ir::parse_function;
/// use aviv_isdl::archs;
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let f = parse_function("func f(a, b) { x = a * b + 1; return x; }")?;
/// let generator = CodeGenerator::new(archs::example_arch(4));
/// let (program, report) = generator.compile_function(&f)?;
/// assert!(report.total_instructions > 0);
/// println!("{}", program.render(generator.target()));
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone)]
pub struct CodeGenerator {
    target: Arc<Target>,
    options: CodegenOptions,
    /// Shared plan cache; `None` (the default) plans every block fresh.
    cache: Option<Arc<PlanCache>>,
    /// [`Target::fingerprint`] of `target`, computed once when the cache
    /// is attached (it is only ever read on cache paths).
    target_fp: u64,
}

impl CodeGenerator {
    /// Create a generator for `machine` with default options.
    pub fn new(machine: Machine) -> Self {
        Self::with_shared_target(Arc::new(Target::new(machine)))
    }

    /// Create a generator from a prebuilt [`Target`].
    pub fn with_target(target: Target) -> Self {
        Self::with_shared_target(Arc::new(target))
    }

    /// Create a generator from a shared [`Target`]: the derived
    /// correlation databases are immutable, so any number of generators
    /// (one per server request, say) can retarget against one `Arc`
    /// without rebuilding them.
    pub fn with_shared_target(target: Arc<Target>) -> Self {
        CodeGenerator {
            target,
            options: CodegenOptions::default(),
            cache: None,
            target_fp: 0,
        }
    }

    /// Set the heuristic options.
    pub fn options(mut self, options: CodegenOptions) -> Self {
        self.options = options;
        self
    }

    /// Attach a shared [`PlanCache`]: [`CodeGenerator::compile_function`]
    /// and [`CodeGenerator::compile_batch`] will serve block plans from
    /// it and insert the complete plans they compute. The cache can be
    /// shared across generators, targets, and threads — keys incorporate
    /// the target and options fingerprints, so mixed use is sound.
    ///
    /// Caching changes wall-clock only, never bytes: a cache hit replays
    /// a plan that is byte-identical to what planning would produce (see
    /// the [`crate::cache`] module docs for the argument).
    pub fn with_cache(mut self, cache: Arc<PlanCache>) -> Self {
        self.target_fp = self.target.fingerprint();
        self.cache = Some(cache);
        self
    }

    /// The attached plan cache, if any.
    pub fn cache_ref(&self) -> Option<&Arc<PlanCache>> {
        self.cache.as_ref()
    }

    /// The target in use.
    pub fn target(&self) -> &Target {
        &self.target
    }

    /// The target in use, as the shareable handle
    /// ([`CodeGenerator::with_shared_target`] of another generator).
    pub fn shared_target(&self) -> Arc<Target> {
        Arc::clone(&self.target)
    }

    /// The options in use.
    pub fn options_ref(&self) -> &CodegenOptions {
        &self.options
    }

    /// Compile one basic block. `syms` and `layout` may gain spill slots.
    ///
    /// Equivalent to [`CodeGenerator::plan_block`] against the current
    /// table followed by [`CodeGenerator::apply_plan`].
    ///
    /// # Errors
    ///
    /// See [`CodegenError`].
    pub fn compile_block(
        &self,
        dag: &BlockDag,
        syms: &mut SymbolTable,
        layout: &mut MemLayout,
    ) -> Result<BlockResult, CodegenError> {
        let plan = self.plan_block(dag, syms)?;
        self.apply_plan(plan, syms, layout)
    }

    /// Plan one basic block against an immutable `snapshot` of the symbol
    /// table: assignment exploration, covering, register allocation, and
    /// peephole — everything except emission. Mutates nothing, so any
    /// number of blocks can be planned concurrently from one snapshot.
    ///
    /// # Errors
    ///
    /// See [`CodegenError`].
    pub fn plan_block(
        &self,
        dag: &BlockDag,
        snapshot: &SymbolTable,
    ) -> Result<BlockPlan, CodegenError> {
        self.plan_block_at(dag, snapshot, 0, budget::deadline(self.options.deadline_ms))
    }

    /// Plan `block` by walking the degradation ladder: try each
    /// [`CoverMode`] rung in order under a fresh fuel allotment (the
    /// wall-clock `deadline` is shared — a block that blew the deadline
    /// falls straight through to the unbudgeted last rung), catching
    /// panics at the rung boundary and recording every step down as a
    /// [`Downgrade`].
    fn plan_block_at(
        &self,
        dag: &BlockDag,
        snapshot: &SymbolTable,
        block: usize,
        deadline: Option<Instant>,
    ) -> Result<BlockPlan, CodegenError> {
        let injector = FaultInjector::new(self.options.faults.as_ref(), block);
        let mut downgrades: Vec<Downgrade> = Vec::new();
        let mut mode = CoverMode::Concurrent;
        loop {
            let rung_budget = if mode == CoverMode::SpillAll {
                // The last rung is unbudgeted but still cancellable: a
                // caller that fired the token wants the work to stop even
                // where fuel and deadlines no longer apply.
                Budget::unlimited().with_cancel(self.options.cancel.clone())
            } else {
                Budget::new(self.options.fuel, deadline).with_cancel(self.options.cancel.clone())
            };
            let attempt = catch_unwind(AssertUnwindSafe(|| {
                self.plan_block_once(dag, snapshot, mode, &rung_budget, &injector)
            }));
            let reason = match attempt {
                Ok(Ok(mut plan)) => {
                    plan.report.mode = mode;
                    plan.report.complete = mode == CoverMode::Concurrent
                        && downgrades.is_empty()
                        && !plan.report.truncated
                        && plan.report.exhausted.is_none();
                    plan.report.downgrades = downgrades;
                    return Ok(plan);
                }
                Ok(Err(RungFailure::Budget(Exhaustion::Cancelled))) => {
                    // Cancellation is not exhaustion: the caller asked for
                    // the work to stop, so no lower rung may run.
                    return Err(CodegenError::Cancelled);
                }
                Ok(Err(RungFailure::Budget(why))) => match mode.next() {
                    Some(_) => DowngradeReason::Budget(why),
                    None => return Err(CodegenError::Budget(why)),
                },
                Ok(Err(RungFailure::Error(e))) => {
                    // A machine that cannot implement the block at all
                    // will not start implementing it on a lower rung.
                    if matches!(e, CodegenError::Unsupported(_)) || mode.next().is_none() {
                        return Err(e);
                    }
                    DowngradeReason::Error(e.to_string())
                }
                Err(payload) => {
                    let cause = panic_message(payload.as_ref());
                    match mode.next() {
                        Some(_) => DowngradeReason::Panic(cause),
                        None => return Err(CodegenError::BlockFailed { block, cause }),
                    }
                }
            };
            // `reason` only exists when there is a next rung.
            let next = mode.next().unwrap_or(CoverMode::SpillAll);
            downgrades.push(Downgrade {
                block,
                from: mode,
                to: next,
                reason,
            });
            mode = next;
        }
    }

    /// The effective options for one ladder rung: the last rung shrinks
    /// exploration to a single assignment and disables lookahead and
    /// peephole so that nothing about it can blow up.
    fn rung_options(&self, mode: CoverMode) -> CodegenOptions {
        match mode {
            CoverMode::Concurrent | CoverMode::Sequential => self.options.clone(),
            CoverMode::SpillAll => CodegenOptions {
                prune_assignments: true,
                prune_slack: 0,
                assignment_beam: 1,
                assignments_to_explore: 1,
                max_assignments: 1,
                lookahead: false,
                peephole: false,
                ..self.options.clone()
            },
        }
    }

    /// One rung of the ladder: explore assignments, cover each under
    /// `budget`, allocate, peephole, verify. Injected faults fire at the
    /// stage boundaries (each at most once per plan, so a later rung
    /// recovers from them).
    fn plan_block_once(
        &self,
        dag: &BlockDag,
        snapshot: &SymbolTable,
        mode: CoverMode,
        rung_budget: &Budget,
        injector: &FaultInjector<'_>,
    ) -> Result<BlockPlan, RungFailure> {
        let start = Instant::now();
        let mut stages = StageTimes::default();
        let sndag = SplitNodeDag::build(dag, &self.target)
            .map_err(|e| RungFailure::Error(CodegenError::Unsupported(e)))?;
        stages.sndag = start.elapsed();

        // Fault points for the two front-end stages. A malform fault
        // corrupts every cover graph built this rung (so it is visible as
        // a structured failure rather than masked by the next
        // assignment's fresh graph).
        let mut corrupt_graph = false;
        for (stage, what) in [
            (Stage::SplitDag, "split-node DAG construction"),
            (Stage::Cliques, "clique formation"),
        ] {
            if let Some(kind) = injector.arm(stage) {
                match kind {
                    FaultKind::Panic => panic!("{INJECTED_PANIC} at {what}"),
                    FaultKind::Exhaust => rung_budget.exhaust(Exhaustion::Injected),
                    FaultKind::Malform => corrupt_graph = true,
                }
            }
        }

        let stats = sndag.stats(dag);
        let options = self.rung_options(mode);
        let explore_start = Instant::now();
        let ExploreResult {
            assignments,
            enumerated,
            truncated,
        } = explore(dag, &sndag, &self.target, &options);
        stages.explore = explore_start.elapsed();

        // Explore each selected assignment in depth; keep the cheapest.
        let cover_start = Instant::now();
        let mut best: Option<(CoverGraph, Schedule, SymbolTable)> = None;
        let mut last_err: Option<CoverError> = None;
        let mut exhausted: Option<Exhaustion> = None;
        let mut search = SearchStats::default();
        for assignment in &assignments {
            if let (Err(why), Some(_)) = (rung_budget.check(), &best) {
                if why == Exhaustion::Cancelled {
                    return Err(RungFailure::Budget(why));
                }
                // The budget ran out between assignments but an earlier
                // one already produced code: salvage it.
                exhausted = Some(why);
                break;
            }
            let mut scratch_syms = snapshot.clone();
            let mut graph = CoverGraph::try_build(dag, &sndag, &self.target, assignment)
                .map_err(|d| RungFailure::Error(CodegenError::Internal(d)))?;
            debug_assert!(graph.verify(&self.target).is_ok());
            if corrupt_graph {
                corrupt_cover_graph(&mut graph);
            }
            let result = match mode {
                CoverMode::Concurrent => cover_with_stats(
                    &mut graph,
                    &self.target,
                    &mut scratch_syms,
                    &options,
                    rung_budget,
                    &mut search,
                )
                .map(|s| (graph, s))
                .or_else(|e| {
                    if matches!(e, CoverError::Budget(_) | CoverError::Internal(_)) {
                        // Budget exhaustion and engine defects are the
                        // ladder's job, not the inline retry's.
                        return Err(e);
                    }
                    // Extreme register pressure can wedge the concurrent
                    // engine; retry with the guaranteed-progress
                    // sequential fallback on a fresh graph.
                    let mut scratch = snapshot.clone();
                    let mut g = CoverGraph::try_build(dag, &sndag, &self.target, assignment)
                        .map_err(CoverError::Internal)?;
                    if corrupt_graph {
                        corrupt_cover_graph(&mut g);
                    }
                    let s =
                        cover_sequential_budgeted(&mut g, &self.target, &mut scratch, rung_budget)?;
                    scratch_syms = scratch;
                    Ok::<_, CoverError>((g, s))
                }),
                CoverMode::Sequential | CoverMode::SpillAll => cover_sequential_budgeted(
                    &mut graph,
                    &self.target,
                    &mut scratch_syms,
                    rung_budget,
                )
                .map(|s| (graph, s)),
            };
            match result {
                Ok((graph, schedule)) => {
                    let better = match &best {
                        None => true,
                        Some((_, s, _)) => schedule.len() < s.len(),
                    };
                    if better {
                        best = Some((graph, schedule, scratch_syms));
                    }
                }
                Err(CoverError::Budget(why)) => match &best {
                    Some(_) if why != Exhaustion::Cancelled => {
                        exhausted = Some(why);
                        break;
                    }
                    _ => return Err(RungFailure::Budget(why)),
                },
                Err(e) => last_err = Some(e),
            }
        }
        stages.cover = cover_start.elapsed();
        let (mut graph, mut schedule, winner_syms) = best.ok_or_else(|| {
            RungFailure::Error(CodegenError::Cover(
                last_err.unwrap_or(CoverError::SpillLimit),
            ))
        })?;

        // A salvaged block finishes its tail stages unbudgeted — but still
        // cancellable: the schedule exists, and allocation for it is cheap
        // and bounded.
        let tail;
        let tail_budget: &Budget = if exhausted.is_some() {
            tail = Budget::unlimited().with_cancel(self.options.cancel.clone());
            &tail
        } else {
            rung_budget
        };

        if let Some(kind) = injector.arm(Stage::Cover) {
            match kind {
                FaultKind::Panic => panic!("{INJECTED_PANIC} at covering"),
                FaultKind::Exhaust => tail_budget.exhaust(Exhaustion::Injected),
                FaultKind::Malform => {
                    schedule.steps.pop();
                }
            }
        }

        // Every live-out value (branch condition, return value) must have
        // been scheduled; a miss here means the schedule lost a value the
        // terminator needs (C002) — catch it structurally instead of
        // panicking at emission.
        let step_of = schedule.step_of(graph.len());
        for &(orig, op) in graph.live_out() {
            if let Operand::Cn(c) = op {
                if step_of.get(c.index()).copied().flatten().is_none() {
                    return Err(RungFailure::Error(CodegenError::Internal(Diagnostic::new(
                        Code::C002,
                        orig.to_string(),
                        "live-out value was never scheduled",
                    ))));
                }
            }
        }

        let alloc_start = Instant::now();
        let mut alloc = allocate_budgeted(&graph, &self.target, &schedule, tail_budget).map_err(
            |e| match e {
                AllocFailure::Uncolorable(e) => RungFailure::Error(CodegenError::RegAlloc(e)),
                AllocFailure::Budget(why) => RungFailure::Budget(why),
            },
        )?;
        stages.alloc = alloc_start.elapsed();

        if let Some(kind) = injector.arm(Stage::RegAlloc) {
            match kind {
                FaultKind::Panic => panic!("{INJECTED_PANIC} at register allocation"),
                FaultKind::Exhaust => tail_budget.exhaust(Exhaustion::Injected),
                FaultKind::Malform => {
                    alloc.corrupt_one();
                }
            }
        }
        tail_budget.check().map_err(RungFailure::Budget)?;

        // Peephole: try to undo pessimistic spills and recompact.
        let before_peephole = schedule.len();
        let peephole_start = Instant::now();
        if options.peephole {
            peephole::optimize(&mut graph, &self.target, &mut schedule, &mut alloc);
        }
        stages.peephole = peephole_start.elapsed();
        let peephole_removed = before_peephole - schedule.len();

        if self.options.verify {
            let verify_start = Instant::now();
            let diags = crate::invariants::verify_block(
                &self.target,
                dag,
                &sndag,
                &graph,
                &schedule,
                &alloc,
            );
            stages.verify = verify_start.elapsed();
            if !diags.is_empty() {
                return Err(RungFailure::Error(CodegenError::Invariant(diags)));
            }
        }

        // Static lower bounds for the optimality-gap columns — a pure
        // function of (dag, target), so cached-plan replays agree.
        let bounds = aviv_verify::analyze::block_bounds(dag, &self.target);

        // The only table mutation covering performs is appending fresh
        // spill slots; record the names so the merge can replay them.
        let appended_syms = winner_syms
            .iter()
            .skip(snapshot.len())
            .map(|(_, name)| name.to_string())
            .collect();

        let report = BlockReport {
            orig_nodes: stats.orig_nodes,
            sndag_nodes: stats.sn_nodes,
            assignment_space: stats.assignment_space,
            assignments_enumerated: enumerated,
            assignments_explored: assignments.len(),
            truncated,
            spills: schedule.spills.len(),
            instructions: 0, // filled in by apply_plan
            peephole_removed,
            time: start.elapsed(),
            stages,
            node_expansions: rung_budget.spent(),
            search,
            peak_pressure: crate::cover::peak_pressure(&graph, &self.target, &schedule),
            min_instructions_bound: bounds.0,
            min_pressure_bound: bounds.1,
            cached: false,
            restored: false,
            mode,
            downgrades: Vec::new(), // filled in by plan_block_at
            exhausted,
            complete: true, // recomputed by plan_block_at
        };
        Ok(BlockPlan {
            graph,
            schedule,
            alloc,
            appended_syms,
            snapshot_len: snapshot.len(),
            report,
        })
    }

    /// Apply a [`BlockPlan`] to the function-wide symbol table and memory
    /// layout, then emit the block. Plan-local spill symbols are renamed
    /// into `syms` in creation order — reproducing exactly the names and
    /// ids a sequential run picks — and their slots reserved in `layout`.
    ///
    /// Plans must be applied in block order, against the same table their
    /// snapshots were taken from (plus earlier blocks' applications).
    ///
    /// # Errors
    ///
    /// Returns [`CodegenError::Internal`] wrapping a `C006` diagnostic if
    /// the plan's schedule or allocation is malformed (emission refuses
    /// to lower it — see `docs/diagnostics.md`).
    pub fn apply_plan(
        &self,
        mut plan: BlockPlan,
        syms: &mut SymbolTable,
        layout: &mut MemLayout,
    ) -> Result<BlockResult, CodegenError> {
        let start = Instant::now();
        if !plan.appended_syms.is_empty() {
            let mut remap: HashMap<Sym, Sym> = HashMap::new();
            for (i, name) in plan.appended_syms.iter().enumerate() {
                let local = Sym((plan.snapshot_len + i) as u32);
                let merged = syms.fresh_like(name);
                if merged != local {
                    remap.insert(local, merged);
                }
            }
            if !remap.is_empty() {
                plan.graph.remap_syms(&remap);
                for r in &mut plan.schedule.spills {
                    if let Some(&m) = remap.get(&r.slot) {
                        r.slot = m;
                    }
                }
            }
        }

        // Register any new spill slots with the layout.
        for (sym, _) in syms.iter() {
            if sym.index() >= layout.known_symbols() {
                layout.reserve_slot(sym);
            }
        }

        let instructions = emit_block(
            &plan.graph,
            &self.target,
            &plan.schedule,
            &plan.alloc,
            syms,
            layout,
        )
        .map_err(CodegenError::Internal)?;
        let live_out =
            live_out_operands(&plan.graph, &plan.alloc).map_err(CodegenError::Internal)?;
        let mut report = plan.report;
        report.instructions = instructions.len();
        report.time += start.elapsed();
        Ok(BlockResult {
            instructions,
            graph: plan.graph,
            schedule: plan.schedule,
            alloc: plan.alloc,
            live_out,
            report,
        })
    }

    /// Compile a whole function, lowering control flow conventionally
    /// (§III-C) and resolving branch targets.
    ///
    /// Blocks are planned independently against a snapshot of the symbol
    /// table — concurrently when [`CodegenOptions::jobs`] is not 1 — and
    /// merged in block order, so the output is byte-identical for every
    /// worker count.
    ///
    /// No panic escapes this function for any input: per-block planning
    /// and emission run under `catch_unwind`, and an escaping panic is
    /// reported as [`CodegenError::BlockFailed`] after the degradation
    /// ladder ([`CoverMode`]) has been exhausted.
    ///
    /// # Errors
    ///
    /// See [`CodegenError`]. With several failing blocks, the error
    /// reported is the first in block order regardless of worker count.
    pub fn compile_function(
        &self,
        f: &Function,
    ) -> Result<(VliwProgram, CompileReport), CodegenError> {
        // A pre-cancelled compile does no work at all — not even the
        // liveness pass or a cache probe.
        if self
            .options
            .cancel
            .as_ref()
            .is_some_and(crate::CancelToken::is_cancelled)
        {
            return Err(CodegenError::Cancelled);
        }
        // Exact global liveness: drop stores shadowed on every path (and
        // the nodes only they kept alive) before covering, so dead
        // values never occupy registers. Every named variable is treated
        // as observable at exit, which keeps the memory image — and
        // therefore the differential oracle — bit-identical.
        let pruned;
        let f = if self.options.exact_liveness {
            let mut g = f.clone();
            let observable: Vec<Sym> = f.syms.iter().map(|(s, _)| s).collect();
            if aviv_ir::opt::eliminate_dead_code(&mut g, &observable) > 0 {
                pruned = g;
                &pruned
            } else {
                f
            }
        } else {
            f
        };
        let snapshot = f.syms.clone();
        let deadline = budget::deadline(self.options.deadline_ms);
        let dags: Vec<&BlockDag> = f.iter().map(|(_, b)| &b.dag).collect();
        // Cache keys are computed on the post-DCE dags (what is actually
        // planned), so toggling `exact_liveness` cannot alias entries.
        let keys = self.plan_cache_keys(f);
        let jobs = effective_jobs(self.options.jobs, dags.len());
        let plans: Vec<Result<BlockPlan, CodegenError>> = if jobs <= 1 {
            dags.iter()
                .enumerate()
                .map(|(i, d)| {
                    self.plan_block_keyed(d, &snapshot, i, deadline, keys.as_ref().map(|k| k[i]))
                })
                .collect()
        } else {
            self.plan_blocks_parallel(&dags, &snapshot, jobs, deadline, keys.as_deref())
        };

        let mut syms = snapshot;
        let mut layout = MemLayout::for_function(f);
        let n_units = self.target.machine.units().len();

        let mut instructions: Vec<VliwInstruction> = Vec::new();
        let mut block_starts: Vec<usize> = Vec::new();
        // Control targets encoded as block ids; fixed up afterwards.
        let mut pending_targets: Vec<(usize, usize)> = Vec::new(); // (instr, block)
        let mut report = CompileReport::default();

        for ((bid, block), plan) in f.iter().zip(plans) {
            let plan = plan?;
            block_starts.push(instructions.len());

            // Emission-side fault point (plan-side injectors never arm
            // `Stage::Emit`, so the two cannot double-fire).
            let injector = FaultInjector::new(self.options.faults.as_ref(), bid.index());
            let emit_fault = injector.arm(Stage::Emit);
            if emit_fault == Some(FaultKind::Exhaust) {
                return Err(CodegenError::Budget(Exhaustion::Injected));
            }

            // Emission and terminator lowering run under `catch_unwind`
            // so a defect here (or an injected fault) fails the compile
            // with a structured error instead of unwinding out.
            let lowered = catch_unwind(AssertUnwindSafe(|| -> Result<(), CodegenError> {
                if emit_fault == Some(FaultKind::Panic) {
                    panic!("{INJECTED_PANIC} at emission");
                }
                let mut plan = plan;
                if emit_fault == Some(FaultKind::Malform) {
                    plan.alloc.corrupt_one();
                }
                let result = self.apply_plan(plan, &mut syms, &mut layout)?;
                report.blocks.push(result.report.clone());
                instructions.extend(result.instructions.iter().cloned());

                let next = bid.index() + 1;
                match &block.term {
                    Terminator::Jump(t) => {
                        if t.index() != next {
                            let mut inst = VliwInstruction::nop(n_units);
                            inst.control = Some(ControlOp::Jump(t.index()));
                            pending_targets.push((instructions.len(), t.index()));
                            instructions.push(inst);
                        }
                    }
                    Terminator::Branch {
                        cond,
                        if_true,
                        if_false,
                    } => {
                        let cond_op = *result
                            .live_out
                            .get(cond)
                            .ok_or_else(|| missing_live_out(bid.index(), "branch condition"))?;
                        let mut inst = VliwInstruction::nop(n_units);
                        inst.control = Some(ControlOp::BranchNz {
                            cond: cond_op,
                            target: if_true.index(),
                        });
                        pending_targets.push((instructions.len(), if_true.index()));
                        instructions.push(inst);
                        if if_false.index() != next {
                            let mut j = VliwInstruction::nop(n_units);
                            j.control = Some(ControlOp::Jump(if_false.index()));
                            pending_targets.push((instructions.len(), if_false.index()));
                            instructions.push(j);
                        }
                    }
                    Terminator::Return(v) => {
                        let val =
                            match v {
                                Some(n) => Some(*result.live_out.get(n).ok_or_else(|| {
                                    missing_live_out(bid.index(), "return value")
                                })?),
                                None => None,
                            };
                        let mut inst = VliwInstruction::nop(n_units);
                        inst.control = Some(ControlOp::Return(val));
                        instructions.push(inst);
                    }
                }
                Ok(())
            }));
            match lowered {
                Ok(Ok(())) => {}
                Ok(Err(e)) => return Err(e),
                Err(payload) => {
                    return Err(CodegenError::BlockFailed {
                        block: bid.index(),
                        cause: panic_message(payload.as_ref()),
                    })
                }
            }
        }

        // Resolve block-id targets to instruction indices.
        for (ii, bid) in pending_targets {
            let Some(&target) = block_starts.get(bid) else {
                return Err(CodegenError::Internal(Diagnostic::new(
                    Code::C001,
                    format!("block{bid}"),
                    "branch target refers to a block that was never emitted",
                )));
            };
            match &mut instructions[ii].control {
                Some(ControlOp::Jump(t)) => *t = target,
                Some(ControlOp::BranchNz { target: t, .. }) => *t = target,
                other => {
                    return Err(CodegenError::Internal(Diagnostic::new(
                        Code::C001,
                        format!("instr{ii}"),
                        format!("pending branch target attached to a non-control op ({other:?})"),
                    )))
                }
            }
        }

        report.total_instructions = instructions.len();
        for b in &report.blocks {
            report.downgrades.extend(b.downgrades.iter().cloned());
        }
        report.complete = report.blocks.iter().all(|b| b.complete);
        if keys.is_some() {
            report.cache_hits = report.blocks.iter().filter(|b| b.cached).count();
            report.cache_misses = report.blocks.len() - report.cache_hits;
            report.restored_hits = report.blocks.iter().filter(|b| b.restored).count();
        }
        let var_addrs = syms
            .iter()
            .map(|(s, name)| (name.to_string(), layout.addr(s)))
            .collect();
        let program = VliwProgram {
            machine_name: self.target.machine.name.clone(),
            instructions,
            block_starts,
            var_addrs,
        };
        if self.options.verify {
            let diags = crate::invariants::verify_program(&self.target, &program);
            if !diags.is_empty() {
                return Err(CodegenError::Invariant(diags));
            }
        }
        Ok((program, report))
    }

    /// Compile a batch of functions — a whole program or several — across
    /// a worker pool, sharing this generator's read-only [`Target`]
    /// tables. Results are returned in input order.
    ///
    /// The pool width comes from [`CodegenOptions::jobs`] exactly like
    /// the per-block pool (`1` = compile in the calling thread, `0` = one
    /// worker per core, otherwise a cap), and workers steal function
    /// indices from a shared counter. Each function's compilation is
    /// independent and deterministic, so the batch output is
    /// byte-identical at any worker count. Workers register their pool
    /// width in a thread-local, which `jobs = 0` block planning inside
    /// them divides by — nesting the two pools never oversubscribes the
    /// machine.
    pub fn compile_batch(
        &self,
        functions: &[Function],
    ) -> Vec<Result<(VliwProgram, CompileReport), CodegenError>> {
        let jobs = effective_jobs(self.options.jobs, functions.len());
        if jobs <= 1 {
            return functions.iter().map(|f| self.compile_function(f)).collect();
        }
        // Nested-pool accounting: this batch may itself run inside an
        // enclosing pool (a server worker that called
        // `register_outer_pool`, or an outer batch). Workers are fresh
        // threads whose thread-local resets to 1, so the enclosing width
        // must be captured here, on the calling thread, and multiplied
        // in — otherwise `jobs = 0` block planning inside a worker would
        // divide by this batch's width alone and oversubscribe.
        let outer = OUTER_POOL_WIDTH.with(std::cell::Cell::get).max(1);
        let nested = outer.saturating_mul(jobs);
        let next = AtomicUsize::new(0);
        let mut slots: Vec<Option<Result<(VliwProgram, CompileReport), CodegenError>>> = Vec::new();
        slots.resize_with(functions.len(), || None);
        std::thread::scope(|s| {
            let next = &next;
            let handles: Vec<_> = (0..jobs)
                .map(|_| {
                    s.spawn(move || {
                        OUTER_POOL_WIDTH.with(|w| w.set(nested));
                        let mut done = Vec::new();
                        loop {
                            let i = next.fetch_add(1, Ordering::Relaxed);
                            if i >= functions.len() {
                                break;
                            }
                            done.push((i, self.compile_function(&functions[i])));
                        }
                        done
                    })
                })
                .collect();
            for h in handles {
                for (i, result) in h
                    .join()
                    .expect("batch workers never panic: compile_function catches everything")
                {
                    slots[i] = Some(result);
                }
            }
        });
        slots
            .into_iter()
            .map(|r| r.expect("every function compiled exactly once"))
            .collect()
    }

    /// Cache keys for every block of `f` (post-DCE), or `None` when
    /// caching is off: no cache attached, or fault injection configured —
    /// the injector fires by block *position*, which a content-addressed
    /// cache would short-circuit nondeterministically.
    fn plan_cache_keys(&self, f: &Function) -> Option<Vec<CacheKey>> {
        if self.cache.is_none() || self.options.faults.is_some() {
            return None;
        }
        let options_fp = self.options.planning_fingerprint();
        Some(
            f.iter()
                .map(|(_, b)| CacheKey {
                    block: aviv_ir::block_dag_hash(&b.dag, &f.syms),
                    target: self.target_fp,
                    options: options_fp,
                })
                .collect(),
        )
    }

    /// [`CodeGenerator::plan_block_guarded`] behind the plan cache: serve
    /// a hit as a clone of the resident plan (marking the report
    /// `cached`), or plan from scratch and — if the result is *complete*,
    /// i.e. byte-identical to an unbudgeted run — insert it. Incomplete
    /// (degraded/truncated) plans depend on budgets and wall-clock, so
    /// they are recomputed every time.
    fn plan_block_keyed(
        &self,
        dag: &BlockDag,
        snapshot: &SymbolTable,
        block: usize,
        deadline: Option<Instant>,
        key: Option<CacheKey>,
    ) -> Result<BlockPlan, CodegenError> {
        let (Some(key), Some(cache)) = (key, self.cache.as_deref()) else {
            return self.plan_block_guarded(dag, snapshot, block, deadline);
        };
        if let Some((mut plan, restored)) = cache.lookup_flagged(&key) {
            plan.report.cached = true;
            plan.report.restored = restored;
            return Ok(plan);
        }
        let plan = self.plan_block_guarded(dag, snapshot, block, deadline)?;
        if plan.report.complete {
            cache.insert(key, plan.clone());
        }
        Ok(plan)
    }

    /// [`CodeGenerator::plan_block_at`] with a last-resort panic guard:
    /// the ladder already catches panics per rung, but anything that
    /// slips between rungs (or inside the ladder bookkeeping itself) is
    /// converted here rather than unwinding into the caller or across a
    /// worker thread boundary.
    fn plan_block_guarded(
        &self,
        dag: &BlockDag,
        snapshot: &SymbolTable,
        block: usize,
        deadline: Option<Instant>,
    ) -> Result<BlockPlan, CodegenError> {
        catch_unwind(AssertUnwindSafe(|| {
            self.plan_block_at(dag, snapshot, block, deadline)
        }))
        .unwrap_or_else(|payload| {
            Err(CodegenError::BlockFailed {
                block,
                cause: panic_message(payload.as_ref()),
            })
        })
    }

    /// Plan all blocks on a scoped worker pool. Workers steal block
    /// indices from a shared counter (blocks vary wildly in cost, so a
    /// static partition would idle half the pool); results land in their
    /// block's slot, keeping the outcome independent of worker timing.
    fn plan_blocks_parallel(
        &self,
        dags: &[&BlockDag],
        snapshot: &SymbolTable,
        jobs: usize,
        deadline: Option<Instant>,
        keys: Option<&[CacheKey]>,
    ) -> Vec<Result<BlockPlan, CodegenError>> {
        let next = AtomicUsize::new(0);
        let mut slots: Vec<Option<Result<BlockPlan, CodegenError>>> = Vec::new();
        slots.resize_with(dags.len(), || None);
        std::thread::scope(|s| {
            let next = &next;
            let handles: Vec<_> = (0..jobs)
                .map(|_| {
                    s.spawn(move || {
                        let mut done = Vec::new();
                        loop {
                            let i = next.fetch_add(1, Ordering::Relaxed);
                            if i >= dags.len() {
                                break;
                            }
                            let key = keys.map(|k| k[i]);
                            done.push((
                                i,
                                self.plan_block_keyed(dags[i], snapshot, i, deadline, key),
                            ));
                        }
                        done
                    })
                })
                .collect();
            for h in handles {
                for (i, plan) in h
                    .join()
                    .expect("planner workers never panic: plan_block_guarded catches everything")
                {
                    slots[i] = Some(plan);
                }
            }
        });
        slots
            .into_iter()
            .map(|p| p.expect("every block planned exactly once"))
            .collect()
    }
}

/// Fault-harness corruption of a cover graph: kill the highest-numbered
/// alive node without rewiring its consumers — exactly the kind of
/// malformed intermediate state a buggy stage would hand downstream. The
/// covering engine reports it as a C004 wedge, or the invariant verifier
/// flags the uncovered operation.
fn corrupt_cover_graph(graph: &mut CoverGraph) {
    if let Some(victim) = graph.alive().last() {
        graph.kill(victim);
        graph.rebuild_indexes();
    }
}

/// A terminator needed a value the block did not expose (C002).
fn missing_live_out(block: usize, what: &str) -> CodegenError {
    CodegenError::Internal(Diagnostic::new(
        Code::C002,
        format!("block{block}"),
        format!("{what} was never materialized as a live-out value"),
    ))
}

std::thread_local! {
    /// Total multiplicity of the enclosing pools — set by
    /// [`CodeGenerator::compile_batch`] workers (enclosing width × batch
    /// width) and by [`register_outer_pool`], 1 everywhere else. When
    /// `jobs = 0` resolves against the core count, it divides by this so
    /// that nested pools — server workers running batches running
    /// per-core block planning — share the machine instead of
    /// oversubscribing it multiplicatively.
    static OUTER_POOL_WIDTH: std::cell::Cell<usize> = const { std::cell::Cell::new(1) };
}

/// Declare that the current thread is one worker of a pool of `width`
/// (clamped to ≥ 1), so that `jobs = 0` compiles on this thread claim
/// `cores / width` workers instead of the whole machine.
///
/// Call this once from each worker thread of a request-serving pool
/// (`avivd` does). The registration is thread-local and compounds
/// correctly with [`CodeGenerator::compile_batch`], whose workers
/// multiply their own width on top; it is *not* inherited by unrelated
/// threads the caller spawns itself.
pub fn register_outer_pool(width: usize) {
    OUTER_POOL_WIDTH.with(|w| w.set(width.max(1)));
}

/// Resolve the `jobs` option against the machine and the work: `0` means
/// one worker per available core, and the pool never exceeds the work
/// item count.
///
/// Never panics: a failing [`std::thread::available_parallelism`] (some
/// platforms, restricted containers) falls back to one core, cgroup-style
/// quotas are whatever the standard library reports, and the result is
/// always clamped to at least 1.
fn effective_jobs(requested: usize, items: usize) -> usize {
    let j = if requested == 0 {
        let cores = std::thread::available_parallelism().map_or(1, std::num::NonZero::get);
        let outer = OUTER_POOL_WIDTH.with(std::cell::Cell::get).max(1);
        cores.div_ceil(outer)
    } else {
        requested
    };
    j.min(items).max(1)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn effective_jobs_never_zero_and_caps_at_items() {
        assert_eq!(effective_jobs(1, 10), 1);
        assert_eq!(effective_jobs(8, 3), 3);
        assert_eq!(effective_jobs(8, 0), 1);
        assert_eq!(effective_jobs(0, 0), 1);
        assert!(effective_jobs(0, 1000) >= 1);
    }

    /// Regression test for nested-pool oversubscription: `compile_batch`
    /// workers used to install the batch width alone, discarding any
    /// enclosing pool's width — so a server worker pool of N running
    /// batches of width J would let inner `jobs = 0` planning resolve to
    /// `cores / J` instead of `cores / (N * J)`, oversubscribing the
    /// machine N-fold. The fix captures the caller's width before
    /// spawning and installs the product in each worker; this pins both
    /// the capture and the multiplication.
    #[test]
    fn batch_workers_compose_with_registered_server_pool() {
        std::thread::scope(|s| {
            s.spawn(|| {
                // Simulate an avivd worker: one of 3 server threads.
                register_outer_pool(3);
                // What compile_batch does before spawning its workers...
                let outer = OUTER_POOL_WIDTH.with(std::cell::Cell::get).max(1);
                assert_eq!(outer, 3, "caller width must be captured, not reset");
                let jobs = 2;
                let nested = outer.saturating_mul(jobs);
                // ...and what each worker thread must observe.
                s.spawn(move || {
                    OUTER_POOL_WIDTH.with(|w| w.set(nested));
                    assert_eq!(OUTER_POOL_WIDTH.with(std::cell::Cell::get), 6);
                    // Inner per-block pools divide the cores by the full
                    // nested width, so server × batch × blocks can never
                    // exceed the machine.
                    let cores =
                        std::thread::available_parallelism().map_or(1, std::num::NonZero::get);
                    assert_eq!(effective_jobs(0, 1000), cores.div_ceil(6).max(1));
                });
            });
        });
    }

    /// A fresh thread never inherits a pool registration — which is why
    /// `compile_batch` must propagate it explicitly (the bug above).
    #[test]
    fn pool_registration_is_thread_local() {
        register_outer_pool(5);
        let seen = std::thread::spawn(|| OUTER_POOL_WIDTH.with(std::cell::Cell::get))
            .join()
            .expect("probe thread");
        assert_eq!(seen, 1);
        register_outer_pool(1);
    }

    #[test]
    fn effective_jobs_divides_by_outer_pool_width() {
        let cores = std::thread::available_parallelism().map_or(1, std::num::NonZero::get);
        OUTER_POOL_WIDTH.with(|w| w.set(cores));
        let inner = effective_jobs(0, 1000);
        OUTER_POOL_WIDTH.with(|w| w.set(1));
        // With the whole machine claimed by the outer pool, each worker
        // gets a single-threaded inner pool.
        assert_eq!(inner, 1);
        assert_eq!(effective_jobs(0, 1000), cores.min(1000));
    }
}
