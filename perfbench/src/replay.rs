//! The traced replay: one compile re-run through the program's public
//! stage functions, in the order `CodeGenerator::plan_block_once` calls
//! them, with a span around each call.
//!
//! `cover` stays one opaque span: clique generation, legalization,
//! lookahead and selection all run inside `cover_budgeted`.

use crate::trace::Tracer;
use aviv::{
    cover_budgeted, cover_sequential_budgeted, explore, CacheKey, CodeGenerator, CodegenOptions,
    CoverError, CoverGraph, ExploreResult, PlanCache, Schedule,
};
use aviv_ir::{BlockDag, Function, MemLayout, Sym, SymbolTable};
use aviv_isdl::Target;
use aviv_splitdag::SplitNodeDag;
use std::collections::HashMap;
use std::sync::Arc;

/// Every count a traced run reports besides time, calls and allocations.
pub const COUNT_NAMES: &[&str] = &[
    "assign.enumerated",
    "assign.explored",
    "cache.hits",
    "cache.lookups",
    "cover.expansions",
    "cover.spills",
    "covergraph.nodes",
    "emit.asm_bytes",
    "peephole.removed",
    "splitdag.nodes",
    "tv.obligations",
];

/// What replaying one planned block produced, for comparison with the
/// program's own `BlockReport`.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct BlockOutcome {
    /// Budget units spent by covering and allocation.
    pub expansions: u64,
    pub spills: usize,
    /// Schedule length after peephole.
    pub schedule_len: usize,
    /// Emitted block-body instructions.
    pub instructions: usize,
    /// Replayed stage times in ns: splitdag, assign, covergraph + cover,
    /// regalloc, peephole.
    pub stage_ns: [u64; 5],
}

/// A replayed function: its assembly and, per block, what replaying its
/// planning produced (`None` for a cache hit).
pub type Replayed = (String, Vec<Option<BlockOutcome>>);

/// Dead-code elimination exactly as `compile_function` runs it.
pub fn eliminate_dead_code(f: &Function, options: &CodegenOptions) -> Function {
    let mut g = f.clone();
    if options.exact_liveness {
        let observable: Vec<Sym> = f.syms.iter().map(|(s, _)| s).collect();
        aviv_ir::opt::eliminate_dead_code(&mut g, &observable);
    }
    g
}

/// The plan-cache key `compile_function` uses for `dag`.
pub fn cache_key(
    dag: &BlockDag,
    f: &Function,
    target: &Target,
    options: &CodegenOptions,
) -> CacheKey {
    CacheKey {
        block: aviv_ir::block_dag_hash(dag, &f.syms),
        target: target.fingerprint(),
        options: options.planning_fingerprint(),
    }
}

fn elapsed_ns(t: std::time::Instant) -> u64 {
    t.elapsed().as_nanos() as u64
}

/// Replay the first (concurrent) rung of the degradation ladder for one
/// block: split-node DAG, assignment exploration, then cover-graph build
/// and covering per explored assignment, keeping the shortest schedule;
/// then register allocation, peephole and the static bounds.
fn plan_stages(
    tr: &mut Tracer,
    dag: &BlockDag,
    snapshot: &SymbolTable,
    target: &Target,
    options: &CodegenOptions,
) -> Result<BlockOutcome, String> {
    let mut out = BlockOutcome::default();
    let t = std::time::Instant::now();
    let sndag = tr
        .span("splitdag", || SplitNodeDag::build(dag, target))
        .map_err(|e| format!("split-node DAG: {e}"))?;
    out.stage_ns[0] = elapsed_ns(t);
    tr.count("splitdag.nodes", sndag.nodes().len() as f64);

    let t = std::time::Instant::now();
    let ExploreResult {
        assignments,
        enumerated,
        ..
    } = tr.span("assign", || explore(dag, &sndag, target, options));
    out.stage_ns[1] = elapsed_ns(t);
    tr.count("assign.enumerated", enumerated as f64);
    tr.count("assign.explored", assignments.len() as f64);

    let t = std::time::Instant::now();
    let budget = aviv::Budget::new(options.fuel, None);
    let build = |tr: &mut Tracer, assignment| {
        let graph = tr
            .span("covergraph", || {
                CoverGraph::try_build(dag, &sndag, target, assignment)
            })
            .map_err(|d| format!("cover graph: {d}"))?;
        tr.count("covergraph.nodes", graph.len() as f64);
        Ok::<_, String>(graph)
    };
    let mut best: Option<(CoverGraph, Schedule)> = None;
    for assignment in &assignments {
        let mut graph = build(tr, assignment)?;
        let mut syms = snapshot.clone();
        let result = tr.span("cover", || {
            cover_budgeted(&mut graph, target, &mut syms, options, &budget)
        });
        let result = match result {
            Ok(schedule) => Ok((graph, schedule)),
            Err(e @ (CoverError::Budget(_) | CoverError::Internal(_))) => {
                return Err(format!("cover: {e}"))
            }
            // The compile retries a wedged concurrent cover with the
            // sequential engine on a fresh graph; so does the replay.
            Err(_) => {
                let mut graph = build(tr, assignment)?;
                let mut syms = snapshot.clone();
                tr.span("cover", || {
                    cover_sequential_budgeted(&mut graph, target, &mut syms, &budget)
                })
                .map(|s| (graph, s))
            }
        };
        if let Ok((graph, schedule)) = result {
            if best.as_ref().is_none_or(|(_, s)| schedule.len() < s.len()) {
                best = Some((graph, schedule));
            }
        }
    }
    out.stage_ns[2] = elapsed_ns(t);
    let (mut graph, mut schedule) = best.ok_or("no assignment could be covered")?;
    tr.count("cover.expansions", budget.spent() as f64);
    out.spills = schedule.spills.len();
    tr.count("cover.spills", out.spills as f64);

    let t = std::time::Instant::now();
    let mut alloc = tr
        .span("regalloc", || {
            aviv::regalloc::allocate_budgeted(&graph, target, &schedule, &budget)
        })
        .map_err(|_| "register allocation failed".to_string())?;
    out.stage_ns[3] = elapsed_ns(t);

    let t = std::time::Instant::now();
    let before = schedule.len();
    if options.peephole {
        tr.span("peephole", || {
            aviv::peephole::optimize(&mut graph, target, &mut schedule, &mut alloc);
        });
    }
    out.stage_ns[4] = elapsed_ns(t);
    tr.count("peephole.removed", (before - schedule.len()) as f64);
    out.schedule_len = schedule.len();

    tr.span("analyze", || {
        aviv::verify::analyze::block_bounds(dag, target)
    });
    out.expansions = budget.spent();
    Ok(out)
}

/// Replay planning and emission of the (post-DCE) function `f`.
///
/// With `cache`, each block is first looked up, and a planned block is
/// inserted when complete, as `compile_function` does with a cache
/// attached. Returns the rendered assembly and, per block, the outcome
/// of replayed planning (`None` for a cache hit).
pub fn replay_function(
    tr: &mut Tracer,
    target: &Arc<Target>,
    f: &Function,
    options: &CodegenOptions,
    cache: Option<&PlanCache>,
) -> Result<Replayed, String> {
    let gen = CodeGenerator::with_shared_target(Arc::clone(target)).options(options.clone());
    let mut syms = f.syms.clone();
    let mut layout = MemLayout::for_function(f);
    // Block plans keep their fields private, so the plan itself comes
    // from `plan_block` outside any span; the replayed stages above are
    // what is timed.
    let scratch = PlanCache::new(f.blocks.len().max(1));
    let mut outcomes = Vec::with_capacity(f.blocks.len());
    for (_, block) in f.iter() {
        let (key, hit) = match cache {
            Some(c) => {
                tr.begin("cache");
                let key = cache_key(&block.dag, f, target, options);
                let hit = c.lookup(&key);
                tr.end();
                tr.count("cache.lookups", 1.0);
                tr.count("cache.hits", f64::from(u8::from(hit.is_some())));
                (key, hit)
            }
            None => (cache_key(&block.dag, f, target, options), None),
        };
        let (plan, mut outcome) = match hit {
            Some(plan) => (plan, None),
            None => {
                let outcome = plan_stages(tr, &block.dag, &f.syms, target, options)?;
                let plan = gen
                    .plan_block(&block.dag, &f.syms)
                    .map_err(|e| format!("plan_block: {e}"))?;
                (plan, Some(outcome))
            }
        };
        scratch.insert(key, plan.clone());
        let to_cache = cache.filter(|_| outcome.is_some()).map(|_| plan.clone());
        let result = tr
            .span("codegen", || gen.apply_plan(plan, &mut syms, &mut layout))
            .map_err(|e| format!("apply_plan: {e}"))?;
        if let Some(o) = &mut outcome {
            o.instructions = result.report.instructions;
            if o.schedule_len != result.schedule.len() {
                return Err(format!(
                    "replayed schedule has {} steps, plan_block's {}",
                    o.schedule_len,
                    result.schedule.len()
                ));
            }
        }
        if let (Some(c), Some(plan), true) = (cache, to_cache, result.report.complete) {
            tr.span("cache", || c.insert(key, plan));
        }
        outcomes.push(outcome);
    }
    // Lowering of terminators and branch fix-ups: the program comes from
    // `compile_function` served entirely from the scratch cache.
    let (program, report) = CodeGenerator::with_shared_target(Arc::clone(target))
        .options(options.clone())
        .with_cache(Arc::new(scratch))
        .compile_function(f)
        .map_err(|e| format!("compile_function: {e}"))?;
    if report.cache_misses != 0 {
        return Err(format!(
            "{} block(s) missed the replay's own plans",
            report.cache_misses
        ));
    }
    let asm = tr.span("emit", || program.render(target));
    tr.count("emit.asm_bytes", asm.len() as f64);
    Ok((asm, outcomes))
}

/// `avivd`'s machine memo: parse once per distinct source text, keyed by
/// its hash.
pub fn target_for(memo: &mut HashMap<u64, Arc<Target>>, src: &str) -> Result<Arc<Target>, String> {
    let key = aviv_ir::stablehash::hash_str(src);
    if let Some(t) = memo.get(&key) {
        return Ok(Arc::clone(t));
    }
    let machine = aviv_isdl::parse_machine(src).map_err(|e| format!("machine: {e}"))?;
    let t = Arc::new(Target::new(machine));
    memo.insert(key, Arc::clone(&t));
    Ok(t)
}
