//! `sweep-kernels` and `sweep-exhaustive`: closed-loop, one caller, one
//! compile thread. An op compiles every pair of the sweep from source
//! bytes to assembly bytes through `aviv_cli::drive`.

use crate::check::simulate;
use crate::inputs::{self, Pair};
use crate::replay::{self, Replayed};
use crate::stats::{self, median};
use crate::trace::Tracer;
use crate::Outcome;
use aviv::{BlockReport, CodeGenerator, CodegenOptions, PlanCache, VliwProgram};
use aviv_ir::Function;
use aviv_isdl::{parse_machine, Target};
use std::collections::HashMap;
use std::path::Path;
use std::sync::Arc;
use std::time::Instant;

/// Set-ups per run; `setup_s` is their median.
const SETUPS: usize = 5;

/// After each cold op, warm ops run for this fraction of its time.
const WARM_PER_COLD: u32 = 4;

/// One sweep workload: its pairs and the `avivc` preset it compiles with.
pub struct Sweep {
    pub pairs: Vec<Pair>,
    preset: &'static str,
}

impl Sweep {
    pub fn new(root: &Path, workload: &str, seed: u64) -> Option<Sweep> {
        match workload {
            "sweep-kernels" => Some(Sweep {
                pairs: inputs::kernel_sweep(root, seed),
                preset: "on",
            }),
            "sweep-exhaustive" => Some(Sweep {
                pairs: inputs::exhaustive(seed),
                preset: "off",
            }),
            _ => None,
        }
    }

    /// The codegen options `aviv_cli::drive` builds for this preset at
    /// `--jobs 1`.
    fn options(&self) -> CodegenOptions {
        match self.preset {
            "off" => CodegenOptions::heuristics_off(),
            _ => CodegenOptions::heuristics_on(),
        }
        .with_jobs(1)
    }
}

/// The `avivc` options of a `--jobs 1` compile under `preset`.
pub fn cli_options(preset: &str) -> aviv_cli::Options {
    let args = [
        "--machine",
        "machine.isdl",
        "program.av",
        "--jobs",
        "1",
        "--preset",
        preset,
    ]
    .map(String::from);
    aviv_cli::Options::parse(&args).expect("benchmark options parse")
}

/// Everything an op needs, made once per set-up: parsed inputs, a plan
/// cache primed with every block of the sweep, and the reference output.
struct Prepared {
    targets: Vec<Arc<Target>>,
    functions: Vec<Function>,
    programs: Vec<VliwProgram>,
    asm: Vec<String>,
    reports: Vec<Vec<BlockReport>>,
    cache: Arc<PlanCache>,
    /// Machines by source-text hash, as `avivd` memoizes them.
    memo: HashMap<u64, Arc<Target>>,
    /// Σ node expansions and Σ instructions over the sweep.
    expansions: u64,
    instructions: u64,
}

/// Parse every input once (machines shared by source text, as `avivd`
/// memoizes them) and prime a plan cache by compiling every pair.
fn prepare(sweep: &Sweep) -> Result<Prepared, String> {
    let options = sweep.options();
    let mut p = Prepared {
        targets: Vec::new(),
        functions: Vec::new(),
        programs: Vec::new(),
        asm: Vec::new(),
        reports: Vec::new(),
        cache: Arc::new(PlanCache::default()),
        memo: HashMap::new(),
        expansions: 0,
        instructions: 0,
    };
    for pair in &sweep.pairs {
        let target = replay::target_for(&mut p.memo, &pair.machine_src)
            .map_err(|e| format!("{}: {e}", pair.name))?;
        let f = aviv_ir::parse_function(&pair.program_src)
            .map_err(|e| format!("{}: {e}", pair.name))?;
        let (program, report) = CodeGenerator::with_shared_target(Arc::clone(&target))
            .options(options.clone())
            .with_cache(Arc::clone(&p.cache))
            .compile_function(&f)
            .map_err(|e| format!("{}: {e}", pair.name))?;
        if !report.complete {
            return Err(format!("{}: compile incomplete", pair.name));
        }
        p.expansions += report.blocks.iter().map(|b| b.node_expansions).sum::<u64>();
        p.instructions += report.total_instructions as u64;
        p.asm.push(program.render(&target));
        p.programs.push(program);
        p.reports.push(report.blocks);
        p.functions.push(f);
        p.targets.push(target);
    }
    Ok(p)
}

/// Set up [`SETUPS`] times; returns the last set-up, the median set-up
/// time, and an error if any count or byte differed between set-ups.
fn setup(sweep: &Sweep) -> Result<(Prepared, f64), String> {
    let mut times = Vec::new();
    let mut last: Option<Prepared> = None;
    for _ in 0..SETUPS {
        let t = Instant::now();
        let p = prepare(sweep)?;
        times.push(t.elapsed().as_secs_f64());
        if let Some(prev) = &last {
            if (prev.expansions, prev.instructions) != (p.expansions, p.instructions)
                || prev.asm != p.asm
            {
                return Err("exact-repeat check: two set-ups of one sweep differ".into());
            }
        }
        last = Some(p);
    }
    Ok((last.expect("at least one set-up"), median(&times)))
}

/// The timed run: set-up, correctness gate, then cold ops through
/// `aviv_cli::drive` alternating with warm ops against the primed plan
/// cache. Wall-clock figures come from the traced run (see README).
pub fn run_timed(sweep: &Sweep, seconds: f64) -> Outcome {
    let mut out = Outcome::default();
    let (prep, setup_s) = match setup(sweep) {
        Ok(v) => v,
        Err(e) => return out.fail(e),
    };

    // Gate: every distinct pair simulated against the interpreter, twice
    // so that the cycle count is known to repeat exactly.
    let simulate_all = |out: &mut Outcome| {
        let mut cycles = 0u64;
        for (i, pair) in sweep.pairs.iter().enumerate() {
            match simulate(
                &prep.functions[i],
                &prep.targets[i],
                &prep.programs[i],
                &pair.args,
            ) {
                Ok(c) => cycles += c,
                Err(e) => out.note_error(format!("{}: {e}", pair.name)),
            }
        }
        cycles
    };
    let cycles = simulate_all(&mut out);
    if simulate_all(&mut out) != cycles {
        out.note_error("exact-repeat check: simulated cycles differ between two runs".into());
    }

    let ctx = OpContext::new(sweep, &prep);
    let mut window = Window::default();
    let start = Instant::now();
    while window.cold.is_empty() || start.elapsed().as_secs_f64() < seconds {
        window.step(&ctx, &mut out);
    }
    // Exact-repeat check: two cold ops of one sweep allocate alike.
    let allocs = window.cold_allocs[0];
    if window.cold_allocs.get(1).is_some_and(|&a| a != allocs) {
        out.note_error("exact-repeat check: two cold ops allocated differently".into());
    }

    let r = &mut out.report;
    r.add("setup_s", setup_s, "s");
    r.add("search_expansions", prep.expansions as f64, "count");
    r.add("code_instructions", prep.instructions as f64, "count");
    r.add("code_cycles", cycles as f64, "count");
    r.add("heap_allocs", allocs as f64, "count");
    r.add(
        "peak_rss_mb",
        stats::peak_rss_mb("self").unwrap_or(0.0),
        "MB",
    );
    let success = out.success_ratio();
    out.report.add("success_ratio", success, "ratio");
    eprintln!(
        "{} pairs; {} cold ops, {} warm ops",
        sweep.pairs.len(),
        window.cold.len(),
        window.warm.len()
    );
    out
}

/// What every op needs besides the set-up.
struct OpContext<'a> {
    sweep: &'a Sweep,
    prep: &'a Prepared,
    cli: aviv_cli::Options,
    options: CodegenOptions,
}

impl<'a> OpContext<'a> {
    fn new(sweep: &'a Sweep, prep: &'a Prepared) -> OpContext<'a> {
        OpContext {
            sweep,
            prep,
            cli: cli_options(sweep.preset),
            options: sweep.options(),
        }
    }
}

/// Cold and warm op latencies (ms) and each cold op's allocation calls.
#[derive(Default)]
struct Window {
    cold: Vec<f64>,
    warm: Vec<f64>,
    cold_allocs: Vec<u64>,
}

impl Window {
    /// One cold op, then warm ops for a quarter of its time: the two
    /// alternate over the whole window, so both see the same host.
    fn step(&mut self, ctx: &OpContext<'_>, out: &mut Outcome) {
        let allocs = crate::alloc::counts().0;
        let t = Instant::now();
        let ok = cold_op(ctx, out);
        let took = t.elapsed();
        self.cold_allocs.push(crate::alloc::counts().0 - allocs);
        self.cold.push(took.as_secs_f64() * 1e3);
        out.tally(ok);
        let until = Instant::now() + took / WARM_PER_COLD;
        let first = self.warm.len();
        while self.warm.len() == first || Instant::now() < until {
            let t = Instant::now();
            let ok = warm_op(ctx, out);
            self.warm.push(t.elapsed().as_secs_f64() * 1e3);
            out.tally(ok);
        }
    }

    /// The wall-clock figures of the traced run.
    fn report(&self, r: &mut crate::stats::Report) {
        let cold_s: f64 = self.cold.iter().sum::<f64>() / 1e3;
        crate::wall_metrics(
            r,
            self.cold.len() as f64 / cold_s,
            &self.cold,
            &self.warm,
            &self.cold,
        );
    }
}

/// One cold op: every pair from source bytes to assembly bytes through
/// `aviv_cli::drive`, checked against the set-up's bytes.
fn cold_op(ctx: &OpContext<'_>, out: &mut Outcome) -> bool {
    let mut ok = true;
    for (pair, want) in ctx.sweep.pairs.iter().zip(&ctx.prep.asm) {
        match aviv_cli::drive(&ctx.cli, &pair.machine_src, &pair.program_src) {
            Ok(o) if o.output == want.as_bytes() => {}
            Ok(_) => {
                ok = false;
                out.note_error(format!(
                    "{}: drive output differs from compile_function",
                    pair.name
                ));
            }
            Err(e) => {
                ok = false;
                out.note_error(format!("{}: {e}", pair.name));
            }
        }
    }
    ok
}

/// One warm op: the same sweep with every block served from the primed
/// cache and machines reused by source text, as `avivd` reuses them (the
/// re-run cost of an unchanged exploration loop).
fn warm_op(ctx: &OpContext<'_>, out: &mut Outcome) -> bool {
    let mut ok = true;
    for (pair, want) in ctx.sweep.pairs.iter().zip(&ctx.prep.asm) {
        let target = &ctx.prep.memo[&aviv_ir::stablehash::hash_str(&pair.machine_src)];
        let result = aviv_ir::parse_function(&pair.program_src)
            .map_err(|e| e.to_string())
            .and_then(|f| {
                CodeGenerator::with_shared_target(Arc::clone(target))
                    .options(ctx.options.clone())
                    .with_cache(Arc::clone(&ctx.prep.cache))
                    .compile_function(&f)
                    .map_err(|e| e.to_string())
            });
        match result {
            Ok((program, report))
                if report.cache_misses == 0 && program.render(target) == *want => {}
            Ok(_) => {
                ok = false;
                out.note_error(format!(
                    "{}: warm compile missed the cache or changed bytes",
                    pair.name
                ));
            }
            Err(e) => {
                ok = false;
                out.note_error(format!("{}: {e}", pair.name));
            }
        }
    }
    ok
}

/// One traced op: every pair replayed through the stage functions.
fn replay_op(
    tr: &mut Tracer,
    sweep: &Sweep,
    options: &CodegenOptions,
) -> Result<Vec<Replayed>, String> {
    let mut results = Vec::with_capacity(sweep.pairs.len());
    for pair in &sweep.pairs {
        let target = tr.span("isdl", || {
            parse_machine(&pair.machine_src).map(|m| Arc::new(Target::new(m)))
        });
        let target = target.map_err(|e| format!("{}: {e}", pair.name))?;
        tr.begin("ir");
        let f = aviv_ir::parse_function(&pair.program_src)
            .map(|f| replay::eliminate_dead_code(&f, options));
        tr.end();
        let f = f.map_err(|e| format!("{}: {e}", pair.name))?;
        let r = replay::replay_function(tr, &target, &f, options, None)
            .map_err(|e| format!("{}: {e}", pair.name))?;
        results.push(r);
    }
    Ok(results)
}

/// The traced run: ops replayed through the stage functions with spans,
/// each followed by untraced cold and warm ops, which give the wall-clock
/// figures and the tracing overhead.
pub fn run_traced(sweep: &Sweep, seconds: f64, spans_out: &Path) -> Outcome {
    let mut out = Outcome::default();
    let prep = match prepare(sweep) {
        Ok(p) => p,
        Err(e) => return out.fail(e),
    };
    let options = sweep.options();
    let mut tr = Tracer::new(replay::COUNT_NAMES);

    // Exact-repeat check: op 0 twice, same per-layer calls, allocations
    // and counts; then the replay-faithfulness check against the
    // `BlockReport`s of `compile_function`.
    let mut first = None;
    for attempt in 0..2 {
        tr.clear();
        let results = match replay_op(&mut tr, sweep, &options) {
            Ok(r) => r,
            Err(e) => return out.fail(e),
        };
        let layers: Vec<_> = tr
            .layers(|_| true)
            .into_iter()
            .map(|(l, t)| (l, t.calls, t.self_allocs))
            .collect();
        let key = (layers, tr.counts().clone());
        if attempt == 0 {
            if let Err(e) = check_faithful(sweep, &prep, &results) {
                return out.fail(e);
            }
            first = Some(key);
        } else if first.as_ref() != Some(&key) {
            return out.fail("exact-repeat check: per-layer calls, allocations or counts differ between two replays of one op".into());
        }
    }

    tr.clear();
    let ctx = OpContext::new(sweep, &prep);
    let mut window = Window::default();
    let (mut traced_s, mut ops) = (0.0, 0u64);
    let start = Instant::now();
    while ops == 0 || start.elapsed().as_secs_f64() < seconds {
        tr.set_op(ops);
        let t = Instant::now();
        let result = replay_op(&mut tr, sweep, &options);
        traced_s += t.elapsed().as_secs_f64();
        let ok = match result {
            Ok(r) => r.iter().zip(&prep.asm).all(|((asm, _), want)| asm == want),
            Err(e) => {
                out.note_error(e);
                false
            }
        };
        out.tally(ok);
        window.step(&ctx, &mut out);
        ops += 1;
    }
    if let Err(e) = tr.write(spans_out) {
        out.note_error(format!("writing spans: {e}"));
    }
    crate::layer_metrics(&mut out.report, &tr, ops as f64);
    eprintln!(
        "cover share of self time: {:.1} %",
        100.0 * tr.share("cover", |_| true)
    );
    window.report(&mut out.report);
    let r = &mut out.report;
    r.add("cache.hit_ratio", 0.0, "ratio");
    r.add("cache.entries", 0.0, "count");
    r.add("cache.evictions", 0.0, "count");
    r.add("serve.wait_ms.p50", 0.0, "ms");
    r.add("serve.wait_ms.p99", 0.0, "ms");
    r.add("serve.queued", 0.0, "count");
    r.add("harness.late_ms.p99", 0.0, "ms");
    let plain_s: f64 = window.cold.iter().sum::<f64>() / 1e3;
    r.add("trace.overhead_ratio", traced_s / plain_s, "ratio");
    out
}

/// Per block, replayed expansions, spills and instructions must equal
/// the program's own `BlockReport`. Prints replayed stage times next to
/// `BlockReport::stages`.
fn check_faithful(sweep: &Sweep, prep: &Prepared, results: &[Replayed]) -> Result<(), String> {
    eprintln!("replayed vs BlockReport stage times (us): splitdag/sndag assign/explore cover regalloc/alloc peephole");
    for ((pair, (asm, outcomes)), (reports, want)) in sweep
        .pairs
        .iter()
        .zip(results)
        .zip(prep.reports.iter().zip(&prep.asm))
    {
        if asm != want {
            return Err(format!(
                "replay of {}: assembly differs from compile_function",
                pair.name
            ));
        }
        for (bi, (o, r)) in outcomes.iter().zip(reports).enumerate() {
            let o = o
                .as_ref()
                .ok_or("replay without a cache reported a cache hit")?;
            if (o.expansions, o.spills, o.instructions)
                != (r.node_expansions, r.spills, r.instructions)
            {
                return Err(format!(
                    "replay of {} bb{bi}: expansions/spills/instructions {:?} vs BlockReport {:?}",
                    pair.name,
                    (o.expansions, o.spills, o.instructions),
                    (r.node_expansions, r.spills, r.instructions)
                ));
            }
            let us = |ns: u64| ns as f64 / 1e3;
            let s = &r.stages;
            eprintln!(
                "  {:24} bb{bi}: {:8.1}/{:8.1} {:8.1}/{:8.1} {:9.1}/{:9.1} {:7.1}/{:7.1} {:7.1}/{:7.1}",
                pair.name,
                us(o.stage_ns[0]),
                s.sndag.as_secs_f64() * 1e6,
                us(o.stage_ns[1]),
                s.explore.as_secs_f64() * 1e6,
                us(o.stage_ns[2]),
                s.cover.as_secs_f64() * 1e6,
                us(o.stage_ns[3]),
                s.alloc.as_secs_f64() * 1e6,
                us(o.stage_ns[4]),
                s.peephole.as_secs_f64() * 1e6,
            );
        }
    }
    Ok(())
}
