//! Warm-vs-cold serving benchmark: the wall-time case for the `avivd`
//! plan cache, measured over every bundled program×machine pair.
//!
//! Each pair is compiled in [`ROUNDS`] rounds. A round times three
//! bursts of [`BURST`] compiles back to back, one per temperature:
//! *cold* (a fresh [`PlanCache`] per compile — every block planned from
//! scratch), *warm* (one shared cache, primed once — every block
//! answered from cache) and *restart*. The restart temperature measures
//! the crash-safe persistence path: the primed cache is snapshotted to
//! disk once, and each restart compile pays a fresh cache +
//! [`aviv::load_snapshot`] + compile — the cost of an `avivd --persist`
//! restart's first request. Every compile's bytes are checked against
//! the cold bytes. A round's time per temperature is the mean over its
//! burst; the table and the gates use the median over the rounds.
//!
//! Flags: `--check` enforces the serving acceptance gates — warm and
//! restart passes are 100% cache hits, warm is at least
//! [`REQUIRED_SPEEDUP`]× faster than cold, restart at least
//! [`REQUIRED_RESTART_SPEEDUP`]× — and exits nonzero otherwise.

use aviv::{
    load_snapshot, save_snapshot, CodeGenerator, CodegenOptions, CompileReport, LoadOutcome,
    PlanCache,
};
use aviv_ir::parse_function;
use aviv_isdl::parse_machine;
use std::path::Path;
use std::sync::Arc;
use std::time::Instant;

/// Measured rounds per pair: enough for a median that sub-millisecond
/// scheduler noise does not move.
const ROUNDS: usize = 41;

/// Compiles per temperature per round, timed as one burst. All three
/// temperatures are measured the same way: a burst's mean is what
/// back-to-back requests pay, and a round's three bursts run close
/// together, so a stretch of host noise lands on all of them alike.
const BURST: usize = 10;

/// `--check` fails when warm wall time is not at least this many times
/// lower than cold.
const REQUIRED_SPEEDUP: f64 = 5.0;

/// `--check` fails when a restart (snapshot load + all-hits compile) is
/// not at least this many times faster than a cold compile.
const REQUIRED_RESTART_SPEEDUP: f64 = 2.0;

struct PairResult {
    program: String,
    machine: String,
    blocks: usize,
    cold_ms: f64,
    warm_ms: f64,
    warm_hits: usize,
    warm_misses: usize,
    restart_ms: f64,
    restart_hits: usize,
    restart_misses: usize,
    bytes_match: bool,
}

fn assets_dir() -> std::path::PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("../../assets")
}

fn median(times: &mut [f64]) -> f64 {
    times.sort_by(f64::total_cmp);
    times[times.len() / 2]
}

fn measure_pair(prog_name: &str, machine_name: &str) -> PairResult {
    let dir = assets_dir();
    let machine_src = std::fs::read_to_string(dir.join(format!("{machine_name}.isdl")))
        .expect("bundled machine readable");
    let program_src = std::fs::read_to_string(dir.join(format!("{prog_name}.av")))
        .expect("bundled program readable");
    let machine = parse_machine(&machine_src).expect("bundled machine parses");
    let function = parse_function(&program_src).expect("bundled program parses");
    let target = Arc::new(aviv_isdl::Target::new(machine));
    // One compile against `cache`: its assembly bytes and its report.
    let compile = |cache: Arc<PlanCache>| -> (Vec<u8>, CompileReport) {
        let generator = CodeGenerator::with_shared_target(Arc::clone(&target))
            .options(CodegenOptions::heuristics_on())
            .with_cache(cache);
        let (program, report) = generator.compile_function(&function).expect("compile");
        (program.render(generator.target()).into_bytes(), report)
    };
    let ms =
        |started: Instant, compiles: usize| started.elapsed().as_secs_f64() * 1e3 / compiles as f64;

    // Warm: one shared cache, primed once; a warm compile is what a
    // steady-state server pays per request. Restart: the primed cache
    // snapshotted once; a restart compile is a persisted server's first
    // request after a restart.
    let cache = Arc::new(PlanCache::default());
    let (cold_asm, report) = compile(Arc::clone(&cache));
    let snap = std::env::temp_dir().join(format!(
        "aviv_bench_serving_{}_{prog_name}_{machine_name}.avivcache",
        std::process::id()
    ));
    let _ = std::fs::remove_file(&snap);
    save_snapshot(&snap, &cache).expect("snapshot saves");

    let (mut cold, mut warm, mut restart) = (Vec::new(), Vec::new(), Vec::new());
    let mut bytes_match = true;
    let mut reports = None;
    for _ in 0..ROUNDS {
        // Cold: a fresh cache per compile, so every block is planned
        // from scratch (and inserted — the same work a server's first
        // request for a program does).
        let started = Instant::now();
        for _ in 0..BURST {
            let (asm, _) = compile(Arc::new(PlanCache::default()));
            bytes_match &= asm == cold_asm;
        }
        cold.push(ms(started, BURST));
        let started = Instant::now();
        let mut warm_report = None;
        for _ in 0..BURST {
            let (asm, r) = compile(Arc::clone(&cache));
            bytes_match &= asm == cold_asm;
            warm_report = Some(r);
        }
        warm.push(ms(started, BURST));
        let started = Instant::now();
        let mut restart_report = None;
        for _ in 0..BURST {
            let restored = Arc::new(PlanCache::default());
            match load_snapshot(&snap, &restored).expect("snapshot reads") {
                LoadOutcome::Loaded { .. } => {}
                other => panic!("snapshot failed to restore: {other:?}"),
            }
            let (asm, r) = compile(restored);
            bytes_match &= asm == cold_asm;
            restart_report = Some(r);
        }
        restart.push(ms(started, BURST));
        reports = warm_report.zip(restart_report);
    }
    let _ = std::fs::remove_file(&snap);
    let (warm_report, restart_report) = reports.expect("at least one round");

    PairResult {
        program: prog_name.to_string(),
        machine: machine_name.to_string(),
        blocks: report.blocks.len(),
        cold_ms: median(&mut cold),
        warm_ms: median(&mut warm),
        warm_hits: warm_report.cache_hits,
        warm_misses: warm_report.cache_misses,
        restart_ms: median(&mut restart),
        restart_hits: restart_report.cache_hits,
        restart_misses: restart_report.cache_misses,
        bytes_match,
    }
}

fn main() {
    let check = std::env::args().skip(1).any(|a| a == "--check");

    let machines = ["fig3", "archII", "dsp_mac"];
    let programs = ["sum_loop", "dot4"];
    let mut results = Vec::new();
    println!(
        "{:22} | {:>9} | {:>9} | {:>10} | {:>8} | {:>10}",
        "pair", "cold ms", "warm ms", "restart ms", "speedup", "warm cache"
    );
    println!("{}", "-".repeat(84));
    for m in machines {
        for p in programs {
            let r = measure_pair(p, m);
            println!(
                "{:22} | {:>9.3} | {:>9.3} | {:>10.3} | {:>7.1}x | {:>4} hit {:>2} miss",
                format!("{p}@{m}"),
                r.cold_ms,
                r.warm_ms,
                r.restart_ms,
                r.cold_ms / r.warm_ms.max(1e-9),
                r.warm_hits,
                r.warm_misses,
            );
            results.push(r);
        }
    }
    println!(
        "\nmedians over {ROUNDS} rounds of the mean of {BURST} compiles per \
         temperature; cold = fresh plan cache per compile, warm = shared \
         primed cache, restart = snapshot load + all-hits compile."
    );

    if check {
        let mut failures = Vec::new();
        for r in &results {
            let pair = format!("{}@{}", r.program, r.machine);
            if r.warm_misses != 0 || r.warm_hits != r.blocks {
                failures.push(format!(
                    "{pair}: warm pass not 100% cache hits \
                     ({} hits / {} misses over {} blocks)",
                    r.warm_hits, r.warm_misses, r.blocks
                ));
            }
            if !r.bytes_match {
                failures.push(format!("{pair}: warm assembly differs from cold"));
            }
            let speedup = r.cold_ms / r.warm_ms.max(1e-9);
            if speedup < REQUIRED_SPEEDUP {
                failures.push(format!(
                    "{pair}: warm speedup {speedup:.1}x below the \
                     {REQUIRED_SPEEDUP:.0}x gate (cold {:.3} ms, warm {:.3} ms)",
                    r.cold_ms, r.warm_ms
                ));
            }
            if r.restart_misses != 0 || r.restart_hits != r.blocks {
                failures.push(format!(
                    "{pair}: restart pass not 100% cache hits \
                     ({} hits / {} misses over {} blocks)",
                    r.restart_hits, r.restart_misses, r.blocks
                ));
            }
            let restart_speedup = r.cold_ms / r.restart_ms.max(1e-9);
            if restart_speedup < REQUIRED_RESTART_SPEEDUP {
                failures.push(format!(
                    "{pair}: restart speedup {restart_speedup:.1}x below the \
                     {REQUIRED_RESTART_SPEEDUP:.0}x gate (cold {:.3} ms, \
                     restart {:.3} ms)",
                    r.cold_ms, r.restart_ms
                ));
            }
        }
        if !failures.is_empty() {
            for f in &failures {
                eprintln!("serving check failed: {f}");
            }
            std::process::exit(1);
        }
        println!(
            "serving check passed: warm passes are all-hits and \
             ≥{REQUIRED_SPEEDUP:.0}x faster; restart passes are all-hits \
             and ≥{REQUIRED_RESTART_SPEEDUP:.0}x faster"
        );
    }
}
