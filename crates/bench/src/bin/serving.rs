//! Warm-vs-cold serving benchmark: the wall-time case for the `avivd`
//! plan cache, measured over every bundled program×machine pair.
//!
//! Each pair is compiled `ITERATIONS` times cold (a fresh
//! [`PlanCache`] per compile — every block planned from scratch) and
//! `ITERATIONS` times warm (one shared cache, primed once — every
//! block answered from cache), asserting along the way that the warm
//! bytes are identical to the cold bytes.
//!
//! A third temperature, *restart*, measures the crash-safe persistence
//! path: the primed cache is snapshotted to disk once, and each
//! measured compile pays a fresh cache + [`aviv::load_snapshot`] +
//! compile — the cost of an `avivd --persist` restart's first request.
//!
//! Flags: `--check` enforces the serving acceptance gates — warm and
//! restart passes are 100% cache hits, warm is at least
//! [`REQUIRED_SPEEDUP`]× faster than cold, restart at least
//! [`REQUIRED_RESTART_SPEEDUP`]× — and exits nonzero otherwise.

use aviv::{load_snapshot, save_snapshot, CodeGenerator, CodegenOptions, LoadOutcome, PlanCache};
use aviv_ir::parse_function;
use aviv_isdl::parse_machine;
use std::path::Path;
use std::sync::Arc;
use std::time::Instant;

/// Measured compiles per temperature per pair: enough to average out
/// scheduler noise on sub-millisecond warm compiles.
const ITERATIONS: u32 = 20;

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

fn measure_pair(prog_name: &str, machine_name: &str) -> PairResult {
    let dir = assets_dir();
    let machine_src = std::fs::read_to_string(dir.join(format!("{machine_name}.isdl")))
        .expect("bundled machine readable");
    let program_src = std::fs::read_to_string(dir.join(format!("{prog_name}.av")))
        .expect("bundled program readable");
    let machine = parse_machine(&machine_src).expect("bundled machine parses");
    let function = parse_function(&program_src).expect("bundled program parses");
    let target = Arc::new(aviv_isdl::Target::new(machine));
    let options = CodegenOptions::heuristics_on;

    // Cold: a fresh cache per compile, so every block is planned from
    // scratch (and inserted — the same work a server's first request
    // for a program does).
    let mut cold_asm = Vec::new();
    let mut report = None;
    let t0 = Instant::now();
    for _ in 0..ITERATIONS {
        let generator = CodeGenerator::with_shared_target(Arc::clone(&target))
            .options(options())
            .with_cache(Arc::new(PlanCache::default()));
        let (program, r) = generator.compile_function(&function).expect("cold compile");
        cold_asm = program.render(generator.target()).into_bytes();
        report = Some(r);
    }
    let cold_ms = t0.elapsed().as_secs_f64() * 1e3 / f64::from(ITERATIONS);
    let report = report.expect("at least one iteration");

    // Warm: one shared cache, primed once; the measured compiles are
    // what a steady-state server pays per request.
    let cache = Arc::new(PlanCache::default());
    let prime = CodeGenerator::with_shared_target(Arc::clone(&target))
        .options(options())
        .with_cache(Arc::clone(&cache));
    prime.compile_function(&function).expect("priming compile");
    let mut warm_asm = Vec::new();
    let mut warm_report = None;
    let t0 = Instant::now();
    for _ in 0..ITERATIONS {
        let generator = CodeGenerator::with_shared_target(Arc::clone(&target))
            .options(options())
            .with_cache(Arc::clone(&cache));
        let (program, r) = generator.compile_function(&function).expect("warm compile");
        warm_asm = program.render(generator.target()).into_bytes();
        warm_report = Some(r);
    }
    let warm_ms = t0.elapsed().as_secs_f64() * 1e3 / f64::from(ITERATIONS);
    let warm_report = warm_report.expect("at least one iteration");

    // Restart: snapshot the primed cache once, then pay snapshot load +
    // all-hits compile per iteration — a persisted server's first
    // request after a restart.
    let snap = std::env::temp_dir().join(format!(
        "aviv_bench_serving_{}_{prog_name}_{machine_name}.avivcache",
        std::process::id()
    ));
    let _ = std::fs::remove_file(&snap);
    save_snapshot(&snap, &cache).expect("snapshot saves");
    let mut restart_asm = Vec::new();
    let mut restart_report = None;
    let t0 = Instant::now();
    for _ in 0..ITERATIONS {
        let restored = Arc::new(PlanCache::default());
        match load_snapshot(&snap, &restored).expect("snapshot reads") {
            LoadOutcome::Loaded { .. } => {}
            other => panic!("snapshot failed to restore: {other:?}"),
        }
        let generator = CodeGenerator::with_shared_target(Arc::clone(&target))
            .options(options())
            .with_cache(restored);
        let (program, r) = generator
            .compile_function(&function)
            .expect("restart compile");
        restart_asm = program.render(generator.target()).into_bytes();
        restart_report = Some(r);
    }
    let restart_ms = t0.elapsed().as_secs_f64() * 1e3 / f64::from(ITERATIONS);
    let restart_report = restart_report.expect("at least one iteration");
    let _ = std::fs::remove_file(&snap);

    PairResult {
        program: prog_name.to_string(),
        machine: machine_name.to_string(),
        blocks: report.blocks.len(),
        cold_ms,
        warm_ms,
        warm_hits: warm_report.cache_hits,
        warm_misses: warm_report.cache_misses,
        restart_ms,
        restart_hits: restart_report.cache_hits,
        restart_misses: restart_report.cache_misses,
        bytes_match: cold_asm == warm_asm && cold_asm == restart_asm,
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
        "\nmeans over {ITERATIONS} compiles; cold = fresh plan cache per \
         compile, warm = shared primed cache, restart = snapshot load + \
         all-hits compile."
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
