//! The repository benchmark: three workloads over the AVIV code
//! generator and the `avivd` server. A timed run reports the gated
//! end-to-end metrics (counts, set-up time, memory); a separate traced
//! run reports wall-clock figures and per-layer metrics. See `README.md`.
//!
//! ```text
//! perfbench --workload <sweep-kernels|sweep-exhaustive|serve-mixed>
//!           --seed <n> --seconds <s> --trace <0|1> --avivd <path>
//! ```
//!
//! Run from the repository root. The last stdout line is the result
//! object; diagnostics go to stderr.

mod alloc;
mod check;
mod inputs;
mod replay;
mod serve;
mod stats;
mod sweep;
mod trace;

#[global_allocator]
static GLOBAL: alloc::Counting = alloc::Counting;

use stats::Report;
use std::path::Path;
use std::process::ExitCode;

/// The layers a traced run reports, named after the repository's modules.
pub const LAYERS: &[&str] = &[
    "isdl",
    "ir",
    "splitdag",
    "assign",
    "covergraph",
    "cover",
    "regalloc",
    "peephole",
    "analyze",
    "cache",
    "codegen",
    "emit",
    "tv",
    "jsonv",
];

/// A run's verdict and metrics.
#[derive(Default)]
pub struct Outcome {
    pub report: Report,
    pub attempted: u64,
    pub failed: u64,
    /// Correctness failures; any makes the run incorrect.
    pub errors: Vec<String>,
}

impl Outcome {
    /// Count one attempted operation.
    pub fn tally(&mut self, ok: bool) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
        }
    }

    /// Record a correctness failure (the first few are printed).
    pub fn note_error(&mut self, e: String) {
        if self.errors.len() < 5 {
            eprintln!("error: {e}");
        }
        self.errors.push(e);
    }

    /// Give up on the run.
    pub fn fail(mut self, e: String) -> Outcome {
        self.note_error(e);
        self
    }

    pub fn success_ratio(&self) -> f64 {
        if self.attempted == 0 {
            return 0.0;
        }
        (self.attempted - self.failed) as f64 / self.attempted as f64
    }

    pub fn correct(&self) -> bool {
        self.errors.is_empty() && self.failed == 0 && self.attempted > 0
    }
}

/// Per-op self time, calls and allocations of every layer, plus every
/// count the replay records.
pub fn layer_metrics(report: &mut Report, tr: &trace::Tracer, ops: f64) {
    let layers = tr.layers(|_| true);
    for &layer in LAYERS {
        let t = layers.get(layer).copied().unwrap_or_default();
        report.add(
            format!("{layer}.self_us"),
            t.self_ns as f64 / 1e3 / ops,
            "us",
        );
        report.add(format!("{layer}.calls"), t.calls as f64 / ops, "count");
        report.add(
            format!("{layer}.allocs"),
            t.self_allocs as f64 / ops,
            "count",
        );
    }
    for (&name, &v) in tr.counts() {
        if !matches!(name, "cache.hits" | "cache.lookups") {
            report.add(name, v / ops, "count");
        }
    }
}

/// Wall-clock figures of a traced run, reported without a bound.
pub fn wall_metrics(report: &mut Report, throughput: f64, all: &[f64], warm: &[f64], cold: &[f64]) {
    report.add("wall.throughput_per_s", throughput, "1/s");
    for (name, samples) in [("latency_ms", all), ("warm_latency_ms", warm)] {
        for (q, p) in [("p50", 50.0), ("p90", 90.0), ("p99", 99.0)] {
            report.add(
                format!("wall.{name}.{q}"),
                stats::percentile(samples, p),
                "ms",
            );
        }
    }
    report.add("wall.cold_latency_ms.p50", stats::median(cold), "ms");
}

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
    avivd: String,
}

fn parse_args() -> Result<Args, String> {
    let mut a = Args {
        workload: String::new(),
        seed: 0,
        seconds: 10.0,
        trace: false,
        avivd: String::new(),
    };
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or(format!("{flag} needs a value"))?;
        let bad = || format!("bad value for {flag}: {value}");
        match flag.as_str() {
            "--workload" => a.workload = value.clone(),
            "--seed" => a.seed = value.parse().map_err(|_| bad())?,
            "--seconds" => a.seconds = value.parse().map_err(|_| bad())?,
            "--trace" => a.trace = value == "1",
            "--avivd" => a.avivd = value.clone(),
            other => return Err(format!("unknown flag {other}")),
        }
    }
    if a.workload.is_empty() {
        return Err("--workload is required".into());
    }
    Ok(a)
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::FAILURE;
        }
    };
    let root = Path::new(".");
    let scratch = root.join(".bench_run");
    if let Err(e) = std::fs::create_dir_all(&scratch) {
        eprintln!("perfbench: {}: {e}", scratch.display());
        return ExitCode::FAILURE;
    }
    let spans = scratch.join(format!("spans-{}-{}.jsonl", args.workload, args.seed));
    let outcome = if let Some(sweep) = sweep::Sweep::new(root, &args.workload, args.seed) {
        if args.trace {
            sweep::run_traced(&sweep, args.seconds, &spans)
        } else {
            sweep::run_timed(&sweep, args.seconds)
        }
    } else if args.workload == "serve-mixed" {
        serve::run(
            root,
            &args.avivd,
            args.seed,
            args.seconds,
            args.trace,
            &spans,
        )
    } else {
        eprintln!("perfbench: unknown workload {}", args.workload);
        return ExitCode::FAILURE;
    };
    let correct = outcome.correct();
    println!(
        "{}",
        outcome
            .report
            .result_line(correct, outcome.attempted.max(1), outcome.failed)
    );
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
