//! `serve-mixed`: an open loop at a fixed offered rate against the
//! release `avivd`, one connection per QoS class, latency timed from each
//! request's due time.

use crate::check::simulate;
use crate::inputs::{self, Rng};
use crate::replay::{self, BlockOutcome};
use crate::stats::{self, median, percentile};
use crate::trace::Tracer;
use crate::Outcome;
use aviv::jsonv::{self, Json};
use aviv::verify::validate_asm;
use aviv::{CodeGenerator, CodegenOptions, PlanCache};
use aviv_isdl::Target;
use std::collections::HashMap;
use std::fmt::Write as _;
use std::io::{BufRead, BufReader, ErrorKind, Write};
use std::os::unix::net::UnixStream;
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Offered rate on the interactive connection (repeats and edits). Low
/// enough that a warm request rarely queues behind an edit on its
/// in-order connection, so the warm percentiles stay off that boundary.
const INTERACTIVE_PER_S: f64 = 100.0;
/// Offered rate on the batch connection (fresh programs).
const BATCH_PER_S: f64 = 5.0;
/// Of interactive requests, this many in 95 are repeats; the rest edits.
const REPEATS_IN_95: usize = 80;
/// One repeat in this many asks for translation validation: enough that
/// `warm_latency_ms.p90` falls among validated requests rather than on
/// the boundary between them and the rest.
const VALIDATE_ONE_IN: usize = 4;
/// Multi-block programs in the warm working set.
const MULTIBLOCK_PROGRAMS: usize = 6;
/// Start-ups per run; `setup_s` is their median.
const SETUPS: usize = 5;
/// A run whose sender was later than this at p99 fell behind and is
/// invalid. An idle sleep loop on a 2-vCPU VM already shows p99 7 ms and
/// max 22 ms of wake-up lateness from the host; falling behind the
/// schedule shows as far more.
const LATE_LIMIT_MS: f64 = 50.0;
/// Interval of `stats` probes in the traced run.
const STATS_EVERY: Duration = Duration::from_millis(50);

/// One compilable program: machine and program source bytes.
struct Program {
    name: String,
    machine_src: Arc<str>,
    program_src: String,
    args: Vec<i64>,
}

#[derive(Clone, Copy, PartialEq, Eq)]
enum Kind {
    /// A warm program again: every block hits.
    Repeat,
    /// A warm multi-block program with one block edited.
    Edit,
    /// A program never seen before: every block misses.
    Fresh,
    /// A `stats` probe (traced run only).
    Stats,
}

struct Request {
    due: Duration,
    kind: Kind,
    program: usize,
    validate: bool,
    line: String,
}

struct Response {
    latency_ms: f64,
    late_ms: f64,
    body: String,
}

/// A multi-block function on a fixed shape: `SEGMENTS` segments, each a
/// straight-line block, a conditional skip over a one-statement block,
/// and a label. `side[s]` is the constant of segment `s`'s one-statement
/// block, so changing it edits exactly that block.
#[derive(Clone)]
struct Shape {
    ops: Vec<[char; 4]>,
    consts: Vec<[i64; 3]>,
    side: Vec<i64>,
}

const SEGMENTS: usize = 3;

impl Shape {
    /// Skeleton `skeleton` (its operators, the same for every seed) with
    /// constants drawn from `rng`, so programs differ by seed while their
    /// cost stays put.
    fn new(skeleton: usize, rng: &mut Rng) -> Shape {
        let mut ops_rng = Rng::new(skeleton as u64);
        let mut op = || ['+', '-', '*'][ops_rng.below(3)];
        Shape {
            ops: (0..SEGMENTS).map(|_| [op(), op(), op(), op()]).collect(),
            consts: (0..SEGMENTS)
                .map(|_| [rng.range(2, 9), rng.range(2, 9), rng.range(0, 9)])
                .collect(),
            side: (0..SEGMENTS).map(|_| rng.range(1, 9)).collect(),
        }
    }

    fn source(&self, name: &str) -> String {
        let mut s =
            format!("func {name}(a, b, c, d) {{\n    x = a + b;\n    y = c - d;\n    z = a * d;\n");
        let vars = ["x", "y", "z"];
        for seg in 0..SEGMENTS {
            let (o, k) = (self.ops[seg], self.consts[seg]);
            let v = |i: usize| vars[(seg + i) % 3];
            let _ = writeln!(
                s,
                "    {} = {} {} {} {} {};",
                v(0),
                v(1),
                o[0],
                v(2),
                o[1],
                k[0]
            );
            let _ = writeln!(
                s,
                "    {} = {} {} {} {} {};",
                v(1),
                v(0),
                o[2],
                v(2),
                o[3],
                k[1]
            );
            let _ = writeln!(s, "    if ({} >= {}) goto s{seg};", v(1), k[2]);
            let _ = writeln!(s, "    {} = {} + {};", v(2), v(2), self.side[seg]);
            let _ = writeln!(s, "s{seg}:");
        }
        s.push_str("    return x + y + z;\n}\n");
        s
    }
}

/// Workload inputs: the warm working set, and the request schedule.
struct Workload {
    programs: Vec<Program>,
    warm: usize,
    requests: Vec<Request>,
}

fn workload(root: &Path, seed: u64, seconds: f64, stats_probes: bool) -> Workload {
    let mut rng = Rng::new(seed ^ 0x5E7E);
    let mut programs: Vec<Program> = inputs::kernel_sweep(root, seed)
        .into_iter()
        .map(|p| Program {
            name: p.name,
            machine_src: p.machine_src.into(),
            program_src: p.program_src,
            args: p.args,
        })
        .collect();
    let machines: Vec<Arc<str>> = ["fig3", "archII", "dsp_mac"]
        .iter()
        .map(|m| {
            std::fs::read_to_string(root.join(format!("assets/{m}.isdl")))
                .expect("bundled machines are readable")
                .into()
        })
        .collect();
    let args = |rng: &mut Rng| (0..4).map(|_| rng.range(-20, 20)).collect::<Vec<_>>();
    let mut shapes = Vec::new();
    for i in 0..MULTIBLOCK_PROGRAMS {
        let shape = Shape::new(i, &mut rng);
        programs.push(Program {
            name: format!("mb{i}"),
            machine_src: Arc::clone(&machines[i % machines.len()]),
            program_src: shape.source(&format!("mb{i}")),
            args: args(&mut rng),
        });
        shapes.push(shape);
    }
    let warm = programs.len();

    let mut requests = Vec::new();
    let interactive = (seconds * INTERACTIVE_PER_S) as usize;
    for i in 0..interactive {
        let due = Duration::from_secs_f64(i as f64 / INTERACTIVE_PER_S);
        let (kind, program, validate) = if rng.below(95) < REPEATS_IN_95 {
            (
                Kind::Repeat,
                rng.below(warm),
                rng.below(VALIDATE_ONE_IN) == 0,
            )
        } else {
            let which = rng.below(MULTIBLOCK_PROGRAMS);
            let warm_idx = warm - MULTIBLOCK_PROGRAMS + which;
            let mut shape = shapes[which].clone();
            // A constant no other request uses: this block misses, the
            // function's other blocks hit.
            shape.side[rng.below(SEGMENTS)] = 100 + i as i64;
            programs.push(Program {
                name: format!("mb{which}+edit{i}"),
                machine_src: Arc::clone(&programs[warm_idx].machine_src),
                program_src: shape.source(&format!("mb{which}")),
                args: programs[warm_idx].args.clone(),
            });
            (Kind::Edit, programs.len() - 1, false)
        };
        requests.push(Request {
            due,
            kind,
            program,
            validate,
            line: String::new(),
        });
    }
    let batch = (seconds * BATCH_PER_S) as usize;
    for j in 0..batch {
        let due = Duration::from_secs_f64((j as f64 + 0.5) / BATCH_PER_S);
        let shape = Shape::new(j % MULTIBLOCK_PROGRAMS, &mut rng);
        let name = format!("fresh{j}");
        programs.push(Program {
            program_src: shape.source(&name),
            name,
            machine_src: Arc::clone(&machines[j % machines.len()]),
            args: args(&mut rng),
        });
        requests.push(Request {
            due,
            kind: Kind::Fresh,
            program: programs.len() - 1,
            validate: false,
            line: String::new(),
        });
    }
    if stats_probes {
        let probes = (seconds / STATS_EVERY.as_secs_f64()) as u32;
        for k in 0..probes {
            requests.push(Request {
                due: STATS_EVERY * k + STATS_EVERY / 2,
                kind: Kind::Stats,
                program: 0,
                validate: false,
                line: String::new(),
            });
        }
    }
    requests.sort_by_key(|r| r.due);
    for (id, r) in requests.iter_mut().enumerate() {
        r.line = if r.kind == Kind::Stats {
            format!("{{\"id\":{id},\"op\":\"stats\"}}\n")
        } else {
            compile_line(id, &programs[r.program], r.kind == Kind::Fresh, r.validate)
        };
    }
    Workload {
        programs,
        warm,
        requests,
    }
}

fn compile_line(id: usize, p: &Program, batch: bool, validate: bool) -> String {
    let qos = if batch { "batch" } else { "interactive" };
    let mut line = format!(
        "{{\"id\":{id},\"op\":\"compile\",\"qos\":\"{qos}\",\"machine\":\"{}\",\"program\":\"{}\"",
        jsonv::escape(&p.machine_src),
        jsonv::escape(&p.program_src)
    );
    if validate {
        line.push_str(",\"validate\":true");
    }
    line.push_str("}\n");
    line
}

/// A running `avivd`; killed and reaped on drop unless shut down.
struct Daemon {
    child: Child,
    socket: PathBuf,
    conns: [UnixStream; 2],
}

impl Daemon {
    fn start(avivd: &str, socket: &Path) -> Result<Daemon, String> {
        let _ = std::fs::remove_file(socket);
        let child = Command::new(avivd)
            .arg("--socket")
            .arg(socket)
            .args(["--workers", "1"])
            .stdin(Stdio::null())
            .stdout(Stdio::null())
            .spawn()
            .map_err(|e| format!("starting {avivd}: {e}"))?;
        let mut d = Daemon {
            child,
            socket: socket.to_path_buf(),
            conns: [connect(socket)?, connect(socket)?],
        };
        // `connect` retries until the socket exists; a dead child means
        // a stale socket answered.
        if let Ok(Some(status)) = d.child.try_wait() {
            return Err(format!("avivd exited early: {status}"));
        }
        for c in &mut d.conns {
            c.set_read_timeout(Some(Duration::from_secs(60)))
                .map_err(|e| e.to_string())?;
        }
        Ok(d)
    }

    fn pid(&self) -> String {
        self.child.id().to_string()
    }

    /// One request, one response, on connection `conn`.
    fn call(&mut self, conn: usize, line: &str) -> Result<Json, String> {
        let c = &mut self.conns[conn];
        c.write_all(line.as_bytes()).map_err(|e| e.to_string())?;
        let mut buf = Vec::new();
        BufReader::new(&*c)
            .read_until(b'\n', &mut buf)
            .map_err(|e| e.to_string())?;
        let text = String::from_utf8(buf).map_err(|e| e.to_string())?;
        jsonv::parse(text.trim_end()).map_err(|e| format!("response: {e}"))
    }

    /// Graceful shutdown: `avivd` answers, removes its socket and exits.
    fn shutdown(mut self) -> Result<(), String> {
        let r = self.call(0, "{\"op\":\"shutdown\"}\n")?;
        if r.get("ok").and_then(Json::as_bool) != Some(true) {
            return Err("shutdown refused".into());
        }
        let status = self.child.wait().map_err(|e| e.to_string())?;
        if !status.success() {
            return Err(format!("avivd exited with {status}"));
        }
        Ok(())
    }
}

impl Drop for Daemon {
    fn drop(&mut self) {
        if let Ok(None) = self.child.try_wait() {
            let _ = self.child.kill();
            let _ = self.child.wait();
        }
        let _ = std::fs::remove_file(&self.socket);
    }
}

fn connect(socket: &Path) -> Result<UnixStream, String> {
    let deadline = Instant::now() + Duration::from_secs(20);
    loop {
        match UnixStream::connect(socket) {
            Ok(s) => return Ok(s),
            Err(_) if Instant::now() < deadline => std::thread::sleep(Duration::from_millis(2)),
            Err(e) => return Err(format!("connecting to avivd: {e}")),
        }
    }
}

/// Start `avivd` and compile the warm working set through it.
fn start_primed(avivd: &str, socket: &Path, w: &Workload) -> Result<Daemon, String> {
    let mut d = Daemon::start(avivd, socket)?;
    for (i, p) in w.programs[..w.warm].iter().enumerate() {
        let r = d.call(0, &compile_line(i, p, false, false))?;
        if r.get("ok").and_then(Json::as_bool) != Some(true) {
            return Err(format!("priming {}: {r:?}", p.name));
        }
    }
    Ok(d)
}

/// Read one response per entry of `dues` from `conn`, timing each from
/// its request's due time.
fn read_responses(
    conn: UnixStream,
    dues: &[Duration],
    start: Instant,
) -> std::io::Result<Vec<(f64, String)>> {
    let mut reader = BufReader::new(conn);
    let mut out = Vec::with_capacity(dues.len());
    for &due in dues {
        let mut line = String::new();
        if reader.read_line(&mut line)? == 0 {
            return Err(ErrorKind::UnexpectedEof.into());
        }
        let latency = Instant::now().saturating_duration_since(start + due);
        out.push((latency.as_secs_f64() * 1e3, line));
    }
    Ok(out)
}

/// Run the open loop: this thread sends every request at its due time
/// on its class's connection, one reader thread per connection collects
/// the responses. Returns the responses in request order.
fn open_loop(d: &Daemon, w: &Workload) -> Result<Vec<Response>, String> {
    let conn_of = |r: &Request| usize::from(r.kind == Kind::Fresh);
    let clone = |i: usize| d.conns[i].try_clone().map_err(|e| e.to_string());
    let mut writers = [clone(0)?, clone(1)?];
    let readers = [clone(0)?, clone(1)?];
    let dues: [Vec<Duration>; 2] = [0, 1].map(|c| {
        w.requests
            .iter()
            .filter(|r| conn_of(r) == c)
            .map(|r| r.due)
            .collect()
    });
    let start = Instant::now() + Duration::from_millis(20);
    let (late, received) = std::thread::scope(|s| {
        let handles = readers
            .into_iter()
            .zip(&dues)
            .map(|(conn, dues)| s.spawn(move || read_responses(conn, dues, start)))
            .collect::<Vec<_>>();
        let mut late = Vec::with_capacity(w.requests.len());
        let mut sent = Ok(());
        for r in &w.requests {
            let due = start + r.due;
            let now = Instant::now();
            if due > now {
                std::thread::sleep(due - now);
            }
            late.push(Instant::now().duration_since(due).as_secs_f64() * 1e3);
            sent = writers[conn_of(r)].write_all(r.line.as_bytes());
            if sent.is_err() {
                // Unblock the readers before reporting the failure.
                for c in &d.conns {
                    let _ = c.shutdown(std::net::Shutdown::Both);
                }
                break;
            }
        }
        let received: Vec<_> = handles.into_iter().map(|h| h.join()).collect();
        (sent.map(|()| late), received)
    });
    let late = late.map_err(|e| format!("sending: {e}"))?;
    let mut per_conn = Vec::new();
    for r in received {
        let r = r.map_err(|_| "reader thread panicked")?;
        per_conn.push(r.map_err(|e| format!("reading: {e}"))?.into_iter());
    }
    Ok(w.requests
        .iter()
        .zip(late)
        .map(|(r, late_ms)| {
            let (latency_ms, body) = per_conn[conn_of(r)]
                .next()
                .expect("one response per request");
            Response {
                latency_ms,
                late_ms,
                body,
            }
        })
        .collect())
}

/// What the open loop saw, for the traced run's comparison.
struct Observed {
    /// Correct responses per second.
    throughput: f64,
    /// Latency of every compile request, in request order.
    all: Vec<f64>,
    /// Latency of every all-hit compile request.
    warm: Vec<f64>,
    /// Latency of every compile request with at least one miss.
    cold: Vec<f64>,
    late_p99: f64,
    /// `queued` of every `stats` probe.
    queued: Vec<f64>,
}

/// What a compile response said.
struct Answer {
    asm: String,
    misses: u64,
    instructions: u64,
}

/// Check one compile response: `ok`, `complete`, validated when asked.
fn answer(body: &str, validate: bool) -> Result<Answer, String> {
    let r = jsonv::parse(body.trim_end()).map_err(|e| format!("response: {e}"))?;
    if r.get("ok").and_then(Json::as_bool) != Some(true) {
        let why = r.get("error").and_then(Json::as_str).unwrap_or("?");
        let refused = r.get("retry_after_ms").is_some() || r.get("cancelled").is_some();
        return Err(format!("not ok (refused or cancelled: {refused}): {why}"));
    }
    if r.get("complete").and_then(Json::as_bool) != Some(true) {
        return Err("compile incomplete".into());
    }
    if validate && r.get("validated").and_then(Json::as_bool) != Some(true) {
        return Err("validation requested but not reported".into());
    }
    Ok(Answer {
        asm: r
            .get("asm")
            .and_then(Json::as_str)
            .ok_or("no asm")?
            .to_string(),
        misses: r
            .get("cache_misses")
            .and_then(Json::as_u64)
            .ok_or("no cache_misses")?,
        instructions: r
            .get("instructions")
            .and_then(Json::as_u64)
            .ok_or("no instructions")?,
    })
}

/// Reference results per request, from an in-process pass in request
/// order against a plan cache primed with the warm set: bytes that must
/// equal `aviv_cli::drive`'s, and the counts the end-to-end metrics use.
struct Reference {
    asm: Vec<String>,
    /// Per request: node expansions of the blocks it had to plan.
    expansions: Vec<u64>,
    instructions: Vec<u64>,
    cycles: Vec<u64>,
    /// Per request, per block: the `BlockReport` of a planned block.
    planned: Vec<Vec<Option<(u64, usize, usize)>>>,
    /// Allocation calls of each request's in-process compile.
    allocs: Vec<u64>,
    /// In-process compile time per request, in ms.
    compile_ms: Vec<f64>,
}

impl Reference {
    /// Everything but the times, for the exact-repeat check.
    fn counts(&self) -> impl PartialEq + '_ {
        (
            &self.asm,
            &self.expansions,
            &self.instructions,
            &self.cycles,
            &self.planned,
            &self.allocs,
        )
    }
}

fn reference(w: &Workload) -> Result<Reference, String> {
    let options = CodegenOptions::heuristics_on().with_jobs(1);
    let cache = Arc::new(PlanCache::default());
    let mut targets = HashMap::new();
    // Per distinct program: instructions and simulated cycles.
    let mut by_program: HashMap<usize, (u64, u64)> = HashMap::new();
    let cli = crate::sweep::cli_options("on");
    let mut r = Reference {
        asm: Vec::new(),
        expansions: Vec::new(),
        instructions: Vec::new(),
        cycles: Vec::new(),
        planned: Vec::new(),
        allocs: Vec::new(),
        compile_ms: Vec::new(),
    };
    let warm = (0..w.warm).map(|p| (p, false));
    let live = w
        .requests
        .iter()
        .filter(|q| q.kind != Kind::Stats)
        .map(|q| (q.program, true));
    for (pi, record) in warm.chain(live) {
        let p = &w.programs[pi];
        let target = replay::target_for(&mut targets, &p.machine_src)
            .map_err(|e| format!("{}: {e}", p.name))?;
        let allocs = crate::alloc::counts().0;
        let t0 = Instant::now();
        let f = aviv_ir::parse_function(&p.program_src).map_err(|e| format!("{}: {e}", p.name))?;
        let (program, report) = CodeGenerator::with_shared_target(Arc::clone(&target))
            .options(options.clone())
            .with_cache(Arc::clone(&cache))
            .compile_function(&f)
            .map_err(|e| format!("{}: {e}", p.name))?;
        let asm = program.render(&target);
        let ms = t0.elapsed().as_secs_f64() * 1e3;
        let allocs = crate::alloc::counts().0 - allocs;
        if let std::collections::hash_map::Entry::Vacant(slot) = by_program.entry(pi) {
            let driven = aviv_cli::drive(&cli, &p.machine_src, &p.program_src)
                .map_err(|e| format!("{}: {e}", p.name))?;
            if driven.output != asm.as_bytes() {
                return Err(format!(
                    "{}: cached compile differs from aviv_cli::drive",
                    p.name
                ));
            }
            let cycles =
                simulate(&f, &target, &program, &p.args).map_err(|e| format!("{}: {e}", p.name))?;
            slot.insert((report.total_instructions as u64, cycles));
        }
        if record {
            let (instructions, cycles) = &by_program[&pi];
            r.expansions.push(
                report
                    .blocks
                    .iter()
                    .filter(|b| !b.cached)
                    .map(|b| b.node_expansions)
                    .sum(),
            );
            r.planned.push(
                report
                    .blocks
                    .iter()
                    .map(|b| (!b.cached).then_some((b.node_expansions, b.spills, b.instructions)))
                    .collect(),
            );
            r.instructions.push(*instructions);
            r.cycles.push(*cycles);
            r.asm.push(asm);
            r.compile_ms.push(ms);
            r.allocs.push(allocs);
        }
    }
    Ok(r)
}

/// Run `serve-mixed`: timed (`trace` false) or traced.
pub fn run(
    root: &Path,
    avivd: &str,
    seed: u64,
    seconds: f64,
    trace: bool,
    spans: &Path,
) -> Outcome {
    let mut out = Outcome::default();
    if avivd.is_empty() {
        return out.fail("serve-mixed needs --avivd <path>".into());
    }
    let w = workload(root, seed, seconds, trace);
    let socket = PathBuf::from(format!(".bench_run/avivd-{}.sock", std::process::id()));

    let mut setup_times = Vec::new();
    let mut daemon = None;
    for _ in 0..SETUPS {
        if let Some(d) = daemon.take() {
            if let Err(e) = Daemon::shutdown(d) {
                return out.fail(e);
            }
        }
        let t = Instant::now();
        match start_primed(avivd, &socket, &w) {
            Ok(d) => daemon = Some(d),
            Err(e) => return out.fail(e),
        }
        setup_times.push(t.elapsed().as_secs_f64());
        if trace {
            break;
        }
    }
    let d = daemon.expect("a primed daemon");
    let responses = match open_loop(&d, &w) {
        Ok(r) => r,
        Err(e) => return out.fail(e),
    };
    let rss = stats::peak_rss_mb(&d.pid()).unwrap_or(0.0);
    if let Err(e) = d.shutdown() {
        out.note_error(e);
    }

    // Exact-repeat check: the reference pass twice from the same state.
    let reference = match (reference(&w), reference(&w)) {
        (Ok(a), Ok(b)) if a.counts() == b.counts() => a,
        (Ok(_), Ok(_)) => {
            return out.fail("exact-repeat check: two reference passes differ".into())
        }
        (Err(e), _) | (_, Err(e)) => return out.fail(e),
    };
    let late: Vec<f64> = responses.iter().map(|r| r.late_ms).collect();
    let late_p99 = percentile(&late, 99.0);
    if late_p99 > LATE_LIMIT_MS {
        out.note_error(format!(
            "invalid run: sender lateness p99 {late_p99:.2} ms exceeds {LATE_LIMIT_MS} ms"
        ));
    }

    let (mut all, mut warm, mut cold, mut queued) =
        (Vec::new(), Vec::new(), Vec::new(), Vec::new());
    let mut ri = 0;
    for (q, resp) in w.requests.iter().zip(&responses) {
        if q.kind == Kind::Stats {
            match jsonv::parse(resp.body.trim_end())
                .ok()
                .and_then(|j| j.get("queued").and_then(Json::as_f64))
            {
                Some(v) => queued.push(v),
                None => out.note_error("stats probe without `queued`".into()),
            }
            continue;
        }
        let ok = match answer(&resp.body, q.validate) {
            Ok(a) if a.asm != reference.asm[ri] => {
                out.note_error(format!(
                    "request {ri} ({}): bytes differ from aviv_cli::drive",
                    w.programs[q.program].name
                ));
                false
            }
            Ok(a) if a.instructions != reference.instructions[ri] => {
                out.note_error(format!("request {ri}: instruction count differs"));
                false
            }
            Ok(a) => {
                if a.misses == 0 { &mut warm } else { &mut cold }.push(resp.latency_ms);
                true
            }
            Err(e) => {
                out.note_error(format!(
                    "request {ri} ({}): {e}",
                    w.programs[q.program].name
                ));
                false
            }
        };
        out.tally(ok);
        all.push(resp.latency_ms);
        ri += 1;
    }
    let n = ri as f64;
    let window_s = responses
        .iter()
        .zip(&w.requests)
        .map(|(r, q)| q.due.as_secs_f64() + r.latency_ms / 1e3)
        .fold(0.0, f64::max);
    eprintln!(
        "{} requests ({} warm, {} cold), sender lateness p99 {late_p99:.3} ms",
        all.len(),
        warm.len(),
        cold.len()
    );

    if trace {
        let observed = Observed {
            throughput: (out.attempted - out.failed) as f64 / window_s,
            all,
            warm,
            cold,
            late_p99,
            queued,
        };
        return traced(out, &w, &reference, &observed, spans);
    }
    let mean = |v: &[u64]| v.iter().sum::<u64>() as f64 / n;
    let r = &mut out.report;
    r.add("setup_s", median(&setup_times), "s");
    r.add("search_expansions", mean(&reference.expansions), "count");
    r.add("code_instructions", mean(&reference.instructions), "count");
    r.add("code_cycles", mean(&reference.cycles), "count");
    r.add("heap_allocs", mean(&reference.allocs), "count");
    r.add("peak_rss_mb", rss, "MB");
    let success = out.success_ratio();
    out.report.add("success_ratio", success, "ratio");
    out
}

/// The traced run's second half: the same requests replayed in-process,
/// in request order, against a plan cache primed with the warm set.
fn traced(
    mut out: Outcome,
    w: &Workload,
    reference: &Reference,
    observed: &Observed,
    spans: &Path,
) -> Outcome {
    let mut tr = Tracer::new(replay::COUNT_NAMES);
    let mut first = None;
    let mut replay_ms = Vec::new();
    // Requests whose blocks all hit, by the reference pass.
    let warm: std::collections::HashSet<u64> = (0..reference.planned.len())
        .filter(|&i| reference.planned[i].iter().all(Option::is_none))
        .map(|i| i as u64)
        .collect();
    let mut cache = None;
    // Exact-repeat check: the whole sequence twice from the same state.
    for attempt in 0..2 {
        tr.clear();
        match replay_requests(&mut tr, w, reference) {
            Ok((ms, c)) => {
                replay_ms = ms;
                cache = Some(c);
            }
            Err(e) => return out.fail(e),
        }
        let layers: Vec<_> = tr
            .layers(|_| true)
            .into_iter()
            .map(|(l, t)| (l, t.calls, t.self_allocs))
            .collect();
        let key = (layers, tr.counts().clone());
        if attempt == 0 {
            first = Some(key);
        } else if first.as_ref() != Some(&key) {
            return out.fail("exact-repeat check: per-layer calls, allocations or counts differ between two replays".into());
        }
    }
    if let Err(e) = tr.write(spans) {
        out.note_error(format!("writing spans: {e}"));
    }
    let n = replay_ms.len() as f64;
    crate::layer_metrics(&mut out.report, &tr, n);
    eprintln!(
        "cover share of self time: {:.1} % over all requests, {:.1} % over warm requests",
        100.0 * tr.share("cover", |_| true),
        100.0 * tr.share("cover", |op| warm.contains(&op))
    );
    let cache = cache.expect("a replay ran");
    let counts = tr.counts();
    let wait: Vec<f64> = observed
        .all
        .iter()
        .zip(&replay_ms)
        .map(|(l, r)| l - r)
        .collect();
    let r = &mut out.report;
    r.add(
        "cache.hit_ratio",
        counts["cache.hits"] / counts["cache.lookups"],
        "ratio",
    );
    r.add("cache.entries", cache.len() as f64, "count");
    r.add("cache.evictions", cache.stats().evictions as f64, "count");
    r.add("serve.wait_ms.p50", median(&wait), "ms");
    r.add("serve.wait_ms.p99", percentile(&wait, 99.0), "ms");
    let queued = &observed.queued;
    r.add(
        "serve.queued",
        queued.iter().sum::<f64>() / queued.len().max(1) as f64,
        "count",
    );
    r.add("harness.late_ms.p99", observed.late_p99, "ms");
    let o = observed;
    crate::wall_metrics(r, o.throughput, &o.all, &o.warm, &o.cold);
    let plain: f64 = reference.compile_ms.iter().sum();
    r.add(
        "trace.overhead_ratio",
        replay_ms.iter().sum::<f64>() / plain,
        "ratio",
    );
    out
}

/// Replay every compile request through the stage functions; returns
/// per-request replay time in ms and the replay's plan cache.
fn replay_requests(
    tr: &mut Tracer,
    w: &Workload,
    reference: &Reference,
) -> Result<(Vec<f64>, PlanCache), String> {
    let options = CodegenOptions::heuristics_on().with_jobs(1);
    let cache = Arc::new(PlanCache::default());
    let mut targets: HashMap<u64, Arc<Target>> = HashMap::new();
    // Prime as the set-up did, untraced.
    for p in &w.programs[..w.warm] {
        let target = replay::target_for(&mut targets, &p.machine_src)?;
        let f = aviv_ir::parse_function(&p.program_src).map_err(|e| e.to_string())?;
        CodeGenerator::with_shared_target(target)
            .options(options.clone())
            .with_cache(Arc::clone(&cache))
            .compile_function(&f)
            .map_err(|e| e.to_string())?;
    }
    let mut times = Vec::new();
    for (ri, q) in w
        .requests
        .iter()
        .filter(|q| q.kind != Kind::Stats)
        .enumerate()
    {
        tr.set_op(ri as u64);
        let t = Instant::now();
        let req = tr
            .span("jsonv", || jsonv::parse(q.line.trim_end()))
            .map_err(|e| format!("request: {e}"))?;
        let machine_src = req
            .get("machine")
            .and_then(Json::as_str)
            .ok_or("no machine")?;
        let program_src = req
            .get("program")
            .and_then(Json::as_str)
            .ok_or("no program")?;
        tr.begin("isdl");
        let target = replay::target_for(&mut targets, machine_src);
        tr.end();
        let target = target?;
        tr.begin("ir");
        let parsed = aviv_ir::parse_function(program_src).map(|f| {
            let g = replay::eliminate_dead_code(&f, &options);
            (f, g)
        });
        tr.end();
        let (f, g) = parsed.map_err(|e| e.to_string())?;
        let (asm, outcomes) = replay::replay_function(tr, &target, &g, &options, Some(&cache))?;
        if q.validate {
            let tv = tr.span("tv", || validate_asm(&f, &asm, &target.machine));
            tr.count("tv.obligations", tv.obligations as f64);
            if !tv.ok() {
                return Err(format!("request {ri}: replayed assembly fails validation"));
            }
        }
        tr.span("jsonv", || {
            let body = format!(
                "{{\"id\":{ri},\"ok\":true,\"op\":\"compile\",\"asm\":\"{}\"}}",
                jsonv::escape(&asm)
            );
            jsonv::parse(&body).map(|_| ())
        })
        .map_err(|e| format!("response: {e}"))?;
        times.push(t.elapsed().as_secs_f64() * 1e3);
        if asm != reference.asm[ri] {
            return Err(format!(
                "request {ri}: replayed bytes differ from aviv_cli::drive"
            ));
        }
        check_planned(ri, &outcomes, &reference.planned[ri])?;
    }
    let cache = Arc::try_unwrap(cache).map_err(|_| "replay cache still shared")?;
    Ok((times, cache))
}

/// Replay faithfulness: the same blocks planned, with the same
/// expansions, spills and instructions as the reference `BlockReport`s.
fn check_planned(
    ri: usize,
    outcomes: &[Option<BlockOutcome>],
    planned: &[Option<(u64, usize, usize)>],
) -> Result<(), String> {
    let replayed: Vec<Option<(u64, usize, usize)>> = outcomes
        .iter()
        .map(|o| o.as_ref().map(|o| (o.expansions, o.spills, o.instructions)))
        .collect();
    if replayed != planned {
        return Err(format!(
            "request {ri}: replayed blocks {replayed:?} vs BlockReport {planned:?}"
        ));
    }
    Ok(())
}
