//! `avivd` — the serving layer: a long-running compile server answering
//! newline-delimited JSON requests from an incremental plan cache.
//!
//! One request per line in, one response per line out, in request order
//! regardless of how many workers race on the middle. The interesting
//! part is what *doesn't* recompute: every block plan is memoized in a
//! shared [`PlanCache`] keyed on `(block content hash, target
//! fingerprint, planning-options fingerprint)`, so a client recompiling
//! an edited program pays only for the blocks it actually changed — and
//! the served bytes are identical to a cold one-shot `avivc` compile at
//! any worker/job count (see `docs/serving.md` for the full contract).
//!
//! ```text
//! → {"op":"ping"}
//! ← {"ok":true,"op":"ping","protocol":2}
//! → {"id":1,"op":"compile","machine_path":"assets/fig3.isdl","program_path":"assets/dot4.av"}
//! ← {"id":1,"ok":true,"op":"compile","blocks":1,"cache_hits":0,"cache_misses":1,...,"asm":"..."}
//! → {"op":"stats"}
//! ← {"ok":true,"op":"stats","requests":2,"in_flight":0,...,"cache":{"hits":0,...}}
//! → {"op":"shutdown"}
//! ← {"ok":true,"op":"shutdown"}
//! ```
//!
//! Requests carry their own QoS: `preset`, `jobs`, `fuel`, `timeout_ms`,
//! and a `qos` class (`"interactive"`, the default, or `"batch"`) per
//! compile. Budgeted (incomplete) compiles still answer, but only
//! *complete* plans enter the cache, so a degraded response never
//! poisons later requests. A request may also set `"validate":true`
//! to run the translation validator on the rendered assembly — the
//! check runs on the final bytes, after any cache hits, so even a
//! corrupted cache entry is statically detectable.
//!
//! # Protocol v2: survival features
//!
//! * **Cancellation** — `{"op":"cancel","id":X}` fires the
//!   [`CancelToken`] of the in-flight (or queued) compile with id `X`;
//!   the compile aborts at its next budget check and answers
//!   `"ok":false,"cancelled":true`. A cancel for an id not yet seen is
//!   remembered, so a cancel that races ahead of its request still
//!   lands. Control ops take effect at *read* time — they work even
//!   while every worker is busy — but their responses still flow
//!   through the in-order pipeline.
//! * **Admission control** — at most `--queue-depth` compiles may be
//!   queued; beyond that requests are rejected immediately with
//!   `"ok":false,"retry_after_ms":N` instead of growing memory without
//!   bound. Queued compiles are scheduled fairly across QoS classes
//!   (round-robin between `interactive` and `batch`).
//! * **Persistence** — with `--persist <path>` the plan cache is
//!   snapshotted to disk (atomically: write-temp, fsync, rename) on
//!   graceful shutdown or on `{"op":"persist"}`, and restored on
//!   startup; a corrupt/truncated/stale snapshot is quarantined and the
//!   server starts cold. `--validate-on-load` forces translation
//!   validation on any compile served from restored entries.
//! * **Graceful shutdown** — `{"op":"shutdown"}` stops intake, answers
//!   everything already accepted (on every connection), persists the
//!   cache, then exits. A *dropped* connection instead cancels its
//!   in-flight compiles: read/write failures fire every token the
//!   session minted.

use aviv::jsonv::{self, Json};
use aviv::{
    load_snapshot, save_snapshot, CacheStats, CancelToken, CodeGenerator, CodegenError,
    CodegenOptions, FaultConfig, LoadOutcome, PlanCache,
};
use aviv_ir::parse_function;
use aviv_isdl::{parse_machine, Target};
use std::collections::{BTreeMap, HashMap, HashSet, VecDeque};
use std::fmt::Write as _;
use std::io::{self, BufRead, Write};
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{mpsc, Arc, Condvar, Mutex};
use std::time::{Duration, Instant};

/// Version of the request/response protocol, reported by `ping`.
pub const PROTOCOL_VERSION: u32 = 2;

/// Default bound on queued compile requests (see
/// [`ServeConfig::queue_depth`]).
pub const DEFAULT_QUEUE_DEPTH: usize = 256;

/// Bound on remembered early cancels (cancel requests that arrive
/// before the compile they name).
const PRECANCEL_CAPACITY: usize = 1024;

/// Server construction knobs (the `avivd` command line).
#[derive(Debug, Clone)]
pub struct ServeConfig {
    /// Request workers: 1 = handle requests sequentially (default),
    /// 0 = one per available core. Responses are always delivered in
    /// request order and are byte-identical for every value.
    pub workers: usize,
    /// Plan-cache capacity in block plans (see
    /// [`aviv::DEFAULT_CACHE_CAPACITY`]).
    pub cache_size: usize,
    /// Serve a Unix socket at this path instead of stdin/stdout.
    pub socket: Option<String>,
    /// Snapshot the plan cache to this file on graceful shutdown (and
    /// on `{"op":"persist"}`), restoring it on startup. See
    /// [`aviv::persist`](aviv::persist) for the format and recovery
    /// semantics.
    pub persist: Option<String>,
    /// Force translation validation on compiles served from entries
    /// restored out of a persisted snapshot.
    pub validate_on_load: bool,
    /// Bound on queued compile requests across all connections; beyond
    /// it requests are rejected with `retry_after_ms` backpressure.
    pub queue_depth: usize,
}

impl Default for ServeConfig {
    fn default() -> Self {
        ServeConfig {
            workers: 1,
            cache_size: aviv::DEFAULT_CACHE_CAPACITY,
            socket: None,
            persist: None,
            validate_on_load: false,
            queue_depth: DEFAULT_QUEUE_DEPTH,
        }
    }
}

impl ServeConfig {
    /// Parse the `avivd` argument vector (without the program name).
    ///
    /// # Errors
    ///
    /// Returns a [`CliError`](crate::CliError) describing the first
    /// problem; `--help` yields an error carrying [`SERVE_USAGE`].
    pub fn parse(args: &[String]) -> Result<ServeConfig, crate::CliError> {
        let mut config = ServeConfig::default();
        let mut it = args.iter();
        while let Some(a) = it.next() {
            match a.as_str() {
                "-h" | "--help" => return Err(crate::CliError(SERVE_USAGE.to_string())),
                "--workers" => {
                    let n = it
                        .next()
                        .ok_or_else(|| crate::CliError("--workers needs a count".into()))?;
                    config.workers = n
                        .parse()
                        .map_err(|_| crate::CliError(format!("bad worker count `{n}`")))?;
                }
                "--cache-size" => {
                    let n = it
                        .next()
                        .ok_or_else(|| crate::CliError("--cache-size needs a count".into()))?;
                    config.cache_size = n
                        .parse()
                        .map_err(|_| crate::CliError(format!("bad cache size `{n}`")))?;
                }
                "--queue-depth" => {
                    let n = it
                        .next()
                        .ok_or_else(|| crate::CliError("--queue-depth needs a count".into()))?;
                    config.queue_depth = n
                        .parse()
                        .map_err(|_| crate::CliError(format!("bad queue depth `{n}`")))?;
                }
                "--socket" => {
                    config.socket = Some(
                        it.next()
                            .ok_or_else(|| crate::CliError("--socket needs a path".into()))?
                            .clone(),
                    );
                }
                "--persist" => {
                    config.persist = Some(
                        it.next()
                            .ok_or_else(|| crate::CliError("--persist needs a path".into()))?
                            .clone(),
                    );
                }
                "--validate-on-load" => config.validate_on_load = true,
                other => {
                    return Err(crate::CliError(format!(
                        "unknown argument `{other}`\n{SERVE_USAGE}"
                    )))
                }
            }
        }
        Ok(config)
    }
}

/// Usage text for the `avivd` binary.
pub const SERVE_USAGE: &str = "\
usage: avivd [--workers <n>] [--cache-size <n>] [--queue-depth <n>]
             [--socket <path>] [--persist <path>] [--validate-on-load]

Long-running compile server. Reads one JSON request per line from
stdin (or the Unix socket given with --socket) and writes one JSON
response per line, in request order. See docs/serving.md for the
protocol (compile, cancel, persist, stats, ping, shutdown).

options:
  --workers <n>       request workers per connection (1 = sequential,
                      0 = one per core; default: 1). Responses are
                      identical and in request order for every value
  --cache-size <n>    plan-cache capacity in block plans
                      (default: 4096)
  --queue-depth <n>   bound on queued compile requests; beyond it
                      requests get \"retry_after_ms\" backpressure
                      (default: 256)
  --socket <path>     bind a Unix socket instead of stdin/stdout
                      (connections are served concurrently; the cache
                      is shared across all of them)
  --persist <path>    snapshot the plan cache to this file on
                      shutdown / {\"op\":\"persist\"}; restore it on
                      startup (corrupt snapshots are quarantined)
  --validate-on-load  re-prove restored cache entries through the
                      translation validator on first use
  -h, --help          this text
";

/// What [`Server::serve`] did: how many requests it answered and
/// whether a `shutdown` request ended the stream (as opposed to EOF).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ServeSummary {
    /// Responses written.
    pub requests: u64,
    /// True when a `shutdown` request ended the session.
    pub shutdown: bool,
}

/// A compile admitted past admission control, queued for a worker.
struct Job {
    seq: u64,
    id: String,
    key: Option<String>,
    generation: u64,
    token: CancelToken,
    req: Json,
}

#[derive(Default)]
struct DispatchState {
    interactive: VecDeque<Job>,
    batch: VecDeque<Job>,
    /// Fairness toggle: which class is next when both have work.
    serve_batch: bool,
    closed: bool,
}

/// The per-session compile queue: two QoS classes drained round-robin
/// by the worker pool.
struct Dispatch {
    state: Mutex<DispatchState>,
    cv: Condvar,
}

impl Dispatch {
    fn new() -> Dispatch {
        Dispatch {
            state: Mutex::new(DispatchState::default()),
            cv: Condvar::new(),
        }
    }

    fn push(&self, job: Job, batch: bool) {
        let mut st = lock_unpoisoned(&self.state);
        if batch {
            st.batch.push_back(job);
        } else {
            st.interactive.push_back(job);
        }
        drop(st);
        self.cv.notify_one();
    }

    fn close(&self) {
        lock_unpoisoned(&self.state).closed = true;
        self.cv.notify_all();
    }

    fn pop(&self) -> Option<Job> {
        let mut st = lock_unpoisoned(&self.state);
        loop {
            let job = if st.serve_batch {
                st.batch.pop_front().or_else(|| st.interactive.pop_front())
            } else {
                st.interactive.pop_front().or_else(|| st.batch.pop_front())
            };
            if let Some(job) = job {
                st.serve_batch = !st.serve_batch;
                return Some(job);
            }
            if st.closed {
                return None;
            }
            st = match self.cv.wait(st) {
                Ok(g) => g,
                Err(poisoned) => poisoned.into_inner(),
            };
        }
    }
}

/// How a compile request failed.
enum CompileFailure {
    /// The request's cancel token fired; answer `"cancelled":true`.
    Cancelled,
    /// Anything else, as a message for the `"error"` field.
    Message(String),
}

impl From<String> for CompileFailure {
    fn from(m: String) -> Self {
        CompileFailure::Message(m)
    }
}

/// The compile server: a shared [`PlanCache`], a memoized machine
/// table, the in-flight request registry, and the request pump. One
/// `Server` outlives any number of [`serve`](Server::serve) sessions —
/// the cache and registry are shared by every concurrent connection.
pub struct Server {
    cache: Arc<PlanCache>,
    /// Parsed machines memoized by source-text hash: repeat requests
    /// skip ISDL parsing and share one `Target` across workers.
    targets: Mutex<HashMap<u64, Arc<Target>>>,
    workers: usize,
    requests: AtomicU64,
    /// Snapshot file for [`aviv::persist`] (None = persistence off).
    persist: Option<PathBuf>,
    validate_on_load: bool,
    queue_depth: usize,
    /// Compiles admitted but not yet picked up by a worker.
    queued: AtomicUsize,
    /// Compiles currently executing.
    in_flight: AtomicUsize,
    /// Compile responses served with `"cancelled":true`.
    cancellations: AtomicU64,
    /// Generation counter distinguishing cancel tokens that share an id.
    generation: AtomicU64,
    /// Cancellable requests by canonical id; a `cancel` op fires every
    /// token under its id (queued or executing, any connection).
    inflight: Mutex<HashMap<String, Vec<(u64, CancelToken)>>>,
    /// Ids cancelled before their compile arrived (bounded).
    precancelled: Mutex<HashSet<String>>,
    /// Exponential moving average of compile wall time, in
    /// microseconds — the unit of `retry_after_ms` backpressure.
    ema_compile_us: AtomicU64,
    /// Serializes snapshot writes.
    persist_lock: Mutex<()>,
    /// Concurrent serve sessions (socket connections), for sizing the
    /// outer pool registration.
    active_sessions: AtomicUsize,
}

/// RAII count of live serve sessions.
struct SessionGuard<'a>(&'a Server);

impl<'a> SessionGuard<'a> {
    fn new(server: &'a Server) -> SessionGuard<'a> {
        server.active_sessions.fetch_add(1, Ordering::SeqCst);
        SessionGuard(server)
    }
}

impl Drop for SessionGuard<'_> {
    fn drop(&mut self) {
        self.0.active_sessions.fetch_sub(1, Ordering::SeqCst);
    }
}

impl Server {
    /// Build a server from `config` (`workers == 0` resolves to one
    /// per available core). With [`ServeConfig::persist`] set, restores
    /// the snapshot — a corrupt or stale file is quarantined (see
    /// [`aviv::persist::load_snapshot`]) and the server starts cold.
    pub fn new(config: &ServeConfig) -> Server {
        let workers = match config.workers {
            0 => std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get),
            n => n,
        };
        let server = Server {
            cache: Arc::new(PlanCache::new(config.cache_size)),
            targets: Mutex::new(HashMap::new()),
            workers,
            requests: AtomicU64::new(0),
            persist: config.persist.as_ref().map(PathBuf::from),
            validate_on_load: config.validate_on_load,
            queue_depth: config.queue_depth.max(1),
            queued: AtomicUsize::new(0),
            in_flight: AtomicUsize::new(0),
            cancellations: AtomicU64::new(0),
            generation: AtomicU64::new(0),
            inflight: Mutex::new(HashMap::new()),
            precancelled: Mutex::new(HashSet::new()),
            ema_compile_us: AtomicU64::new(0),
            persist_lock: Mutex::new(()),
            active_sessions: AtomicUsize::new(0),
        };
        if let Some(path) = &server.persist {
            match load_snapshot(path, &server.cache) {
                Ok(LoadOutcome::Missing) => {}
                Ok(LoadOutcome::Loaded { entries, absorbed }) => {
                    eprintln!(
                        "avivd: restored {absorbed}/{entries} cached plans from {}",
                        path.display()
                    );
                }
                Ok(LoadOutcome::Quarantined { reason, moved_to }) => {
                    let dest = moved_to
                        .as_ref()
                        .map_or_else(|| "left in place".to_string(), |p| p.display().to_string());
                    eprintln!(
                        "avivd: snapshot {} failed verification ({reason}); quarantined ({dest}); \
                         serving from cold",
                        path.display()
                    );
                }
                Err(e) => {
                    eprintln!(
                        "avivd: cannot read snapshot {}: {e}; serving from cold",
                        path.display()
                    );
                }
            }
        }
        server
    }

    /// The shared plan cache (for inspection in tests and stats).
    pub fn cache(&self) -> &Arc<PlanCache> {
        &self.cache
    }

    /// Resolved worker count.
    pub fn workers(&self) -> usize {
        self.workers
    }

    /// Snapshot the plan cache to the configured `--persist` path,
    /// returning how many entries were written. Saves are serialized
    /// and atomic (write-temp, fsync, rename).
    ///
    /// # Errors
    ///
    /// A message when persistence is not configured or the write
    /// fails; the previous snapshot (if any) survives intact.
    pub fn persist_now(&self) -> Result<usize, String> {
        let Some(path) = &self.persist else {
            return Err("persistence is not configured (start avivd with --persist)".into());
        };
        let _guard = lock_unpoisoned(&self.persist_lock);
        save_snapshot(path, &self.cache).map_err(|e| format!("persist to {}: {e}", path.display()))
    }

    /// Pump requests from `reader` to `writer` until EOF or a
    /// `shutdown` request. Responses are written in request order and
    /// flushed per line; compiles are answered by a pool of
    /// [`workers`](Server::workers) behind a reorder buffer, while
    /// control ops (`ping`, `stats`, `cancel`, `persist`, `shutdown`)
    /// take effect the moment they are read — a `cancel` lands even
    /// when every worker is busy.
    ///
    /// EOF is graceful: everything already read is answered before the
    /// session ends. Read or write *errors* are treated as a dropped
    /// connection: every compile this session admitted is cancelled.
    ///
    /// # Errors
    ///
    /// Propagates I/O errors from the reader or writer. Malformed
    /// requests are *not* errors — they get an `"ok":false` response.
    pub fn serve<R: BufRead, W: Write + Send>(
        &self,
        reader: R,
        mut writer: W,
    ) -> io::Result<ServeSummary> {
        let _session = SessionGuard::new(self);
        let dispatch = Dispatch::new();
        let (out_tx, out_rx) = mpsc::channel::<(u64, String, bool)>();
        // Every token this session minted, so a dropped connection can
        // abort them all.
        let session_tokens: Mutex<Vec<CancelToken>> = Mutex::new(Vec::new());

        std::thread::scope(|s| {
            let dispatch = &dispatch;
            let session_tokens = &session_tokens;
            for _ in 0..self.workers {
                let tx = out_tx.clone();
                s.spawn(move || {
                    // Tell nested per-block pools how wide the outer
                    // pool is — workers × live connections — so
                    // concurrent sessions never oversubscribe the
                    // machine (see aviv::register_outer_pool).
                    let sessions = self.active_sessions.load(Ordering::SeqCst).max(1);
                    aviv::register_outer_pool(self.workers * sessions);
                    while let Some(job) = dispatch.pop() {
                        self.queued.fetch_sub(1, Ordering::SeqCst);
                        self.in_flight.fetch_add(1, Ordering::SeqCst);
                        let started = Instant::now();
                        let body = self.compile_job(&job);
                        self.in_flight.fetch_sub(1, Ordering::SeqCst);
                        self.update_ema(started.elapsed());
                        self.retire(job.key.as_deref(), job.generation);
                        if tx.send((job.seq, body, false)).is_err() {
                            break;
                        }
                    }
                });
            }

            let drain = s.spawn(move || -> io::Result<ServeSummary> {
                let mut pending: BTreeMap<u64, (String, bool)> = BTreeMap::new();
                let mut next = 0u64;
                let mut summary = ServeSummary {
                    requests: 0,
                    shutdown: false,
                };
                while let Ok((seq, body, shutdown)) = out_rx.recv() {
                    pending.insert(seq, (body, shutdown));
                    while let Some((body, shutdown)) = pending.remove(&next) {
                        if let Err(e) = writeln!(writer, "{body}").and_then(|()| writer.flush()) {
                            // The connection is gone: abort every
                            // compile this session still has in
                            // flight, then surface the error.
                            for t in lock_unpoisoned(session_tokens).iter() {
                                t.cancel();
                            }
                            return Err(e);
                        }
                        next += 1;
                        summary.requests += 1;
                        summary.shutdown |= shutdown;
                    }
                }
                Ok(summary)
            });

            let mut seq = 0u64;
            let mut read_error = None;
            for line in reader.lines() {
                let line = match line {
                    Ok(l) => l,
                    Err(e) => {
                        read_error = Some(e);
                        break;
                    }
                };
                if line.trim().is_empty() {
                    continue;
                }
                let my_seq = seq;
                seq += 1;
                let stop = self.ingest(my_seq, &line, dispatch, &out_tx, session_tokens);
                if stop {
                    break;
                }
            }
            if read_error.is_some() {
                // Dropped connection: abort, don't just drain.
                for t in lock_unpoisoned(session_tokens).iter() {
                    t.cancel();
                }
            }
            dispatch.close();
            drop(out_tx);

            let summary = drain
                .join()
                .unwrap_or_else(|_| Err(io::Error::other("response writer panicked")))?;
            match read_error {
                Some(e) => Err(e),
                None => Ok(summary),
            }
        })
    }

    /// Process one request line at read time: answer control ops
    /// inline (through the in-order output channel), enqueue compiles
    /// past admission control. Returns `true` when intake must stop
    /// (a `shutdown` request).
    fn ingest(
        &self,
        seq: u64,
        line: &str,
        dispatch: &Dispatch,
        out: &mpsc::Sender<(u64, String, bool)>,
        session_tokens: &Mutex<Vec<CancelToken>>,
    ) -> bool {
        self.requests.fetch_add(1, Ordering::Relaxed);
        let respond = |body: String, shutdown: bool| {
            let _ = out.send((seq, body, shutdown));
            shutdown
        };
        let req = match jsonv::parse(line) {
            Ok(v) => v,
            Err(e) => return respond(error_body("", &format!("bad request: {e}")), false),
        };
        let id = id_prefix(&req);
        let Some(op) = req.get("op").and_then(Json::as_str) else {
            return respond(error_body(&id, "missing `op` field"), false);
        };
        match op {
            "ping" => respond(
                format!("{{{id}\"ok\":true,\"op\":\"ping\",\"protocol\":{PROTOCOL_VERSION}}}"),
                false,
            ),
            "stats" => respond(self.stats_body(&id), false),
            "shutdown" => respond(format!("{{{id}\"ok\":true,\"op\":\"shutdown\"}}"), true),
            "cancel" => {
                let Some(key) = id_key(&req) else {
                    return respond(
                        error_body(&id, "`cancel` needs the `id` of the request to cancel"),
                        false,
                    );
                };
                let delivered = self.cancel_by_key(&key);
                respond(
                    format!("{{{id}\"ok\":true,\"op\":\"cancel\",\"delivered\":{delivered}}}"),
                    false,
                )
            }
            "persist" => match self.persist_now() {
                Ok(entries) => respond(
                    format!("{{{id}\"ok\":true,\"op\":\"persist\",\"entries\":{entries}}}"),
                    false,
                ),
                Err(m) => respond(error_body(&id, &m), false),
            },
            "compile" => {
                let batch = match req.get("qos").and_then(Json::as_str) {
                    None | Some("interactive") => false,
                    Some("batch") => true,
                    Some(other) => {
                        return respond(
                            error_body(&id, &format!("unknown qos class `{other}`")),
                            false,
                        )
                    }
                };
                // Admission control: a full queue answers immediately
                // with backpressure instead of buffering without bound.
                if self.queued.load(Ordering::SeqCst) >= self.queue_depth {
                    let retry = self.retry_after_ms();
                    return respond(
                        format!(
                            "{{{id}\"ok\":false,\"error\":\"server overloaded: compile queue \
                             is full\",\"retry_after_ms\":{retry}}}"
                        ),
                        false,
                    );
                }
                self.queued.fetch_add(1, Ordering::SeqCst);
                let key = id_key(&req);
                let (generation, token) = self.admit(key.as_deref());
                lock_unpoisoned(session_tokens).push(token.clone());
                dispatch.push(
                    Job {
                        seq,
                        id,
                        key,
                        generation,
                        token,
                        req,
                    },
                    batch,
                );
                false
            }
            other => respond(error_body(&id, &format!("unknown op `{other}`")), false),
        }
    }

    /// Mint and register a cancel token for an admitted compile. An id
    /// that was cancelled before arriving gets its token fired on the
    /// spot, so the compile aborts before doing any work.
    fn admit(&self, key: Option<&str>) -> (u64, CancelToken) {
        let generation = self.generation.fetch_add(1, Ordering::Relaxed);
        let token = CancelToken::with_generation(generation);
        if let Some(k) = key {
            if lock_unpoisoned(&self.precancelled).remove(k) {
                token.cancel();
            }
            lock_unpoisoned(&self.inflight)
                .entry(k.to_string())
                .or_default()
                .push((generation, token.clone()));
        }
        (generation, token)
    }

    /// Drop a finished compile from the in-flight registry.
    fn retire(&self, key: Option<&str>, generation: u64) {
        if let Some(k) = key {
            let mut map = lock_unpoisoned(&self.inflight);
            if let Some(v) = map.get_mut(k) {
                v.retain(|(g, _)| *g != generation);
                if v.is_empty() {
                    map.remove(k);
                }
            }
        }
    }

    /// Fire every token registered under `key` (queued or executing,
    /// any connection). Returns whether anything was in flight; if not,
    /// the id is remembered so a cancel racing ahead of its compile
    /// still lands (bounded memory).
    fn cancel_by_key(&self, key: &str) -> bool {
        let delivered = match lock_unpoisoned(&self.inflight).get(key) {
            Some(tokens) if !tokens.is_empty() => {
                for (_, t) in tokens {
                    t.cancel();
                }
                true
            }
            _ => false,
        };
        if !delivered {
            let mut set = lock_unpoisoned(&self.precancelled);
            if set.len() < PRECANCEL_CAPACITY {
                set.insert(key.to_string());
            }
        }
        delivered
    }

    /// Backpressure hint for a rejected compile: how long the current
    /// backlog should take to drain, from the compile-time EMA.
    fn retry_after_ms(&self) -> u64 {
        let ema_us = self.ema_compile_us.load(Ordering::Relaxed).max(1_000);
        let backlog = (self.queued.load(Ordering::SeqCst) / self.workers.max(1) + 1) as u64;
        backlog.saturating_mul(ema_us).div_ceil(1_000).max(1)
    }

    fn update_ema(&self, elapsed: Duration) {
        let us = u64::try_from(elapsed.as_micros()).unwrap_or(u64::MAX);
        let old = self.ema_compile_us.load(Ordering::Relaxed);
        let new = if old == 0 { us } else { (old * 7 + us) / 8 };
        self.ema_compile_us.store(new, Ordering::Relaxed);
    }

    /// Run one queued compile and render its response body.
    fn compile_job(&self, job: &Job) -> String {
        let id = &job.id;
        match self.compile(&job.req, job.token.clone()) {
            Ok(fields) => format!("{{{id}\"ok\":true,\"op\":\"compile\",{fields}}}"),
            Err(CompileFailure::Cancelled) => {
                self.cancellations.fetch_add(1, Ordering::Relaxed);
                format!(
                    "{{{id}\"ok\":false,\"cancelled\":true,\"error\":\"compile cancelled (C007)\"}}"
                )
            }
            Err(CompileFailure::Message(m)) => error_body(id, &m),
        }
    }

    fn stats_body(&self, id: &str) -> String {
        let CacheStats {
            hits,
            misses,
            evictions,
            entries,
            capacity,
            persist_saves,
            persist_loads,
            quarantines,
        } = self.cache.stats();
        format!(
            "{{{id}\"ok\":true,\"op\":\"stats\",\"requests\":{},\"workers\":{},\
             \"in_flight\":{},\"queued\":{},\"queue_depth\":{},\"cancellations\":{},\
             \"cache\":{{\"hits\":{hits},\"misses\":{misses},\"evictions\":{evictions},\
             \"entries\":{entries},\"capacity\":{capacity},\"persist_saves\":{persist_saves},\
             \"persist_loads\":{persist_loads},\"quarantines\":{quarantines}}}}}",
            self.requests.load(Ordering::Relaxed),
            self.workers,
            self.in_flight.load(Ordering::SeqCst),
            self.queued.load(Ordering::SeqCst),
            self.queue_depth,
            self.cancellations.load(Ordering::Relaxed),
        )
    }

    /// Handle a `compile` request, returning the response's payload
    /// fields (everything after `"op":"compile",`) or a failure.
    fn compile(&self, req: &Json, token: CancelToken) -> Result<String, CompileFailure> {
        let machine_src = source_field(req, "machine", "machine_path")?;
        let program_src = source_field(req, "program", "program_path")?;
        let mut options = request_options(req)?.with_cancel(Some(token));
        if let Some(v) = req.get("fault_seed") {
            let seed = v
                .as_u64()
                .ok_or_else(|| "`fault_seed` must be a non-negative integer".to_string())?;
            options = options.with_faults(Some(FaultConfig::seeded(seed)));
        }
        let validate_requested = match req.get("validate") {
            None => false,
            Some(v) => v
                .as_bool()
                .ok_or_else(|| "`validate` must be a boolean".to_string())?,
        };
        let target = self.target_for(&machine_src)?;
        let function = parse_function(&program_src).map_err(|e| format!("program: {e}"))?;
        let generator = CodeGenerator::with_shared_target(target)
            .options(options)
            .with_cache(Arc::clone(&self.cache));
        let (program, report) = generator.compile_function(&function).map_err(|e| match e {
            CodegenError::Cancelled => CompileFailure::Cancelled,
            other => CompileFailure::Message(format!("compile: {other}")),
        })?;
        let asm = program.render(generator.target());

        // Translation validation runs on the final rendered bytes, so
        // cache-served plans are checked too: a poisoned or stale cache
        // entry that changes the program's meaning is caught here.
        // `--validate-on-load` additionally forces the check whenever a
        // block was served from a *restored* (disk) cache entry.
        let validate = validate_requested || (self.validate_on_load && report.restored_hits > 0);
        if validate {
            crate::check_translation(&function, &asm, generator.target())?;
        }

        let mut notes = String::new();
        for d in &report.downgrades {
            let _ = writeln!(notes, "downgrade: {d}");
        }
        if !report.complete {
            notes.push_str("note: compile incomplete under the given budget\n");
        }
        let mut fields = format!(
            "\"blocks\":{},\"instructions\":{},\"cache_hits\":{},\"cache_misses\":{},\
             \"complete\":{}",
            report.blocks.len(),
            report.total_instructions,
            report.cache_hits,
            report.cache_misses,
            report.complete,
        );
        if report.restored_hits > 0 {
            let _ = write!(fields, ",\"restored_hits\":{}", report.restored_hits);
        }
        if validate {
            fields.push_str(",\"validated\":true");
        }
        if !notes.is_empty() {
            let _ = write!(fields, ",\"notes\":\"{}\"", jsonv::escape(&notes));
        }
        let _ = write!(fields, ",\"asm\":\"{}\"", jsonv::escape(&asm));
        Ok(fields)
    }

    /// Parse-or-reuse the machine for `machine_src`. Keyed on the raw
    /// source text: two requests with the same bytes share one
    /// [`Target`] (and its derived tables) across all workers.
    fn target_for(&self, machine_src: &str) -> Result<Arc<Target>, String> {
        let key = aviv_ir::stablehash::hash_str(machine_src);
        if let Some(t) = lock_unpoisoned(&self.targets).get(&key) {
            return Ok(Arc::clone(t));
        }
        let machine =
            parse_machine(machine_src).map_err(|e| format!("machine description: {e}"))?;
        let target = Arc::new(Target::new(machine));
        // A racing worker may have inserted meanwhile; keep the first.
        Ok(Arc::clone(
            lock_unpoisoned(&self.targets).entry(key).or_insert(target),
        ))
    }

    /// Serve a Unix socket. Connections are accepted *concurrently* —
    /// each gets its own session of [`workers`](Server::workers) — and
    /// all share the plan cache and cancel registry, so a reconnecting
    /// client keeps its warm entries and any client can cancel any
    /// in-flight request by id.
    ///
    /// A client `shutdown` stops the listener deterministically (a
    /// connect-to-self nudge unblocks `accept`), half-closes every
    /// other live connection so its session drains gracefully, answers
    /// everything already accepted, persists the cache when configured,
    /// and removes the socket file exactly once — on every exit path.
    ///
    /// # Errors
    ///
    /// Propagates bind/accept errors. Per-connection I/O errors only
    /// end that connection (logged to stderr), never the server.
    #[cfg(unix)]
    pub fn serve_unix(&self, path: &std::path::Path) -> io::Result<()> {
        use std::os::unix::io::AsRawFd;
        use std::os::unix::net::{UnixListener, UnixStream};
        use std::sync::atomic::AtomicBool;

        // A stale socket file from a previous run would make bind fail.
        let _ = std::fs::remove_file(path);
        let listener = UnixListener::bind(path)?;
        let shutdown = AtomicBool::new(false);
        // Read-side clones of every live connection (keyed by the
        // handler stream's fd), so shutdown can half-close them — their
        // sessions then drain and exit.
        let conns: Mutex<Vec<(i32, UnixStream)>> = Mutex::new(Vec::new());

        let result: io::Result<()> = std::thread::scope(|s| {
            loop {
                let (stream, _) = match listener.accept() {
                    Ok(c) => c,
                    Err(e) => {
                        if shutdown.load(Ordering::SeqCst) {
                            break;
                        }
                        // Wake any live sessions before propagating.
                        shutdown.store(true, Ordering::SeqCst);
                        for (_, c) in lock_unpoisoned(&conns).iter() {
                            let _ = c.shutdown(std::net::Shutdown::Read);
                        }
                        return Err(e);
                    }
                };
                if shutdown.load(Ordering::SeqCst) {
                    // The connect-to-self nudge (or a client racing the
                    // shutdown): stop accepting.
                    break;
                }
                if let Ok(clone) = stream.try_clone() {
                    lock_unpoisoned(&conns).push((stream.as_raw_fd(), clone));
                }
                let shutdown = &shutdown;
                let conns = &conns;
                s.spawn(move || {
                    let fd = stream.as_raw_fd();
                    let outcome = match stream.try_clone() {
                        Ok(read_half) => self.serve(io::BufReader::new(read_half), &stream),
                        Err(e) => Err(e),
                    };
                    lock_unpoisoned(conns).retain(|(k, _)| *k != fd);
                    match outcome {
                        Ok(summary) if summary.shutdown => {
                            if !shutdown.swap(true, Ordering::SeqCst) {
                                // Half-close the other connections:
                                // their readers see EOF, answer what
                                // they already accepted, and exit.
                                for (_, c) in lock_unpoisoned(conns).iter() {
                                    let _ = c.shutdown(std::net::Shutdown::Read);
                                }
                                // Deterministically unblock accept().
                                let _ = UnixStream::connect(path);
                            }
                        }
                        Ok(_) => {}
                        Err(e) => eprintln!("avivd: connection error: {e}"),
                    }
                });
            }
            Ok(())
        });
        // Exactly once, on every exit path (including accept errors).
        let _ = std::fs::remove_file(path);
        result?;
        if self.persist.is_some() {
            if let Err(e) = self.persist_now() {
                eprintln!("avivd: persist on shutdown failed: {e}");
            }
        }
        Ok(())
    }
}

/// Per-request codegen options: the same knobs as the `avivc` command
/// line, defaulting to the default preset with sequential inner jobs.
fn request_options(req: &Json) -> Result<CodegenOptions, String> {
    let preset = req.get("preset").and_then(Json::as_str).unwrap_or("on");
    let base =
        CodegenOptions::preset(preset).ok_or_else(|| format!("unknown preset `{preset}`"))?;
    let jobs = match req.get("jobs") {
        None => 1,
        Some(v) => v.as_u64().ok_or("`jobs` must be a non-negative integer")? as usize,
    };
    let fuel = match req.get("fuel") {
        None => None,
        Some(v) => Some(v.as_u64().ok_or("`fuel` must be a non-negative integer")?),
    };
    let timeout_ms = match req.get("timeout_ms") {
        None => None,
        Some(v) => Some(
            v.as_u64()
                .ok_or("`timeout_ms` must be a non-negative integer")?,
        ),
    };
    Ok(base
        .with_jobs(jobs)
        .with_fuel(fuel)
        .with_deadline_ms(timeout_ms))
}

/// Resolve a source payload that may be inline (`machine`/`program`)
/// or a path to read (`machine_path`/`program_path`).
fn source_field(req: &Json, inline_key: &str, path_key: &str) -> Result<String, String> {
    match (req.get(inline_key), req.get(path_key)) {
        (Some(_), Some(_)) => Err(format!("give `{inline_key}` or `{path_key}`, not both")),
        (Some(v), None) => v
            .as_str()
            .map(str::to_string)
            .ok_or(format!("`{inline_key}` must be a string")),
        (None, Some(v)) => {
            let path = v.as_str().ok_or(format!("`{path_key}` must be a string"))?;
            std::fs::read_to_string(path).map_err(|e| format!("cannot read {path}: {e}"))
        }
        (None, None) => Err(format!("missing `{inline_key}` (or `{path_key}`)")),
    }
}

/// Render the echoed `"id":...,` fragment (empty when the request has
/// no id). Integer and string ids are supported.
fn id_prefix(req: &Json) -> String {
    match req.get("id") {
        Some(Json::Num(_)) => match req.get("id").and_then(Json::as_u64) {
            Some(n) => format!("\"id\":{n},"),
            None => String::new(),
        },
        Some(Json::Str(s)) => format!("\"id\":\"{}\",", jsonv::escape(s)),
        _ => String::new(),
    }
}

/// The canonical registry key for a request id (integer and string
/// ids live in one namespace: `7` and `"7"` are the same request).
fn id_key(req: &Json) -> Option<String> {
    match req.get("id") {
        Some(Json::Num(_)) => req.get("id").and_then(Json::as_u64).map(|n| n.to_string()),
        Some(Json::Str(s)) => Some(s.clone()),
        _ => None,
    }
}

fn error_body(id: &str, message: &str) -> String {
    format!(
        "{{{id}\"ok\":false,\"error\":\"{}\"}}",
        jsonv::escape(message)
    )
}

fn lock_unpoisoned<T>(m: &Mutex<T>) -> std::sync::MutexGuard<'_, T> {
    match m.lock() {
        Ok(guard) => guard,
        Err(poisoned) => poisoned.into_inner(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const MACHINE: &str = "machine M {
        unit U1 { ops { add, sub, compl, cmpgt } regfile R1[4]; }
        unit U2 { ops { add, mul } regfile R2[4]; }
        memory DM;
        bus DB capacity 1 connects { R1, R2, DM };
    }";

    const PROGRAM: &str = "func f(a, b) { x = a * b + 1; return x; }";

    fn run(server: &Server, requests: &str) -> Vec<Json> {
        let mut out = Vec::new();
        server
            .serve(io::Cursor::new(requests.to_string()), &mut out)
            .unwrap();
        String::from_utf8(out)
            .unwrap()
            .lines()
            .map(|l| jsonv::parse(l).unwrap())
            .collect()
    }

    fn compile_req(id: u64) -> String {
        format!(
            "{{\"id\":{id},\"op\":\"compile\",\"machine\":\"{}\",\"program\":\"{}\"}}",
            jsonv::escape(MACHINE),
            jsonv::escape(PROGRAM)
        )
    }

    #[test]
    fn config_parses_and_rejects() {
        let c = ServeConfig::parse(&[]).unwrap();
        assert_eq!((c.workers, c.cache_size), (1, aviv::DEFAULT_CACHE_CAPACITY));
        assert_eq!(c.queue_depth, DEFAULT_QUEUE_DEPTH);
        assert!(c.persist.is_none());
        assert!(!c.validate_on_load);
        let c = ServeConfig::parse(&[
            "--workers".into(),
            "4".into(),
            "--cache-size".into(),
            "64".into(),
            "--socket".into(),
            "/tmp/s".into(),
            "--persist".into(),
            "/tmp/plans.avivcache".into(),
            "--validate-on-load".into(),
            "--queue-depth".into(),
            "9".into(),
        ])
        .unwrap();
        assert_eq!((c.workers, c.cache_size), (4, 64));
        assert_eq!(c.socket.as_deref(), Some("/tmp/s"));
        assert_eq!(c.persist.as_deref(), Some("/tmp/plans.avivcache"));
        assert!(c.validate_on_load);
        assert_eq!(c.queue_depth, 9);
        assert!(ServeConfig::parse(&["--workers".into()]).is_err());
        assert!(ServeConfig::parse(&["--workers".into(), "many".into()]).is_err());
        assert!(ServeConfig::parse(&["--persist".into()]).is_err());
        assert!(ServeConfig::parse(&["--queue-depth".into(), "x".into()]).is_err());
        assert!(ServeConfig::parse(&["--wat".into()]).is_err());
        let help = ServeConfig::parse(&["--help".into()]).unwrap_err();
        assert!(help.0.contains("usage"));
    }

    #[test]
    fn ping_stats_and_shutdown_round_trip() {
        let server = Server::new(&ServeConfig::default());
        let responses = run(
            &server,
            "{\"op\":\"ping\"}\n{\"op\":\"stats\"}\n{\"op\":\"shutdown\"}\n{\"op\":\"ping\"}\n",
        );
        // The request after shutdown is never answered.
        assert_eq!(responses.len(), 3);
        assert_eq!(responses[0].get("ok").and_then(Json::as_bool), Some(true));
        assert_eq!(
            responses[0].get("protocol").and_then(Json::as_u64),
            Some(u64::from(PROTOCOL_VERSION))
        );
        let stats = &responses[1];
        let cache = stats.get("cache").unwrap();
        assert_eq!(cache.get("hits").and_then(Json::as_u64), Some(0));
        assert_eq!(cache.get("persist_saves").and_then(Json::as_u64), Some(0));
        assert_eq!(stats.get("in_flight").and_then(Json::as_u64), Some(0));
        assert_eq!(stats.get("queued").and_then(Json::as_u64), Some(0));
        assert_eq!(stats.get("cancellations").and_then(Json::as_u64), Some(0));
        assert_eq!(
            responses[2].get("op").and_then(Json::as_str),
            Some("shutdown")
        );
    }

    #[test]
    fn malformed_requests_get_error_responses() {
        let server = Server::new(&ServeConfig::default());
        let responses = run(
            &server,
            "not json\n{\"op\":\"wat\"}\n{\"id\":7,\"op\":\"compile\",\"machine\":\"m\"}\n\
             {\"op\":\"compile\",\"machine\":\"bad\",\"program\":\"func f(a) { return a; }\"}\n",
        );
        assert_eq!(responses.len(), 4);
        for r in &responses {
            assert_eq!(r.get("ok").and_then(Json::as_bool), Some(false), "{r:?}");
            assert!(r.get("error").is_some());
        }
        // The id is echoed even on errors.
        assert_eq!(responses[2].get("id").and_then(Json::as_u64), Some(7));
        let msg = responses[3].get("error").and_then(Json::as_str).unwrap();
        assert!(msg.contains("machine description"), "{msg}");
    }

    /// A machine the rules refuse is answered with the rule's code at
    /// the element's declaration, not at `0:0`.
    #[test]
    fn a_refused_machine_names_the_rule_and_its_line() {
        let machine = MACHINE.replace(
            "memory DM;",
            "memory DM;\n        constraint at_most 0 { U1.add, U2.mul };",
        );
        let request = format!(
            "{{\"id\":1,\"op\":\"compile\",\"machine\":\"{}\",\"program\":\"{}\"}}\n",
            jsonv::escape(&machine),
            jsonv::escape(PROGRAM)
        );
        let responses = run(&Server::new(&ServeConfig::default()), &request);
        assert_eq!(responses[0].get("ok").and_then(Json::as_bool), Some(false));
        let msg = responses[0].get("error").and_then(Json::as_str).unwrap();
        assert!(
            msg.contains("ISDL error at 5:9: E004 constraint #0: at most 0"),
            "{msg}"
        );
    }

    #[test]
    fn repeat_compiles_hit_the_cache_and_match() {
        let server = Server::new(&ServeConfig::default());
        let responses = run(
            &server,
            &format!("{}\n{}\n", compile_req(1), compile_req(2)),
        );
        let cold = &responses[0];
        let warm = &responses[1];
        assert_eq!(
            cold.get("ok").and_then(Json::as_bool),
            Some(true),
            "{cold:?}"
        );
        assert_eq!(cold.get("cache_hits").and_then(Json::as_u64), Some(0));
        assert_eq!(warm.get("cache_misses").and_then(Json::as_u64), Some(0));
        assert_eq!(
            warm.get("cache_hits").and_then(Json::as_u64),
            warm.get("blocks").and_then(Json::as_u64)
        );
        assert_eq!(cold.get("asm"), warm.get("asm"));
        // And the served assembly equals the one-shot driver's bytes.
        let opts = crate::Options::parse(&["--machine".into(), "m.isdl".into(), "prog.av".into()])
            .unwrap();
        let oneshot = crate::drive(&opts, MACHINE, PROGRAM).unwrap();
        assert_eq!(
            cold.get("asm").and_then(Json::as_str).unwrap().as_bytes(),
            &oneshot.output[..]
        );
    }

    #[test]
    fn worker_pool_keeps_request_order_and_bytes() {
        let sequential = Server::new(&ServeConfig::default());
        let requests: String = (0..8).map(|i| format!("{}\n", compile_req(i))).collect();
        let expect = run(&sequential, &requests);
        for workers in [2, 0] {
            let pooled = Server::new(&ServeConfig {
                workers,
                ..ServeConfig::default()
            });
            let got = run(&pooled, &requests);
            assert_eq!(got.len(), expect.len());
            for (g, e) in got.iter().zip(&expect) {
                assert_eq!(g.get("id"), e.get("id"), "workers={workers}");
                assert_eq!(g.get("asm"), e.get("asm"), "workers={workers}");
            }
        }
    }

    #[test]
    fn per_request_qos_is_honored() {
        let server = Server::new(&ServeConfig::default());
        let tight = format!(
            "{{\"op\":\"compile\",\"machine\":\"{}\",\"program\":\"{}\",\"fuel\":1}}",
            jsonv::escape(MACHINE),
            jsonv::escape(PROGRAM)
        );
        let responses = run(&server, &format!("{tight}\n{}\n", compile_req(1)));
        let degraded = &responses[0];
        assert_eq!(degraded.get("ok").and_then(Json::as_bool), Some(true));
        assert_eq!(
            degraded.get("complete").and_then(Json::as_bool),
            Some(false)
        );
        let notes = degraded.get("notes").and_then(Json::as_str).unwrap();
        assert!(notes.contains("downgrade:"), "{notes}");
        // The degraded compile did not poison the cache: the follow-up
        // unbudgeted request is a miss, not a bogus hit.
        let fresh = &responses[1];
        assert_eq!(fresh.get("complete").and_then(Json::as_bool), Some(true));
        assert_eq!(
            fresh.get("cache_hits").and_then(Json::as_u64),
            Some(0),
            "{fresh:?}"
        );
    }

    #[test]
    fn validate_flag_checks_cold_and_cached_compiles() {
        let server = Server::new(&ServeConfig::default());
        let req = |id: u64| {
            format!(
                "{{\"id\":{id},\"op\":\"compile\",\"machine\":\"{}\",\"program\":\"{}\",\
                 \"validate\":true}}",
                jsonv::escape(MACHINE),
                jsonv::escape(PROGRAM)
            )
        };
        let responses = run(&server, &format!("{}\n{}\n", req(1), req(2)));
        let cold = &responses[0];
        let warm = &responses[1];
        assert_eq!(
            cold.get("ok").and_then(Json::as_bool),
            Some(true),
            "{cold:?}"
        );
        assert_eq!(cold.get("validated").and_then(Json::as_bool), Some(true));
        // The warm request is served from the cache and still validated.
        assert_eq!(
            warm.get("cache_hits").and_then(Json::as_u64),
            warm.get("blocks").and_then(Json::as_u64)
        );
        assert_eq!(warm.get("validated").and_then(Json::as_bool), Some(true));
        // Requests without the flag carry no `validated` field.
        let responses = run(&server, &format!("{}\n", compile_req(3)));
        assert!(responses[0].get("validated").is_none());
        // Non-boolean `validate` is rejected.
        let bad = format!(
            "{{\"op\":\"compile\",\"machine\":\"{}\",\"program\":\"{}\",\"validate\":7}}",
            jsonv::escape(MACHINE),
            jsonv::escape(PROGRAM)
        );
        let responses = run(&server, &format!("{bad}\n"));
        let msg = responses[0].get("error").and_then(Json::as_str).unwrap();
        assert!(msg.contains("`validate` must be a boolean"), "{msg}");
    }

    #[test]
    fn string_ids_and_unknown_presets() {
        let server = Server::new(&ServeConfig::default());
        let responses = run(
            &server,
            "{\"id\":\"req-a\",\"op\":\"ping\"}\n\
             {\"op\":\"compile\",\"machine\":\"m\",\"program\":\"p\",\"preset\":\"fast\"}\n",
        );
        assert_eq!(responses[0].get("id").and_then(Json::as_str), Some("req-a"));
        let msg = responses[1].get("error").and_then(Json::as_str).unwrap();
        assert!(msg.contains("unknown preset"), "{msg}");
    }

    #[test]
    fn precancelled_request_aborts_without_compiling() {
        let server = Server::new(&ServeConfig::default());
        // Cancel arrives before the compile it names (the race an
        // interactive client loses constantly): the compile must answer
        // cancelled without planning anything.
        let responses = run(
            &server,
            &format!("{{\"id\":9,\"op\":\"cancel\"}}\n{}\n", compile_req(9)),
        );
        assert_eq!(responses.len(), 2);
        let cancel = &responses[0];
        assert_eq!(cancel.get("ok").and_then(Json::as_bool), Some(true));
        assert_eq!(cancel.get("delivered").and_then(Json::as_bool), Some(false));
        let compiled = &responses[1];
        assert_eq!(compiled.get("ok").and_then(Json::as_bool), Some(false));
        assert_eq!(
            compiled.get("cancelled").and_then(Json::as_bool),
            Some(true)
        );
        // Nothing was cached by the aborted compile.
        assert!(server.cache().is_empty());
        // And the cancellation is visible in stats.
        let responses = run(&server, "{\"op\":\"stats\"}\n");
        assert_eq!(
            responses[0].get("cancellations").and_then(Json::as_u64),
            Some(1)
        );
    }

    #[test]
    fn cancel_without_id_is_an_error() {
        let server = Server::new(&ServeConfig::default());
        let responses = run(&server, "{\"op\":\"cancel\"}\n");
        let msg = responses[0].get("error").and_then(Json::as_str).unwrap();
        assert!(msg.contains("needs the `id`"), "{msg}");
    }

    #[test]
    fn queue_overflow_gets_backpressure_not_memory_growth() {
        // One worker, queue depth 1, and a session whose compiles all
        // pile up behind an uncancellable... no — behind each other:
        // with depth 1 only one compile may be queued at a time; since
        // the reader ingests the whole batch before the worker can
        // drain (the worker blocks on the first pop only after it is
        // pushed), at least one of a rapid burst must be rejected.
        // Deterministic variant: pre-cancel nothing, just send many
        // compiles and count outcomes.
        let server = Server::new(&ServeConfig {
            workers: 1,
            queue_depth: 1,
            ..ServeConfig::default()
        });
        let burst: String = (0..12).map(|i| format!("{}\n", compile_req(i))).collect();
        let responses = run(&server, &burst);
        assert_eq!(responses.len(), 12);
        let rejected: Vec<&Json> = responses
            .iter()
            .filter(|r| r.get("retry_after_ms").is_some())
            .collect();
        for r in &rejected {
            assert_eq!(r.get("ok").and_then(Json::as_bool), Some(false));
            assert!(r.get("retry_after_ms").and_then(Json::as_u64).unwrap() >= 1);
        }
        let served = responses.len() - rejected.len();
        assert!(served >= 1, "at least one compile is admitted");
        // Every admitted compile still succeeded, in order.
        for r in &responses {
            if r.get("retry_after_ms").is_none() {
                assert_eq!(r.get("ok").and_then(Json::as_bool), Some(true), "{r:?}");
            }
        }
    }

    #[test]
    fn qos_classes_parse_and_reject() {
        let server = Server::new(&ServeConfig::default());
        let batch = format!(
            "{{\"id\":1,\"op\":\"compile\",\"machine\":\"{}\",\"program\":\"{}\",\
             \"qos\":\"batch\"}}",
            jsonv::escape(MACHINE),
            jsonv::escape(PROGRAM)
        );
        let bad = format!(
            "{{\"id\":2,\"op\":\"compile\",\"machine\":\"{}\",\"program\":\"{}\",\
             \"qos\":\"turbo\"}}",
            jsonv::escape(MACHINE),
            jsonv::escape(PROGRAM)
        );
        let responses = run(&server, &format!("{batch}\n{bad}\n"));
        assert_eq!(responses[0].get("ok").and_then(Json::as_bool), Some(true));
        let msg = responses[1].get("error").and_then(Json::as_str).unwrap();
        assert!(msg.contains("unknown qos class"), "{msg}");
    }

    #[test]
    fn persist_op_requires_configuration() {
        let server = Server::new(&ServeConfig::default());
        let responses = run(&server, "{\"op\":\"persist\"}\n");
        let msg = responses[0].get("error").and_then(Json::as_str).unwrap();
        assert!(msg.contains("--persist"), "{msg}");
    }

    #[test]
    fn persist_and_restore_across_server_instances() {
        let dir = std::env::temp_dir();
        let path = dir.join(format!(
            "aviv_serve_persist_{}_{:?}.avivcache",
            std::process::id(),
            std::thread::current().id()
        ));
        let _ = std::fs::remove_file(&path);
        let config = ServeConfig {
            persist: Some(path.display().to_string()),
            validate_on_load: true,
            ..ServeConfig::default()
        };

        // First server: warm the cache, then persist via the protocol.
        // (Control ops take effect at read time, so the persist is sent
        // after the compile's response arrives — as a real client would.)
        let first = Server::new(&config);
        let responses = run(&first, &format!("{}\n", compile_req(1)));
        let cold_asm = responses[0]
            .get("asm")
            .and_then(Json::as_str)
            .unwrap()
            .to_string();
        let responses = run(&first, "{\"op\":\"persist\"}\n");
        let persisted = &responses[0];
        assert_eq!(persisted.get("ok").and_then(Json::as_bool), Some(true));
        assert!(persisted.get("entries").and_then(Json::as_u64).unwrap() > 0);
        assert_eq!(first.cache().stats().persist_saves, 1);

        // Second server: restores the snapshot, serves all-hits
        // byte-identical output, forces validation on restored plans.
        let second = Server::new(&config);
        assert!(second.cache().stats().persist_loads > 0);
        let responses = run(&second, &format!("{}\n", compile_req(2)));
        let restored = &responses[0];
        assert_eq!(
            restored.get("ok").and_then(Json::as_bool),
            Some(true),
            "{restored:?}"
        );
        assert_eq!(
            restored.get("cache_hits").and_then(Json::as_u64),
            restored.get("blocks").and_then(Json::as_u64)
        );
        assert!(
            restored
                .get("restored_hits")
                .and_then(Json::as_u64)
                .unwrap()
                > 0
        );
        // --validate-on-load forced the check without the client asking.
        assert_eq!(
            restored.get("validated").and_then(Json::as_bool),
            Some(true)
        );
        assert_eq!(
            restored.get("asm").and_then(Json::as_str),
            Some(&cold_asm[..])
        );

        // Third server: a corrupted snapshot is quarantined, not
        // trusted — the compile is served correct from cold.
        let mut bytes = std::fs::read(&path).unwrap();
        let mid = bytes.len() / 2;
        bytes[mid] ^= 0x40;
        std::fs::write(&path, &bytes).unwrap();
        let third = Server::new(&config);
        assert_eq!(third.cache().stats().quarantines, 1);
        assert!(third.cache().is_empty());
        let responses = run(&third, &format!("{}\n", compile_req(3)));
        let cold = &responses[0];
        assert_eq!(cold.get("cache_hits").and_then(Json::as_u64), Some(0));
        assert_eq!(cold.get("asm").and_then(Json::as_str), Some(&cold_asm[..]));
        let q = path.with_file_name(format!(
            "{}.quarantined",
            path.file_name().unwrap().to_str().unwrap()
        ));
        assert!(q.exists(), "corrupt snapshot moved aside as evidence");
        let _ = std::fs::remove_file(&q);
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn fault_seed_requests_fail_structurally_not_by_panicking() {
        let server = Server::new(&ServeConfig::default());
        // Seeds that fire injected faults: the server must answer every
        // one (ok or structured error), never wedge or panic.
        let requests: String = (0..6)
            .map(|seed| {
                format!(
                    "{{\"id\":{seed},\"op\":\"compile\",\"machine\":\"{}\",\"program\":\"{}\",\
                     \"fault_seed\":{seed}}}\n",
                    jsonv::escape(MACHINE),
                    jsonv::escape(PROGRAM)
                )
            })
            .collect();
        let responses = run(&server, &requests);
        assert_eq!(responses.len(), 6);
        for r in &responses {
            assert!(r.get("ok").is_some(), "{r:?}");
        }
        // Fault-injected compiles bypass the cache, so a clean compile
        // afterwards is not contaminated.
        let clean = run(&server, &format!("{}\n", compile_req(100)));
        assert_eq!(clean[0].get("ok").and_then(Json::as_bool), Some(true));
        assert_eq!(clean[0].get("complete").and_then(Json::as_bool), Some(true));
    }
}
