//! Crash-safe plan-cache persistence.
//!
//! `avivd` restarts lose the warm [`PlanCache`](crate::PlanCache) this
//! module exists to keep: the cache is spilled to a single snapshot file
//! and restored on startup, so a restarted server serves warm hits
//! instead of recompiling its whole working set (the restart pass of
//! the `serving` bench binary measures the win).
//!
//! # File format
//!
//! ```text
//! magic    8 bytes  b"AVIVPLNC"
//! version  u32      bumped on any codec change; older/newer is stale
//! count    u64      number of (key, plan) entries
//! length   u64      payload byte length
//! checksum u64      FNV-1a of the payload bytes
//! payload  ...      count × (CacheKey, BlockPlan), see crate::wire
//! ```
//!
//! Each entry is the cache triple `(block_dag_hash, target fingerprint,
//! options fingerprint)` followed by the encoded [`BlockPlan`]: the
//! cover graph's essential fields (derived indexes are rebuilt on load),
//! the schedule, the register allocation, the appended spill-slot names,
//! and the completed block report. Only *complete* plans live in the
//! cache, so everything restored is byte-identical to a cold recompile
//! by the same invariant that makes cache hits sound.
//!
//! # Crash safety and recovery
//!
//! [`save_snapshot`] writes a temp file in the same directory, fsyncs
//! it, renames it over the target, and fsyncs the directory — a reader
//! sees either the old snapshot or the new one, never a torn mix. A
//! `kill -9` mid-write leaves at worst a stale temp file and the intact
//! previous snapshot.
//!
//! [`load_snapshot`] trusts nothing: bad magic, unknown version, short
//! file, length mismatch, checksum mismatch, or any structural decode
//! error (out-of-range node ids, oversized lengths, trailing garbage)
//! quarantines the file — renames it to `<path>.quarantined` so the
//! evidence survives for inspection — and the server rebuilds from cold.
//! Restored entries are additionally flagged so `avivd
//! --validate-on-load` can re-prove them through the translation
//! validator on first use.

use crate::cache::{CacheKey, PlanCache};
use crate::codegen::{BlockPlan, BlockReport, CoverMode, StageTimes};
use crate::cover::{Schedule, SearchStats, SpillRecord};
use crate::covergraph::{CnId, CnKind, CoverGraph, CoverNode, Operand};
use crate::regalloc::{Allocation, Reg};
use crate::wire::{fnv64, Dec, Enc, WireError};
use aviv_ir::{BitSet, NodeId, Op, Sym};
use aviv_isdl::{BankId, BusId, UnitId};
use std::io::{self, Write};
use std::path::{Path, PathBuf};
use std::time::Duration;

/// Snapshot file magic.
pub const MAGIC: [u8; 8] = *b"AVIVPLNC";

/// Snapshot format version; bump on any codec change so stale files are
/// quarantined instead of misread.
pub const VERSION: u32 = 2;

const HEADER_LEN: usize = 8 + 4 + 8 + 8 + 8;

/// What [`load_snapshot`] found on disk.
#[derive(Debug)]
pub enum LoadOutcome {
    /// No snapshot file exists — a cold start.
    Missing,
    /// The snapshot verified and its entries were absorbed.
    Loaded {
        /// Entries in the file.
        entries: usize,
        /// Entries actually absorbed (resident keys are never
        /// overwritten, and capacity may evict).
        absorbed: usize,
    },
    /// The file failed verification and was quarantined; the cache is
    /// untouched and the server proceeds from cold.
    Quarantined {
        /// Why the file was rejected.
        reason: String,
        /// Where the evidence was moved (`None` if the rename itself
        /// failed — the file is left in place in that case).
        moved_to: Option<PathBuf>,
    },
}

// ---------------------------------------------------------------------
// Encoding
// ---------------------------------------------------------------------

fn put_operand(e: &mut Enc, op: &Operand) {
    match op {
        Operand::Cn(c) => {
            e.put_u8(0);
            e.put_u32(c.0);
        }
        Operand::Imm(v) => {
            e.put_u8(1);
            e.put_i64(*v);
        }
    }
}

fn put_kind(e: &mut Enc, kind: &CnKind) {
    match kind {
        CnKind::Op { orig, unit, op } => {
            e.put_u8(0);
            e.put_u32(orig.0);
            e.put_u32(unit.0);
            e.put_str(op.mnemonic());
        }
        CnKind::Complex { orig, index, unit } => {
            e.put_u8(1);
            e.put_u32(orig.0);
            e.put_usize(*index);
            e.put_u32(unit.0);
        }
        CnKind::Move { bus, from, to } => {
            e.put_u8(2);
            e.put_u32(bus.0);
            e.put_u32(from.0);
            e.put_u32(to.0);
        }
        CnKind::LoadVar { sym, bus, to } => {
            e.put_u8(3);
            e.put_u32(sym.0);
            e.put_u32(bus.0);
            e.put_u32(to.0);
        }
        CnKind::StoreVar { sym, bus, from } => {
            e.put_u8(4);
            e.put_u32(sym.0);
            e.put_u32(bus.0);
            match from {
                Some(b) => {
                    e.put_u8(1);
                    e.put_u32(b.0);
                }
                None => e.put_u8(0),
            }
        }
        CnKind::LoadDyn { orig, bus, bank } => {
            e.put_u8(5);
            e.put_u32(orig.0);
            e.put_u32(bus.0);
            e.put_u32(bank.0);
        }
        CnKind::StoreDyn { orig, bus, bank } => {
            e.put_u8(6);
            e.put_u32(orig.0);
            e.put_u32(bus.0);
            e.put_u32(bank.0);
        }
    }
}

fn put_cn_list(e: &mut Enc, list: &[CnId]) {
    e.put_u32(list.len() as u32);
    for c in list {
        e.put_u32(c.0);
    }
}

fn put_duration(e: &mut Enc, d: Duration) {
    e.put_u64(u64::try_from(d.as_nanos()).unwrap_or(u64::MAX));
}

fn put_plan(e: &mut Enc, plan: &BlockPlan) {
    let (graph, schedule, alloc, appended_syms, snapshot_len, report) = plan.wire_parts();

    // Cover graph: essential fields only; indexes rebuild on decode.
    let (nodes, dead, value_of_orig, live_out, bus_usage) = graph.wire_parts();
    e.put_u32(nodes.len() as u32);
    for node in nodes {
        put_kind(e, &node.kind);
        e.put_u32(node.args.len() as u32);
        for a in &node.args {
            put_operand(e, a);
        }
        put_cn_list(e, &node.deps);
    }
    e.put_u32(dead.count() as u32);
    for i in dead.iter() {
        e.put_u32(i as u32);
    }
    e.put_u32(value_of_orig.len() as u32);
    for v in value_of_orig {
        match v {
            Some(c) => {
                e.put_u8(1);
                e.put_u32(c.0);
            }
            None => e.put_u8(0),
        }
    }
    e.put_u32(live_out.len() as u32);
    for (orig, op) in live_out {
        e.put_u32(orig.0);
        put_operand(e, op);
    }
    e.put_u32(bus_usage.len() as u32);
    for &u in bus_usage {
        e.put_usize(u);
    }

    // Schedule.
    e.put_u32(schedule.steps.len() as u32);
    for step in &schedule.steps {
        put_cn_list(e, step);
    }
    e.put_u32(schedule.spills.len() as u32);
    for s in &schedule.spills {
        e.put_u32(s.slot.0);
        e.put_u32(s.victim.0);
        match s.spill {
            Some(c) => {
                e.put_u8(1);
                e.put_u32(c.0);
            }
            None => e.put_u8(0),
        }
        e.put_u32(s.loads.len() as u32);
        for (bank, c) in &s.loads {
            e.put_u32(bank.0);
            e.put_u32(c.0);
        }
        put_cn_list(e, &s.nodes);
    }

    // Allocation, in deterministic (sorted) order.
    let entries = alloc.entries_sorted();
    e.put_u32(entries.len() as u32);
    for (c, reg) in entries {
        e.put_u32(c.0);
        e.put_u32(reg.bank.0);
        e.put_u32(reg.index);
    }

    e.put_u32(appended_syms.len() as u32);
    for s in appended_syms {
        e.put_str(s);
    }
    e.put_usize(snapshot_len);

    // Report. Only complete plans are cached, so the ladder fields
    // (mode, downgrades, exhausted, truncated) are constants on decode.
    e.put_usize(report.orig_nodes);
    e.put_usize(report.sndag_nodes);
    e.put_u128(report.assignment_space);
    e.put_usize(report.assignments_enumerated);
    e.put_usize(report.assignments_explored);
    e.put_usize(report.spills);
    e.put_usize(report.instructions);
    e.put_usize(report.peephole_removed);
    put_duration(e, report.time);
    put_duration(e, report.stages.sndag);
    put_duration(e, report.stages.explore);
    put_duration(e, report.stages.cover);
    put_duration(e, report.stages.alloc);
    put_duration(e, report.stages.peephole);
    put_duration(e, report.stages.verify);
    e.put_u64(report.node_expansions);
    e.put_usize(report.peak_pressure);
    e.put_usize(report.min_instructions_bound);
    e.put_usize(report.min_pressure_bound);
    e.put_u64(report.search.rollouts);
    e.put_u64(report.search.rollout_steps);
    e.put_u64(report.search.memo_hits);
    e.put_u64(report.search.rollouts_cut);
}

/// Encode `(key, plan)` entries into a complete snapshot file image
/// (header + checksummed payload).
pub fn encode_snapshot(entries: &[(CacheKey, BlockPlan)]) -> Vec<u8> {
    let mut payload = Enc::new();
    for (key, plan) in entries {
        payload.put_u64(key.block);
        payload.put_u64(key.target);
        payload.put_u64(key.options);
        put_plan(&mut payload, plan);
    }
    let payload = payload.into_bytes();
    let mut out = Vec::with_capacity(HEADER_LEN + payload.len());
    out.extend_from_slice(&MAGIC);
    out.extend_from_slice(&VERSION.to_le_bytes());
    out.extend_from_slice(&(entries.len() as u64).to_le_bytes());
    out.extend_from_slice(&(payload.len() as u64).to_le_bytes());
    out.extend_from_slice(&fnv64(&payload).to_le_bytes());
    out.extend_from_slice(&payload);
    out
}

// ---------------------------------------------------------------------
// Decoding
// ---------------------------------------------------------------------

fn get_cn(d: &mut Dec<'_>, n_nodes: usize, what: &'static str) -> Result<CnId, WireError> {
    let v = d.get_u32(what)?;
    if (v as usize) >= n_nodes {
        return Err(WireError {
            what,
            offset: d.offset(),
        });
    }
    Ok(CnId(v))
}

fn get_operand(d: &mut Dec<'_>, n_nodes: usize) -> Result<Operand, WireError> {
    match d.get_u8("operand tag")? {
        0 => Ok(Operand::Cn(get_cn(d, n_nodes, "operand node")?)),
        1 => Ok(Operand::Imm(d.get_i64("operand imm")?)),
        _ => Err(WireError {
            what: "operand tag",
            offset: d.offset(),
        }),
    }
}

fn get_kind(d: &mut Dec<'_>) -> Result<CnKind, WireError> {
    match d.get_u8("node kind tag")? {
        0 => {
            let orig = NodeId(d.get_u32("op orig")?);
            let unit = UnitId(d.get_u32("op unit")?);
            let m = d.get_str("op mnemonic")?;
            let op = Op::from_mnemonic(&m).ok_or(WireError {
                what: "op mnemonic",
                offset: d.offset(),
            })?;
            Ok(CnKind::Op { orig, unit, op })
        }
        1 => Ok(CnKind::Complex {
            orig: NodeId(d.get_u32("complex orig")?),
            index: d.get_usize("complex index")?,
            unit: UnitId(d.get_u32("complex unit")?),
        }),
        2 => Ok(CnKind::Move {
            bus: BusId(d.get_u32("move bus")?),
            from: BankId(d.get_u32("move from")?),
            to: BankId(d.get_u32("move to")?),
        }),
        3 => Ok(CnKind::LoadVar {
            sym: Sym(d.get_u32("loadvar sym")?),
            bus: BusId(d.get_u32("loadvar bus")?),
            to: BankId(d.get_u32("loadvar to")?),
        }),
        4 => {
            let sym = Sym(d.get_u32("storevar sym")?);
            let bus = BusId(d.get_u32("storevar bus")?);
            let from = match d.get_u8("storevar from tag")? {
                0 => None,
                1 => Some(BankId(d.get_u32("storevar from")?)),
                _ => {
                    return Err(WireError {
                        what: "storevar from tag",
                        offset: d.offset(),
                    })
                }
            };
            Ok(CnKind::StoreVar { sym, bus, from })
        }
        5 => Ok(CnKind::LoadDyn {
            orig: NodeId(d.get_u32("loaddyn orig")?),
            bus: BusId(d.get_u32("loaddyn bus")?),
            bank: BankId(d.get_u32("loaddyn bank")?),
        }),
        6 => Ok(CnKind::StoreDyn {
            orig: NodeId(d.get_u32("storedyn orig")?),
            bus: BusId(d.get_u32("storedyn bus")?),
            bank: BankId(d.get_u32("storedyn bank")?),
        }),
        _ => Err(WireError {
            what: "node kind tag",
            offset: d.offset(),
        }),
    }
}

fn get_cn_list(
    d: &mut Dec<'_>,
    n_nodes: usize,
    what: &'static str,
) -> Result<Vec<CnId>, WireError> {
    let n = d.get_len(what)?;
    let mut v = Vec::with_capacity(n.min(1024));
    for _ in 0..n {
        v.push(get_cn(d, n_nodes, what)?);
    }
    Ok(v)
}

fn get_duration(d: &mut Dec<'_>, what: &'static str) -> Result<Duration, WireError> {
    Ok(Duration::from_nanos(d.get_u64(what)?))
}

fn get_plan(d: &mut Dec<'_>) -> Result<BlockPlan, WireError> {
    // Cover graph.
    let n_nodes = d.get_len("node count")?;
    let mut nodes = Vec::with_capacity(n_nodes.min(1024));
    for _ in 0..n_nodes {
        let kind = get_kind(d)?;
        let n_args = d.get_len("arg count")?;
        let mut args = Vec::with_capacity(n_args.min(1024));
        for _ in 0..n_args {
            args.push(get_operand(d, n_nodes)?);
        }
        let deps = get_cn_list(d, n_nodes, "node deps")?;
        nodes.push(CoverNode { kind, args, deps });
    }
    let n_dead = d.get_len("dead count")?;
    let mut dead = BitSet::new(n_nodes);
    for _ in 0..n_dead {
        dead.insert(get_cn(d, n_nodes, "dead index")?.index());
    }
    let n_voo = d.get_len("value_of_orig count")?;
    let mut value_of_orig = Vec::with_capacity(n_voo.min(1024));
    for _ in 0..n_voo {
        value_of_orig.push(match d.get_u8("value_of_orig tag")? {
            0 => None,
            1 => Some(get_cn(d, n_nodes, "value_of_orig node")?),
            _ => {
                return Err(WireError {
                    what: "value_of_orig tag",
                    offset: d.offset(),
                })
            }
        });
    }
    let n_lo = d.get_len("live_out count")?;
    let mut live_out = Vec::with_capacity(n_lo.min(1024));
    for _ in 0..n_lo {
        let orig = NodeId(d.get_u32("live_out orig")?);
        live_out.push((orig, get_operand(d, n_nodes)?));
    }
    let n_bus = d.get_len("bus_usage count")?;
    let mut bus_usage = Vec::with_capacity(n_bus.min(1024));
    for _ in 0..n_bus {
        bus_usage.push(d.get_usize("bus_usage entry")?);
    }
    let graph = CoverGraph::from_wire_parts(nodes, dead, value_of_orig, live_out, bus_usage);

    // Schedule.
    let n_steps = d.get_len("step count")?;
    let mut steps = Vec::with_capacity(n_steps.min(1024));
    for _ in 0..n_steps {
        steps.push(get_cn_list(d, n_nodes, "step")?);
    }
    let n_spills = d.get_len("spill count")?;
    let mut spills = Vec::with_capacity(n_spills.min(1024));
    for _ in 0..n_spills {
        let slot = Sym(d.get_u32("spill slot")?);
        let victim = get_cn(d, n_nodes, "spill victim")?;
        let spill = match d.get_u8("spill store tag")? {
            0 => None,
            1 => Some(get_cn(d, n_nodes, "spill store")?),
            _ => {
                return Err(WireError {
                    what: "spill store tag",
                    offset: d.offset(),
                })
            }
        };
        let n_loads = d.get_len("spill load count")?;
        let mut loads = Vec::with_capacity(n_loads.min(1024));
        for _ in 0..n_loads {
            let bank = BankId(d.get_u32("spill load bank")?);
            loads.push((bank, get_cn(d, n_nodes, "spill load node")?));
        }
        let nodes = get_cn_list(d, n_nodes, "spill nodes")?;
        spills.push(SpillRecord {
            slot,
            victim,
            spill,
            loads,
            nodes,
        });
    }
    let schedule = Schedule { steps, spills };

    // Allocation.
    let n_alloc = d.get_len("alloc count")?;
    let mut entries = Vec::with_capacity(n_alloc.min(1024));
    for _ in 0..n_alloc {
        let c = get_cn(d, n_nodes, "alloc node")?;
        let bank = BankId(d.get_u32("alloc bank")?);
        let index = d.get_u32("alloc index")?;
        entries.push((c, Reg { bank, index }));
    }
    let alloc = Allocation::from_entries(entries);

    let n_syms = d.get_len("appended sym count")?;
    let mut appended_syms = Vec::with_capacity(n_syms.min(1024));
    for _ in 0..n_syms {
        appended_syms.push(d.get_str("appended sym")?);
    }
    let snapshot_len = d.get_usize("snapshot_len")?;

    let report = BlockReport {
        orig_nodes: d.get_usize("orig_nodes")?,
        sndag_nodes: d.get_usize("sndag_nodes")?,
        assignment_space: d.get_u128("assignment_space")?,
        assignments_enumerated: d.get_usize("assignments_enumerated")?,
        assignments_explored: d.get_usize("assignments_explored")?,
        truncated: false,
        spills: d.get_usize("spills")?,
        instructions: d.get_usize("instructions")?,
        peephole_removed: d.get_usize("peephole_removed")?,
        time: get_duration(d, "time")?,
        stages: StageTimes {
            sndag: get_duration(d, "stage sndag")?,
            explore: get_duration(d, "stage explore")?,
            cover: get_duration(d, "stage cover")?,
            alloc: get_duration(d, "stage alloc")?,
            peephole: get_duration(d, "stage peephole")?,
            verify: get_duration(d, "stage verify")?,
        },
        node_expansions: d.get_u64("node_expansions")?,
        peak_pressure: d.get_usize("peak_pressure")?,
        min_instructions_bound: d.get_usize("min_instructions_bound")?,
        min_pressure_bound: d.get_usize("min_pressure_bound")?,
        search: SearchStats {
            rollouts: d.get_u64("rollouts")?,
            rollout_steps: d.get_u64("rollout_steps")?,
            memo_hits: d.get_u64("memo_hits")?,
            rollouts_cut: d.get_u64("rollouts_cut")?,
        },
        cached: false,
        restored: false,
        mode: CoverMode::Concurrent,
        downgrades: Vec::new(),
        exhausted: None,
        complete: true,
    };

    Ok(BlockPlan::from_wire_parts(
        graph,
        schedule,
        alloc,
        appended_syms,
        snapshot_len,
        report,
    ))
}

/// Decode and verify a complete snapshot file image.
///
/// # Errors
///
/// A [`WireError`] naming the first header or structural violation: bad
/// magic, unknown version, truncated header/payload, length or checksum
/// mismatch, or any malformed entry.
pub fn decode_snapshot(bytes: &[u8]) -> Result<Vec<(CacheKey, BlockPlan)>, WireError> {
    if bytes.len() < HEADER_LEN {
        return Err(WireError {
            what: "truncated header",
            offset: bytes.len(),
        });
    }
    if bytes[..8] != MAGIC {
        return Err(WireError {
            what: "bad magic",
            offset: 0,
        });
    }
    let version = u32::from_le_bytes([bytes[8], bytes[9], bytes[10], bytes[11]]);
    if version != VERSION {
        return Err(WireError {
            what: "unsupported snapshot version",
            offset: 8,
        });
    }
    let u64_at = |off: usize| {
        let mut a = [0u8; 8];
        a.copy_from_slice(&bytes[off..off + 8]);
        u64::from_le_bytes(a)
    };
    let count = u64_at(12);
    let payload_len = u64_at(20);
    let checksum = u64_at(28);
    let payload = &bytes[HEADER_LEN..];
    if payload.len() as u64 != payload_len {
        return Err(WireError {
            what: "payload length mismatch",
            offset: 20,
        });
    }
    if fnv64(payload) != checksum {
        return Err(WireError {
            what: "payload checksum mismatch",
            offset: 28,
        });
    }
    if count > crate::wire::MAX_SEQ_LEN as u64 {
        return Err(WireError {
            what: "entry count",
            offset: 12,
        });
    }
    let mut d = Dec::new(payload);
    let mut entries = Vec::with_capacity((count as usize).min(1024));
    for _ in 0..count {
        let key = CacheKey {
            block: d.get_u64("key block")?,
            target: d.get_u64("key target")?,
            options: d.get_u64("key options")?,
        };
        entries.push((key, get_plan(&mut d)?));
    }
    d.finish("trailing bytes")?;
    Ok(entries)
}

// ---------------------------------------------------------------------
// File I/O
// ---------------------------------------------------------------------

/// Atomically write `cache`'s resident entries to `path`:
/// write-temp → fsync → rename → fsync-directory, so a crash at any
/// point leaves either the previous snapshot or the new one intact.
/// Counts the save in [`CacheStats::persist_saves`](crate::CacheStats).
///
/// # Errors
///
/// Any I/O failure from the filesystem; the target file is never left
/// half-written.
pub fn save_snapshot(path: &Path, cache: &PlanCache) -> io::Result<usize> {
    let entries = cache.snapshot_entries();
    let bytes = encode_snapshot(&entries);
    let file_name = path
        .file_name()
        .and_then(|n| n.to_str())
        .unwrap_or("plans.avivcache");
    let tmp = path.with_file_name(format!(".{file_name}.tmp.{}", std::process::id()));
    {
        let mut f = std::fs::File::create(&tmp)?;
        f.write_all(&bytes)?;
        f.sync_all()?;
    }
    if let Err(e) = std::fs::rename(&tmp, path) {
        let _ = std::fs::remove_file(&tmp);
        return Err(e);
    }
    if let Some(dir) = path.parent().filter(|d| !d.as_os_str().is_empty()) {
        // Persist the rename itself; failure here is not worth failing
        // the save over (the data is durable, the directory entry almost
        // certainly is too).
        if let Ok(d) = std::fs::File::open(dir) {
            let _ = d.sync_all();
        }
    }
    cache.record_save();
    Ok(entries.len())
}

/// Load a snapshot from `path` into `cache`.
///
/// A missing file is a normal cold start ([`LoadOutcome::Missing`]). A
/// file that fails *any* verification step is renamed to
/// `<path>.quarantined` — counted in
/// [`CacheStats::quarantines`](crate::CacheStats) — and the cache is
/// left untouched ([`LoadOutcome::Quarantined`]). A valid snapshot is
/// absorbed with every entry flagged as restored (see
/// [`PlanCache::lookup_flagged`]).
///
/// # Errors
///
/// Only genuine I/O failures reading the file; corruption is not an
/// error, it is a [`LoadOutcome::Quarantined`].
pub fn load_snapshot(path: &Path, cache: &PlanCache) -> io::Result<LoadOutcome> {
    let bytes = match std::fs::read(path) {
        Ok(b) => b,
        Err(e) if e.kind() == io::ErrorKind::NotFound => return Ok(LoadOutcome::Missing),
        Err(e) => return Err(e),
    };
    match decode_snapshot(&bytes) {
        Ok(entries) => {
            let total = entries.len();
            let absorbed = cache.absorb(entries);
            Ok(LoadOutcome::Loaded {
                entries: total,
                absorbed,
            })
        }
        Err(werr) => {
            let file_name = path
                .file_name()
                .and_then(|n| n.to_str())
                .unwrap_or("plans.avivcache");
            let qpath = path.with_file_name(format!("{file_name}.quarantined"));
            let moved_to = match std::fs::rename(path, &qpath) {
                Ok(()) => Some(qpath),
                Err(_) => None,
            };
            cache.record_quarantine();
            Ok(LoadOutcome::Quarantined {
                reason: werr.to_string(),
                moved_to,
            })
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{CodeGenerator, CodegenOptions, PlanCache};
    use aviv_ir::parse_function;
    use std::sync::atomic::{AtomicU64, Ordering};
    use std::sync::Arc;

    fn temp_path(tag: &str) -> PathBuf {
        static SEQ: AtomicU64 = AtomicU64::new(0);
        let n = SEQ.fetch_add(1, Ordering::Relaxed);
        std::env::temp_dir().join(format!(
            "aviv_persist_test_{}_{tag}_{n}.avivcache",
            std::process::id()
        ))
    }

    const PROGRAM: &str = "func f(a, b) {
        x = a * b + a;
        y = x - b;
        if (y > 0) goto big;
        return y;
    big:
        t = x + 1;
        r = t * 2;
        return r;
    }";

    fn compile_with_cache(cache: &Arc<PlanCache>) -> (String, usize, usize) {
        let f = parse_function(PROGRAM).unwrap();
        let target = Arc::new(aviv_isdl::Target::new(aviv_isdl::archs::example_arch(4)));
        let gen = CodeGenerator::with_shared_target(Arc::clone(&target))
            .options(CodegenOptions::default())
            .with_cache(Arc::clone(cache));
        let (program, report) = gen.compile_function(&f).unwrap();
        (
            program.render(&target),
            report.cache_hits,
            report.restored_hits,
        )
    }

    #[test]
    fn snapshot_round_trips_byte_identically() {
        let warm = Arc::new(PlanCache::new(64));
        let (cold_asm, hits, _) = compile_with_cache(&warm);
        assert_eq!(hits, 0);
        assert!(!warm.is_empty());

        let path = temp_path("roundtrip");
        let saved = save_snapshot(&path, &warm).unwrap();
        assert_eq!(saved, warm.len());
        assert_eq!(warm.stats().persist_saves, 1);

        let fresh = Arc::new(PlanCache::new(64));
        match load_snapshot(&path, &fresh).unwrap() {
            LoadOutcome::Loaded { entries, absorbed } => {
                assert_eq!(entries, saved);
                assert_eq!(absorbed, saved);
            }
            other => panic!("expected Loaded, got {other:?}"),
        }
        assert_eq!(fresh.stats().persist_loads, saved as u64);

        let (restored_asm, hits, restored_hits) = compile_with_cache(&fresh);
        assert_eq!(
            restored_asm, cold_asm,
            "restored plans must replay byte-identically"
        );
        assert!(hits > 0, "every block should hit the restored cache");
        assert_eq!(restored_hits, hits, "every hit came from the snapshot");
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn reencoding_a_decoded_snapshot_is_stable() {
        let warm = Arc::new(PlanCache::new(64));
        compile_with_cache(&warm);
        let entries = warm.snapshot_entries();
        let bytes = encode_snapshot(&entries);
        let decoded = decode_snapshot(&bytes).unwrap();
        assert_eq!(encode_snapshot(&decoded), bytes);
    }

    #[test]
    fn missing_file_is_a_cold_start() {
        let cache = PlanCache::new(8);
        let path = temp_path("missing");
        assert!(matches!(
            load_snapshot(&path, &cache).unwrap(),
            LoadOutcome::Missing
        ));
        assert_eq!(cache.stats().quarantines, 0);
    }

    #[test]
    fn every_truncation_is_quarantined_never_a_panic() {
        let warm = Arc::new(PlanCache::new(64));
        compile_with_cache(&warm);
        let bytes = encode_snapshot(&warm.snapshot_entries());
        // Cut at a spread of points including inside the header and at
        // every tail byte of the payload.
        let mut cuts: Vec<usize> = (0..bytes.len().min(64)).collect();
        cuts.extend((bytes.len().saturating_sub(16)..bytes.len()).collect::<Vec<_>>());
        cuts.push(bytes.len() / 2);
        for cut in cuts {
            let cache = PlanCache::new(8);
            let path = temp_path("trunc");
            std::fs::write(&path, &bytes[..cut]).unwrap();
            match load_snapshot(&path, &cache).unwrap() {
                LoadOutcome::Quarantined { moved_to, .. } => {
                    assert!(cache.is_empty(), "quarantine must not absorb entries");
                    assert_eq!(cache.stats().quarantines, 1);
                    let q = moved_to.expect("quarantine rename succeeds");
                    assert!(q.exists());
                    assert!(!path.exists(), "original removed by quarantine rename");
                    let _ = std::fs::remove_file(&q);
                }
                other => panic!("cut at {cut}: expected Quarantined, got {other:?}"),
            }
        }
    }

    #[test]
    fn every_single_bit_flip_in_payload_is_detected() {
        let warm = Arc::new(PlanCache::new(64));
        compile_with_cache(&warm);
        let bytes = encode_snapshot(&warm.snapshot_entries());
        // Flip one bit in each of a spread of payload bytes: the
        // checksum catches all of them.
        let step = (bytes.len() - HEADER_LEN).max(1) / 37 + 1;
        for i in (HEADER_LEN..bytes.len()).step_by(step) {
            let mut corrupt = bytes.clone();
            corrupt[i] ^= 1 << (i % 8);
            assert!(
                decode_snapshot(&corrupt).is_err(),
                "bit flip at byte {i} went undetected"
            );
        }
    }

    #[test]
    fn stale_version_and_bad_magic_are_rejected() {
        let warm = Arc::new(PlanCache::new(64));
        compile_with_cache(&warm);
        let bytes = encode_snapshot(&warm.snapshot_entries());

        let mut stale = bytes.clone();
        stale[8] = stale[8].wrapping_add(1); // version
        assert!(decode_snapshot(&stale).is_err());

        let mut magic = bytes.clone();
        magic[0] = b'X';
        assert!(decode_snapshot(&magic).is_err());

        let mut trailing = bytes.clone();
        trailing.push(0); // payload length mismatch
        assert!(decode_snapshot(&trailing).is_err());
    }

    #[test]
    fn absorb_never_overwrites_a_live_entry() {
        let warm = Arc::new(PlanCache::new(64));
        compile_with_cache(&warm);
        let entries = warm.snapshot_entries();
        // Re-absorbing into the same cache: every key is resident, so
        // nothing is absorbed and nothing is marked restored.
        assert_eq!(warm.absorb(entries), 0);
        let (_, hits, restored_hits) = compile_with_cache(&warm);
        assert!(hits > 0);
        assert_eq!(restored_hits, 0, "live entries stayed live");
    }

    #[test]
    fn save_is_atomic_under_concurrent_readers() {
        // A reader never sees a torn file: either the snapshot is absent
        // (Missing) or it verifies. Simulated by interleaving saves and
        // loads of the same path.
        let warm = Arc::new(PlanCache::new(64));
        compile_with_cache(&warm);
        let path = temp_path("atomic");
        for _ in 0..5 {
            save_snapshot(&path, &warm).unwrap();
            let fresh = PlanCache::new(64);
            match load_snapshot(&path, &fresh).unwrap() {
                LoadOutcome::Loaded { .. } => {}
                other => panic!("expected Loaded, got {other:?}"),
            }
        }
        let _ = std::fs::remove_file(&path);
    }
}
