//! Covering the assignment with a minimum-cost set of cliques (§IV-D/E).
//!
//! "Our covering algorithm begins with an empty solution set. It then
//! selects a maximal clique that covers the largest number of remaining
//! uncovered nodes whose children have all been covered ... and whose
//! register requirements do not exceed the available resources. ... After
//! selecting the clique, the remaining cliques are shrunk so that they no
//! longer include any of the covered nodes." Ties break on a lookahead
//! estimate; when every candidate would blow a register bank, a value is
//! spilled (Fig. 9) and the cliques are regenerated.
//!
//! The order in which cliques are selected **is** the schedule (§IV-E).
//!
//! Masks and scratch reuse: every selection step and every
//! lookahead-rollout step recomputes the covering state, and there can
//! be hundreds of thousands of them per block, so each works on bit
//! masks a word at a time, and none allocates. Whenever the pool
//! is generated (at the start and after each spill, the only times the
//! graph changes), `Rows` rebuilds per-graph masks over node ids into
//! one reused buffer: alive, pinned, per-bank destinations, and per node
//! its predecessors (operands and ordering deps) and operand consumers.
//! The pool stores each clique as a mask too, word-major in one reused
//! buffer. From these a step reads:
//!
//! - `ready` = alive ∧ ¬covered ∧ (predecessor row ⊆ covered), and a
//!   value is live when it is covered, has a bank, and is pinned or has
//!   a consumer outside covered; pressure per bank is the popcount of
//!   live ∧ that bank's row. One pass over the per-node rows gives both:
//!   2n·⌈n/64⌉ words for n nodes. That grows faster than a graph walk's
//!   O(n + e), so a very large block may pay more per step than a graph
//!   walk would (EXPERIMENTS.md times the change by block size).
//! - A rollout step's greedy rule is a scan of the pool in order that
//!   replaces its pick only with a strictly larger fitting group, so it
//!   takes the first fitting clique in pool order among those with the
//!   most ready members. The ready count of a clique is the popcount of
//!   its mask ∧ ready, so the step tests cliques count by count from the
//!   largest down, in pool order within a count, and stops at the first
//!   that fits: the same clique, without testing the rest of the pool.
//!   Only the cliques tested build a mask.
//! - `State::pressure_after` visits only operands of the group: a value
//!   dies in a step when it has consumers left and all of them are in
//!   the group, so it is an operand of a member. The union of the
//!   members' predecessor rows visits each such value once, and "all
//!   remaining uses are in the group" is "uncovered consumers ⊆ group".
//!
//! One `Scratch` — the rollout's state plus the group, mask, ready-count
//! and bank-pressure buffers — is lent to the selection loop and to
//! every rollout in turn. It lives, with the covering state, the pool
//! (its masks and the flat [`CliquePool`] it is generated into), the
//! candidate groups and index lists, in a `Workspace` kept per thread,
//! as `bound.rs`'s and `covergraph.rs`'s scratch are. Buffers grow only
//! when a graph is larger than any the thread has covered. Nothing read
//! from a scratch survives a step: each user clears or re-seeds a
//! buffer before reading it, so reuse cannot change a decision, a budget
//! charge, or an emitted byte. Once a thread's buffers are warm, a
//! covering call allocates only the schedule it returns (one `Vec` per
//! selected group, and the spill records) and what a spill adds to the
//! graph.
//!
//! Rollout memo: for a fixed clique pool and cover graph, a greedy
//! rollout step depends only on the covered set it starts from, and
//! rollouts keep passing through the same sets: the tied candidates of
//! one selection step converge, and the next step rolls out again from
//! where the winner went. The scratch keeps a memo keyed by the covered
//! set's words. Per set it holds the successor set (after the set's
//! greedy step) and, once a rollout has run through the set to the end,
//! the estimate from the set to the end. A rollout that meets a known
//! estimate returns it; one that meets a known successor moves on
//! without charging; otherwise it charges one budget unit and runs the
//! step, then links the successor. Every computed step is still charged
//! exactly once, so `node_expansions` keeps counting work done; a set is
//! just never computed twice under one pool. Rollouts stopped by the
//! incumbent cutoff or by budget exhaustion write no estimates, but
//! their successor links stay. The memo is reset whenever the pool is
//! regenerated (at the start and after each spill, since the graph
//! grows).
//!
//! Incumbent cutoff: the selection loop asks only whether a tied
//! candidate's estimate strictly beats the best one so far, so every
//! rollout after the first is capped at that incumbent and abandoned as
//! soon as a lower bound shows it cannot beat it: `bound.rs`'s rollout
//! bound over the uncovered set, the largest of the clique-size, unit,
//! bus and chain terms, read from per-unit, per-bus and per-level masks
//! (`RolloutRows`) that `Rows` builds beside its own. Each estimate is
//! then `min(uncut, incumbent)`, where `uncut` is what a fresh rollout with
//! no cutoff and an empty memo gives; the test-only oracle checks this
//! for every estimate taken. That equality is why the cap cannot change
//! a decision. A cut rollout follows a prefix of the path the uncut one
//! would take and links every step it computed, so the cutoff only
//! skips charges. A memo that kept only finished estimates would lose
//! that: a cut rollout would leave nothing behind and pay again for the
//! same steps later.

use crate::bound::{record_twin, schedule_lower_bound, twin_length, RolloutRows};
use crate::budget::{Budget, Exhaustion};
use crate::cliques::{conflict, CliquePool};
use crate::covergraph::{CnId, CoverGraph, Operand};
use crate::invariants::verify_schedule;
use crate::options::CodegenOptions;
use crate::rowset::RowSet;
use aviv_ir::{bitset, BitMatrix, BitSet, Sym, SymbolTable};
use aviv_isdl::{BankId, Target};
use aviv_verify::{Code, Diagnostic};
use std::cell::RefCell;
use std::error::Error;
use std::fmt;

/// A spill inserted during covering, with everything the peephole pass
/// needs to try undoing it.
#[derive(Debug, Clone)]
pub struct SpillRecord {
    /// The memory slot.
    pub slot: Sym,
    /// The spilled value.
    pub victim: CnId,
    /// The spill-store node (`None` for rematerialized loads).
    pub spill: Option<CnId>,
    /// Every node created for this spill (stores, moves, loads).
    pub nodes: Vec<CnId>,
}

/// The covering solution: an ordered set of shrunk cliques.
#[derive(Debug, Clone)]
pub struct Schedule {
    /// One entry per VLIW instruction, in execution order; each lists the
    /// cover nodes grouped into that instruction.
    pub steps: Vec<Vec<CnId>>,
    /// Spills inserted along the way.
    pub spills: Vec<SpillRecord>,
}

impl Schedule {
    /// Number of instructions (the paper's cost function).
    pub fn len(&self) -> usize {
        self.steps.len()
    }

    /// True when the block needed no instructions.
    pub fn is_empty(&self) -> bool {
        self.steps.is_empty()
    }

    /// The step index of each node.
    pub fn step_of(&self, graph_len: usize) -> Vec<Option<usize>> {
        let mut out = vec![None; graph_len];
        for (t, step) in self.steps.iter().enumerate() {
            for &n in step {
                out[n.index()] = Some(t);
            }
        }
        out
    }
}

/// Failure of the covering engine.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CoverError {
    /// Register pressure could not be relieved (every live value is
    /// pinned by a block live-out and no bank has room).
    RegisterPressure {
        /// The bank that could not be relieved.
        bank: BankId,
    },
    /// Internal safety valve: the spill loop did not converge.
    SpillLimit,
    /// The cooperative [`Budget`] ran out mid-covering; the driver
    /// reacts by stepping down its degradation ladder.
    Budget(Exhaustion),
    /// Branch and bound across assignments: the assignment was skipped
    /// before any work because its admissible lower bound already
    /// reaches the budget's incumbent (see [`crate::budget`]), or because
    /// a relabelled twin of its graph already covered, without a spill,
    /// at a length no shorter than the incumbent; either way no schedule
    /// of it could be strictly shorter.
    Bounded {
        /// [`schedule_lower_bound`] of the fresh graph, or, for a twin,
        /// the exact length its recorded twin covered at.
        bound: usize,
        /// The shortest schedule completed under the budget.
        incumbent: usize,
    },
    /// A defect the engine used to panic (or silently loop) on, reported
    /// as a structured diagnostic instead: a wedged dependence frontier,
    /// an uncoverable node, or a spill-machinery precondition violation.
    Internal(Diagnostic),
}

impl fmt::Display for CoverError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CoverError::RegisterPressure { bank } => {
                write!(f, "cannot relieve register pressure in bank {bank}")
            }
            CoverError::SpillLimit => write!(f, "spill loop failed to converge"),
            CoverError::Budget(why) => write!(f, "covering budget ran out: {why}"),
            CoverError::Bounded { bound, incumbent } => write!(
                f,
                "assignment pruned: its lower bound {bound} reaches the incumbent's {incumbent} instructions"
            ),
            CoverError::Internal(d) => write!(f, "covering engine defect: {d}"),
        }
    }
}

impl Error for CoverError {}

/// The node ids in a mask, ascending.
fn mask_ids(mask: &[u64]) -> impl Iterator<Item = CnId> + '_ {
    bitset::Iter::new(mask).map(|i| CnId(i as u32))
}

/// Overwrite `mask` with the `width`-word mask of `ids`.
fn set_mask(mask: &mut Vec<u64>, width: usize, ids: &[CnId]) {
    mask.clear();
    mask.resize(width, 0);
    for id in ids {
        mask[id.index() / 64] |= 1 << (id.index() % 64);
    }
}

/// Per-graph masks over cover-node ids, one matrix row each (see the
/// module doc). Rebuilt in place whenever the graph may have changed:
/// at the start of covering and after every spill.
#[derive(Default)]
struct Rows {
    /// Register banks.
    banks: usize,
    /// In order: alive nodes; pinned values; nodes that define into
    /// any bank; per bank, the nodes defining into it; then per node
    /// its predecessors (operands and ordering deps) followed by its
    /// operand consumers; then the rollout bound's rows. One column per
    /// node slot, dead ones included.
    matrix: BitMatrix,
    /// Where the rollout bound's rows are.
    bound: RolloutRows,
}

impl Rows {
    const ALIVE: usize = 0;
    const PINNED: usize = 1;
    const VALUES: usize = 2;
    /// Masks before the per-bank rows.
    const FIXED: usize = 3;

    /// Rebuild every row for `graph`; the rollout bound's rows only
    /// `with_bound` (the sequential engines take no lookahead).
    fn rebuild(&mut self, graph: &CoverGraph, target: &Target, with_bound: bool) {
        let len = graph.len();
        self.banks = target.machine.banks().len();
        let nodes_end = Rows::FIXED + self.banks + 2 * len;
        self.bound = if with_bound {
            RolloutRows::new(graph, target, nodes_end)
        } else {
            RolloutRows::default()
        };
        self.matrix.reset(nodes_end + self.bound.len(), len);
        for &(_, operand) in graph.live_out() {
            if let Operand::Cn(c) = operand {
                self.matrix.set(Rows::PINNED, c.index());
            }
        }
        for id in graph.alive() {
            self.matrix.set(Rows::ALIVE, id.index());
            if let Some(bank) = graph.node(id).dest_bank(target) {
                self.matrix.set(Rows::VALUES, id.index());
                self.matrix.set(Rows::FIXED + bank.index(), id.index());
            }
            let preds = self.node_row(id);
            for p in graph.preds(id) {
                self.matrix.set(preds, p.index());
            }
            for &u in graph.uses(id) {
                self.matrix.set(preds + 1, u.index());
            }
        }
        if with_bound {
            self.bound.fill(&mut self.matrix, graph);
        }
        #[cfg(test)]
        oracle::snapshot(graph, target);
    }

    /// Node slots in the graph, dead ones included.
    fn len(&self) -> usize {
        self.matrix.cols()
    }

    /// Words per mask.
    fn width(&self) -> usize {
        self.len().div_ceil(64)
    }

    fn row(&self, row: usize) -> &[u64] {
        self.matrix.row_words(row)
    }

    fn alive(&self) -> &[u64] {
        self.row(Rows::ALIVE)
    }

    fn pinned(&self) -> &[u64] {
        self.row(Rows::PINNED)
    }

    fn values(&self) -> &[u64] {
        self.row(Rows::VALUES)
    }

    fn bank(&self, bank: usize) -> &[u64] {
        self.row(Rows::FIXED + bank)
    }

    /// The row of `id`'s predecessors; its consumers are the next row.
    fn node_row(&self, id: CnId) -> usize {
        Rows::FIXED + self.banks + 2 * id.index()
    }

    /// Every node's predecessor row and consumer row, `2 * width` words
    /// per node in id order.
    fn node_rows(&self) -> &[u64] {
        let first = self.node_row(CnId(0));
        self.matrix.rows_words(first..first + 2 * self.len())
    }

    fn preds(&self, id: CnId) -> &[u64] {
        self.row(self.node_row(id))
    }

    fn consumers(&self, id: CnId) -> &[u64] {
        self.row(self.node_row(id) + 1)
    }

    /// Whether `id` has a consumer outside `covered`.
    fn has_uses_left(&self, id: CnId, covered: &BitSet) -> bool {
        self.consumers(id)
            .iter()
            .zip(covered.words())
            .any(|(&c, &done)| c & !done != 0)
    }
}

/// Dynamic covering state, recomputed in place after every selection.
#[derive(Default)]
struct State {
    /// Scheduled nodes.
    covered: BitSet,
    /// Uncovered alive nodes whose predecessors are all covered, as a
    /// mask.
    ready: Vec<u64>,
    /// Live register values per bank.
    pressure: Vec<usize>,
}

impl State {
    /// A state over `graph` with nothing covered yet.
    fn new(graph: &CoverGraph) -> State {
        State {
            covered: BitSet::new(graph.len()),
            ..State::default()
        }
    }

    /// Recompute every field but `covered` from `covered` and the masks
    /// of `rows`, reusing the buffers: one pass over the per-node rows
    /// notes which nodes have an uncovered predecessor and which have an
    /// uncovered consumer. A value is live when it is covered, defines
    /// into a bank, and is pinned or has a consumer left.
    fn recompute(&mut self, rows: &Rows) {
        let w = rows.width();
        self.ready.clear();
        self.ready.resize(w, 0);
        self.pressure.clear();
        self.pressure.resize(rows.banks, 0);
        let covered = self.covered.words();
        // An empty graph has no rows.
        let mut nodes = rows.node_rows().chunks_exact(2 * w.max(1));
        for j in 0..w {
            let (mut blocked, mut pending) = (0u64, 0u64);
            for (bit, node) in nodes.by_ref().take(64).enumerate() {
                let (preds, uses) = node.split_at(w);
                let (mut open_pred, mut open_use) = (0, 0);
                for ((&p, &u), &done) in preds.iter().zip(uses).zip(covered) {
                    open_pred |= p & !done;
                    open_use |= u & !done;
                }
                blocked |= u64::from(open_pred != 0) << bit;
                pending |= u64::from(open_use != 0) << bit;
            }
            let (alive, done) = (rows.alive()[j], covered[j]);
            self.ready[j] = alive & !done & !blocked;
            let live = alive & done & rows.values()[j] & (rows.pinned()[j] | pending);
            for (b, load) in self.pressure.iter_mut().enumerate() {
                *load += (live & rows.bank(b)[j]).count_ones() as usize;
            }
        }
        #[cfg(test)]
        oracle::check_state(self);
    }

    fn has_ready(&self) -> bool {
        self.ready.iter().any(|&w| w != 0)
    }

    /// The ready nodes in ascending id order.
    fn ready_ids(&self) -> impl Iterator<Item = CnId> + '_ {
        mask_ids(&self.ready)
    }

    /// Anti-wedge selection policy: scheduling `group` (a mask) must not
    /// leave any bank completely full unless at least one value live in
    /// that bank will be consumable in the very next step (a consumer
    /// with every other predecessor already covered). Greedy max-cover
    /// otherwise parks far-future values in the last registers of
    /// scarce banks, which wedges the covering loop into spill
    /// thrashing.
    ///
    /// `p_after` is the bank load [`State::pressure_after`] computed for
    /// `group`, which must have fit.
    fn policy_ok(&self, target: &Target, rows: &Rows, group: &[u64], p_after: &[usize]) -> bool {
        let covered = self.covered.words();
        let done = |id: CnId| {
            let k = id.index() / 64;
            (covered[k] | group[k]) & (1 << (id.index() % 64)) != 0
        };
        let all_done = |row: &[u64]| {
            row.iter()
                .zip(covered.iter().zip(group))
                .all(|(&r, (&c, &g))| r & !(c | g) == 0)
        };
        let ok = p_after.iter().enumerate().all(|(bi, &load)| {
            // A full bank needs a value there with a consumer that is
            // ready right afterwards.
            load < target.machine.banks()[bi].size as usize
                || mask_ids(rows.bank(bi)).filter(|&v| done(v)).any(|v| {
                    mask_ids(rows.consumers(v)).any(|u| !done(u) && all_done(rows.preds(u)))
                })
        });
        #[cfg(test)]
        oracle::check_policy(self, group, p_after, ok);
        ok
    }

    /// Bank loads after scheduling `group` (a mask of ready nodes),
    /// written into `p`: returns false when any bank would exceed its
    /// size. A value dies when it has consumers left and all of them
    /// are in `group`, so only an operand of a member can die: the scan
    /// visits the union of the members' predecessor rows, each value
    /// once, instead of every alive node.
    fn pressure_after(
        &self,
        target: &Target,
        rows: &Rows,
        group: &[u64],
        p: &mut Vec<usize>,
    ) -> bool {
        p.clone_from(&self.pressure);
        let covered = self.covered.words();
        for (k, &members) in group.iter().enumerate() {
            let mut operands = 0;
            for g in mask_ids(group) {
                operands |= rows.preds(g)[k];
            }
            operands &= !rows.pinned()[k];
            let mut dying = 0u64;
            for v in mask_ids(&[operands]) {
                let uses = rows.consumers(CnId(v.0 + 64 * k as u32));
                let (mut left, mut outside) = (0, 0);
                for ((&u, &done), &g) in uses.iter().zip(covered).zip(group) {
                    left |= u & !done;
                    outside |= u & !done & !g;
                }
                if left != 0 && outside == 0 {
                    dying |= 1 << v.0;
                }
            }
            for (b, load) in p.iter_mut().enumerate() {
                let bank = rows.bank(b)[k];
                *load += (members & bank).count_ones() as usize;
                *load -= (dying & bank).count_ones() as usize;
            }
        }
        let fits = p
            .iter()
            .zip(target.machine.banks())
            .all(|(&load, bank)| load <= bank.size as usize);
        #[cfg(test)]
        oracle::check_pressure(self, group, fits, p);
        fits
    }
}

/// Clique pool over the *current* uncovered node set, plus the graph's
/// [`Rows`]: both are rebuilt together, in place.
#[derive(Default)]
struct Pool {
    rows: Rows,
    /// The legal cliques over matrix indices, in pool order.
    legal: CliquePool,
    /// Number of cliques.
    len: usize,
    /// Each clique as a mask over node ids, stored word-major: word `k`
    /// of clique `ci` is `cliques[k * len + ci]`, so the ready counts of
    /// the whole pool are one pass per word.
    cliques: Vec<u64>,
    /// The size of the largest clique (at least 1): no greedy step
    /// covers more nodes.
    max_per_step: usize,
}

impl Pool {
    /// Regenerate the pool for the nodes outside `covered`, adding the
    /// budget units clique generation spends to `stats.clique_steps`.
    fn generate(
        &mut self,
        graph: &CoverGraph,
        target: &Target,
        covered: &BitSet,
        options: &CodegenOptions,
        budget: &Budget,
        stats: &mut SearchStats,
    ) -> Result<(), CoverError> {
        self.rows.rebuild(graph, target, true);
        #[cfg(test)]
        let reference_budget = budget.clone();
        let spent = budget.spent();
        let generated = self.legal.generate(
            graph,
            target,
            graph.alive().filter(|n| !covered.contains(n.index())),
            options.clique_level_window,
            budget,
        );
        stats.clique_steps += budget.spent() - spent;
        generated.map_err(CoverError::Internal)?;
        self.len = self.legal.len();
        self.cliques.clear();
        self.cliques.resize(self.len * self.rows.width(), 0);
        self.max_per_step = 1;
        for ci in 0..self.len {
            let mut size = 0;
            for id in self.legal.members(ci) {
                self.cliques[id.index() / 64 * self.len + ci] |= 1 << (id.index() % 64);
                size += 1;
            }
            self.max_per_step = self.max_per_step.max(size);
        }
        #[cfg(test)]
        crate::cliques::tests::reference::check_pool(
            graph,
            target,
            covered,
            options.clique_level_window,
            &reference_budget,
            &self.legal,
            self.max_per_step,
            budget.spent() - spent,
        );
        Ok(())
    }

    /// Write into `counts` the number of ready members of every clique.
    fn ready_counts(&self, ready: &[u64], counts: &mut Vec<u32>) {
        counts.clear();
        counts.resize(self.len, 0);
        for (column, &r) in self.cliques.chunks_exact(self.len.max(1)).zip(ready) {
            for (count, &c) in counts.iter_mut().zip(column) {
                *count += (c & r).count_ones();
            }
        }
    }

    /// The mask words of clique `ci`'s shrunk form: its members in
    /// `ready`.
    fn shrunk<'a>(&'a self, ci: usize, ready: &'a [u64]) -> impl Iterator<Item = u64> + 'a {
        let words = ready.iter().enumerate();
        words.map(move |(k, &r)| self.cliques[k * self.len + ci] & r)
    }
}

/// One selection step's candidate groups, stored flat: group `i` is
/// `members[spans[i].0..spans[i].1]`, and its mask is the `i`-th run of
/// `width` words in `masks`.
#[derive(Default)]
struct Groups {
    members: Vec<CnId>,
    spans: Vec<(usize, usize)>,
    masks: Vec<u64>,
    width: usize,
}

impl Groups {
    /// Collect the shrunk-to-ready form of every clique in `pool`,
    /// dropping empty and repeated groups (the first occurrence keeps
    /// its place).
    fn collect(&mut self, pool: &Pool, ready: &[u64], counts: &mut Vec<u32>) {
        self.members.clear();
        self.spans.clear();
        self.masks.clear();
        self.width = pool.rows.width();
        self.masks.reserve((pool.len + 1) * self.width);
        pool.ready_counts(ready, counts);
        for ci in (0..pool.len).filter(|&ci| counts[ci] > 0) {
            let start = self.masks.len();
            self.masks.extend(pool.shrunk(ci, ready));
            let (kept, g) = self.masks.split_at(start);
            let same = |m: &[u64]| m.iter().zip(g).all(|(a, b)| a == b);
            if kept.chunks_exact(self.width.max(1)).any(same) {
                self.masks.truncate(start);
            } else {
                let at = self.members.len();
                self.members.extend(mask_ids(g));
                self.spans.push((at, self.members.len()));
            }
        }
    }

    fn len(&self) -> usize {
        self.spans.len()
    }

    fn is_empty(&self) -> bool {
        self.spans.is_empty()
    }

    fn get(&self, i: usize) -> &[CnId] {
        let (a, b) = self.spans[i];
        &self.members[a..b]
    }

    fn mask(&self, i: usize) -> &[u64] {
        &self.masks[i * self.width..(i + 1) * self.width]
    }
}

/// Marks a [`MemoEntry`] successor or value not known yet.
const UNKNOWN: u32 = u32::MAX;

/// What the rollouts have learned about one covered set under the
/// current pool.
#[derive(Clone, Copy)]
struct MemoEntry {
    /// Number of covered nodes.
    count: u32,
    /// The entry the greedy step from this set leads to, once computed.
    succ: u32,
    /// Steps from this set to the end of its rollout, once a rollout
    /// that ran to the end has passed through it.
    value: u32,
}

/// The rollout memo (see the module doc): covered sets to what the
/// rollouts learned about them, valid for one clique pool. Entry `i`'s
/// key is row `i` of a flat [`RowSet`], so recording a state allocates
/// nothing until the reserved capacity runs out.
#[derive(Default)]
struct Memo {
    keys: RowSet,
    entries: Vec<MemoEntry>,
    /// The entries the current rollout has stepped out of, in order.
    path: Vec<u32>,
}

impl Memo {
    /// Entries reserved at every reset.
    const RESERVE: usize = 512;

    /// Forget every entry: the pool was regenerated, and possibly the
    /// graph grew to `graph_len` nodes.
    fn reset(&mut self, graph_len: usize) {
        self.keys.reset(graph_len.div_ceil(64), Memo::RESERVE);
        self.entries.clear();
        self.entries.reserve(Memo::RESERVE);
        self.path.clear();
        self.path.reserve(graph_len);
    }

    fn key(&self, e: u32) -> &[u64] {
        self.keys.row(e)
    }

    /// The entry for `covered`, added (with nothing known) if new.
    fn entry(&mut self, covered: &BitSet) -> u32 {
        let (e, new) = self.keys.insert(covered.words());
        if new {
            self.entries.push(MemoEntry {
                count: covered.count() as u32,
                succ: UNKNOWN,
                value: UNKNOWN,
            });
        }
        e
    }
}

/// Search counters, summed over one or more covering calls. They
/// describe the work only: the emitted code does not depend on them.
/// Covering fills the lookahead and clique counters; the driver counts
/// the assignments the bound pruned.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SearchStats {
    /// Lookahead rollouts run (one per tied candidate evaluated).
    pub rollouts: u64,
    /// Greedy rollout steps computed, each charged one budget unit.
    pub rollout_steps: u64,
    /// Rollout steps answered by the memo instead: a known successor
    /// followed, or a known estimate to the end taken.
    pub memo_hits: u64,
    /// Rollouts whose estimate the incumbent cutoff settled (see the
    /// module doc): stopped early, or capped at the incumbent.
    pub rollouts_cut: u64,
    /// Budget units clique generation spent: one per recursive call of
    /// the enumerator, for every pool generated (at the start and after
    /// each spill).
    pub clique_steps: u64,
    /// Assignments skipped before covering because their lower bound
    /// already reached the incumbent, or because a relabelled twin of
    /// their graph had covered without a spill ([`CoverError::Bounded`]).
    pub assignments_pruned: u64,
}

/// The buffers one covering call lends to its selection loop and to
/// every lookahead rollout (see the module doc).
#[derive(Default)]
struct Scratch {
    /// The rollout's state; its `covered` is re-seeded per rollout.
    rollout: State,
    /// A candidate group under construction.
    group: Vec<CnId>,
    /// The best group found so far.
    best: Vec<CnId>,
    /// A candidate group's mask over node ids.
    mask: Vec<u64>,
    /// A rollout step's ready count per pool clique.
    counts: Vec<u32>,
    /// [`State::pressure_after`]'s output.
    pressure: Vec<usize>,
    /// The rollout memo for the current pool.
    memo: Memo,
}

impl Scratch {
    /// Start over for a newly generated `pool`: forget the memo and
    /// reserve room for a step's ready counts once.
    fn reset(&mut self, pool: &Pool) {
        self.memo.reset(pool.rows.len());
        self.counts.clear();
        self.counts.reserve(pool.len);
    }
}

/// Cover `graph` with a minimal set of legal cliques, producing the
/// schedule. May insert spills (mutating the graph and `syms`).
///
/// # Errors
///
/// See [`CoverError`]. On a validated machine with bank sizes ≥ 2 this
/// only fails when live-out values alone exceed a bank.
pub fn cover(
    graph: &mut CoverGraph,
    target: &Target,
    syms: &mut SymbolTable,
    options: &CodegenOptions,
) -> Result<Schedule, CoverError> {
    cover_budgeted(graph, target, syms, options, &Budget::unlimited())
}

/// [`cover`] under a cooperative [`Budget`]: the selection loop, the
/// lookahead estimator, and clique regeneration each charge fuel as they
/// expand work, and the engine returns [`CoverError::Budget`] as soon as
/// the allotment runs out or the deadline passes.
///
/// The budget also carries the incumbent (see [`crate::budget`]): a
/// completed schedule records its length there, and a call whose fresh
/// `graph` has a [`schedule_lower_bound`] at least that long returns
/// [`CoverError::Bounded`] before charging anything. A schedule
/// completed without a spill also records the graph's canonical form,
/// and a later call on a relabelled twin of that graph returns
/// [`CoverError::Bounded`] too (`bound.rs`, "The exact twin bound").
/// Cover a block's assignments in turn under one budget to prune as the
/// driver does; use a fresh budget per block and rung.
///
/// # Errors
///
/// See [`CoverError`].
pub fn cover_budgeted(
    graph: &mut CoverGraph,
    target: &Target,
    syms: &mut SymbolTable,
    options: &CodegenOptions,
    budget: &Budget,
) -> Result<Schedule, CoverError> {
    cover_with_stats(
        graph,
        target,
        syms,
        options,
        budget,
        &mut SearchStats::default(),
    )
}

/// [`cover_budgeted`], adding the call's lookahead counters to `stats`
/// (also when it fails).
///
/// # Errors
///
/// See [`CoverError`].
pub fn cover_with_stats(
    graph: &mut CoverGraph,
    target: &Target,
    syms: &mut SymbolTable,
    options: &CodegenOptions,
    budget: &Budget,
    stats: &mut SearchStats,
) -> Result<Schedule, CoverError> {
    prune(graph, target, budget)?;
    WORKSPACE.with(|w| {
        cover_in(
            &mut w.borrow_mut(),
            graph,
            target,
            syms,
            options,
            budget,
            stats,
        )
    })
}

/// Everything a covering call works in besides the schedule it returns:
/// the state, the pool, the rollouts' [`Scratch`], the candidate groups
/// and index lists, and the focus and spill buffers. One lives on each
/// thread, as `bound.rs`'s and `covergraph.rs`'s scratch do, and every
/// call re-seeds each buffer before reading it, so a warm call
/// allocates only the schedule it returns.
#[derive(Default)]
struct Workspace {
    state: State,
    pool: Pool,
    scratch: Scratch,
    groups: Groups,
    /// Indices into `groups`: the candidates, those feasible under the
    /// register bound, and those that also pass the anti-wedge policy.
    candidates: Vec<usize>,
    plain: Vec<usize>,
    feasible: Vec<usize>,
    /// The focus node's uncovered predecessor closure, and the stack
    /// that walks it.
    closure: BitSet,
    stack: Vec<CnId>,
    /// Per bank, the ready nodes a spill finds blocked there.
    blocked: Vec<usize>,
}

thread_local! {
    static WORKSPACE: RefCell<Workspace> = RefCell::new(Workspace::default());
}

/// The body of [`cover_with_stats`], after the bound, in `workspace`.
fn cover_in(
    workspace: &mut Workspace,
    graph: &mut CoverGraph,
    target: &Target,
    syms: &mut SymbolTable,
    options: &CodegenOptions,
    budget: &Budget,
    stats: &mut SearchStats,
) -> Result<Schedule, CoverError> {
    let Workspace {
        state,
        pool,
        scratch,
        groups,
        candidates,
        plain,
        feasible,
        closure,
        stack,
        blocked,
    } = workspace;
    state.covered.reset(graph.len());
    let mut steps: Vec<Vec<CnId>> = Vec::new();
    let mut spills: Vec<SpillRecord> = Vec::new();
    pool.generate(graph, target, &state.covered, options, budget, stats)?;
    scratch.reset(pool);
    let spill_limit = 4 * graph.len().max(8);
    // Deadlock breaker: once spilling starts, commit to one nearly-ready
    // node and schedule only toward it (its uncovered predecessor
    // closure) until it is covered.
    let mut focus: Option<CnId> = None;
    // Progress level of the previous spill: spilling twice at the same
    // covered count means eviction alone is not advancing — take the best
    // plain-feasible group instead (the anti-wedge policy is a
    // preference, not a straitjacket).
    let mut last_spill_progress: Option<usize> = None;

    loop {
        let total_alive = graph.live_len();
        if state.covered.count() >= total_alive {
            break;
        }
        budget.charge(1).map_err(CoverError::Budget)?;
        state.recompute(&pool.rows);
        if !state.has_ready() {
            // A dependence cycle or a dead operand: without the guard
            // this loop would spin forever (it used to be a debug
            // assertion, invisible in release builds).
            return Err(wedged(state.covered.count(), total_alive));
        }

        // Candidate groups: the shrunk-to-ready form of every clique.
        groups.collect(pool, &state.ready, &mut scratch.counts);
        if groups.is_empty() {
            return Err(CoverError::Internal(Diagnostic::new(
                Code::C004,
                "covering",
                "no candidate group covers any ready node",
            )));
        }

        // Focused mode: restrict selection to groups that advance the
        // focus node's uncovered predecessor closure.
        let focused = match focus {
            Some(c) if !state.covered.contains(c.index()) && !graph.is_dead(c) => {
                closure.reset(graph.len());
                stack.clear();
                stack.push(c);
                while let Some(n) = stack.pop() {
                    if state.covered.contains(n.index()) || closure.contains(n.index()) {
                        continue;
                    }
                    closure.insert(n.index());
                    stack.extend(graph.preds(n));
                }
                true
            }
            _ => {
                focus = None;
                false
            }
        };
        candidates.clear();
        if focused {
            candidates.extend(
                (0..groups.len())
                    .filter(|&gi| groups.get(gi).iter().any(|n| closure.contains(n.index()))),
            );
            // Use the focused subset only when it contains a feasible
            // group — otherwise fall back to the full set (e.g. a pending
            // spill store outside the closure may be the only way to
            // relieve pressure).
            let any_feasible = candidates.iter().any(|&gi| {
                state.pressure_after(target, &pool.rows, groups.mask(gi), &mut scratch.pressure)
            });
            if !any_feasible {
                candidates.clear();
            }
        }
        if candidates.is_empty() {
            candidates.extend(0..groups.len());
        }

        // Feasible groups under the register bound; prefer those that
        // also satisfy the anti-wedge policy.
        plain.clear();
        feasible.clear();
        for &gi in candidates.iter() {
            let g = groups.mask(gi);
            if state.pressure_after(target, &pool.rows, g, &mut scratch.pressure) {
                plain.push(gi);
                if state.policy_ok(target, &pool.rows, g, &scratch.pressure) {
                    feasible.push(gi);
                }
            }
        }

        let chosen: Option<Vec<CnId>> = if !feasible.is_empty() {
            let best_size = feasible
                .iter()
                .map(|&gi| groups.get(gi).len())
                .max()
                .expect("feasible set is non-empty here");
            let mut tied = feasible
                .iter()
                .copied()
                .filter(|&gi| groups.get(gi).len() == best_size)
                .peekable();
            let mut best_gi = tied.next().expect("the largest group ties with itself");
            if options.lookahead && tied.peek().is_some() {
                // Evaluate candidates in order, keeping the incumbent.
                // Later rollouts abort as soon as a lower bound proves
                // they cannot strictly beat it; ties keep the earlier
                // group, exactly as the plain (estimate, index) minimum
                // would.
                let mut estimate = |gi: usize, cutoff: Option<usize>| {
                    let est = lookahead_estimate(
                        graph,
                        target,
                        &state.covered,
                        pool,
                        groups.get(gi),
                        budget,
                        cutoff,
                        scratch,
                        stats,
                    );
                    #[cfg(test)]
                    oracle::check(
                        graph,
                        target,
                        &state.covered,
                        pool,
                        groups.get(gi),
                        cutoff,
                        est,
                        !spills.is_empty(),
                    );
                    est
                };
                let mut best_est = estimate(best_gi, None);
                for gi in tied {
                    let est = estimate(gi, Some(best_est));
                    if est < best_est {
                        best_est = est;
                        best_gi = gi;
                    }
                }
            }
            Some(groups.get(best_gi).to_vec())
        } else {
            // Shrink the biggest groups: drop value-defining members until
            // the remainder fits.
            let Scratch {
                group: g,
                best,
                mask,
                pressure,
                ..
            } = &mut *scratch;
            let width = pool.rows.width();
            best.clear();
            for &gi in candidates.iter() {
                g.clear();
                g.extend_from_slice(groups.get(gi));
                let mut fits = false;
                while !g.is_empty() {
                    set_mask(mask, width, g);
                    if state.pressure_after(target, &pool.rows, mask, pressure) {
                        fits = true;
                        break;
                    }
                    // Drop a member defining into the most-loaded bank.
                    let drop_idx = g
                        .iter()
                        .enumerate()
                        .filter_map(|(k, &id)| {
                            graph
                                .node(id)
                                .dest_bank(target)
                                .map(|b| (k, state.pressure[b.index()]))
                        })
                        .max_by_key(|&(_, load)| load)
                        .map(|(k, _)| k);
                    match drop_idx {
                        Some(k) => {
                            g.remove(k);
                        }
                        None => break, // only stores left; must be feasible
                    }
                }
                if fits
                    && g.len() > best.len()
                    && state.policy_ok(target, &pool.rows, mask, pressure)
                {
                    std::mem::swap(best, g);
                }
            }
            (!best.is_empty()).then(|| best.clone())
        };

        match chosen {
            Some(group) => {
                for &id in &group {
                    state.covered.insert(id.index());
                }
                steps.push(group);
            }
            None => {
                // Spill: every ready node defines into a full bank and
                // nothing dies. Pick the most-contended bank (§IV-D: "the
                // most needed resource").
                if spills.len() >= spill_limit {
                    return Err(CoverError::SpillLimit);
                }
                if last_spill_progress == Some(state.covered.count()) {
                    if let Some(&gi) = plain.iter().max_by_key(|&&gi| groups.get(gi).len()) {
                        let group = groups.get(gi).to_vec();
                        for &id in &group {
                            state.covered.insert(id.index());
                        }
                        steps.push(group);
                        last_spill_progress = None;
                        continue;
                    }
                }
                last_spill_progress = Some(state.covered.count());
                blocked.clear();
                blocked.resize(target.machine.banks().len(), 0);
                for r in state.ready_ids() {
                    if let Some(b) = graph.node(r).dest_bank(target) {
                        if state.pressure[b.index()]
                            >= target.machine.banks()[b.index()].size as usize
                        {
                            blocked[b.index()] += 1;
                        }
                    }
                }
                let bank = BankId(
                    blocked
                        .iter()
                        .enumerate()
                        .max_by_key(|&(_, c)| c)
                        .map(|(i, _)| i as u32)
                        .expect("machine has banks"),
                );
                // Values consumed inside the focus closure are protected:
                // evicting the operands of the very node we are trying to
                // unblock would spin forever.
                let victim = spill_victim(graph, target, &state.covered, bank, |id| {
                    focused && graph.uses(id).iter().any(|u| closure.contains(u.index()))
                });
                let Some(victim) = victim else {
                    // Nothing evictable. If some group was feasible under
                    // the raw pressure bound (the anti-wedge policy vetoed
                    // it), scheduling it is the only way forward.
                    if let Some(&gi) = plain.iter().max_by_key(|&&gi| groups.get(gi).len()) {
                        let group = groups.get(gi).to_vec();
                        for &id in &group {
                            state.covered.insert(id.index());
                        }
                        steps.push(group);
                        continue;
                    }
                    return Err(CoverError::RegisterPressure { bank });
                };
                if focus.is_none() {
                    // Commit to the node whose execution will actually
                    // relieve the blocked bank: an uncovered consumer of a
                    // currently-live value there, as nearly ready as
                    // possible.
                    let covered = &state.covered;
                    let rows = &pool.rows;
                    focus = graph
                        .alive()
                        .filter(|&n| {
                            !covered.contains(n.index())
                                && graph.preds(n).any(|p| {
                                    covered.contains(p.index())
                                        && rows.has_uses_left(p, covered)
                                        && graph.node(p).dest_bank(target) == Some(bank)
                                })
                        })
                        .min_by_key(|&n| {
                            let missing = graph
                                .preds(n)
                                .filter(|p| !covered.contains(p.index()))
                                .count();
                            (missing, graph.level_bottom(n), n)
                        });
                }
                let (slot, outcome) = graph
                    .relieve_pressure(target, syms, victim, &state.covered)
                    .map_err(CoverError::Internal)?;
                state.covered.grow(graph.len());
                spills.push(SpillRecord {
                    slot,
                    victim,
                    spill: outcome.spill,
                    nodes: outcome.new_nodes,
                });
                // "New maximal cliques are then generated for all the
                // remaining uncovered nodes."
                pool.generate(graph, target, &state.covered, options, budget, stats)?;
                scratch.reset(pool);
            }
        }
    }

    let schedule = Schedule { steps, spills };
    debug_assert_eq!(verify_schedule(graph, target, &schedule), []);
    budget.record_schedule(schedule.len());
    if schedule.spills.is_empty() {
        // The graph is still the one covering started from.
        record_twin(graph, target, budget, schedule.len());
    }
    Ok(schedule)
}

/// Branch and bound across assignments: [`CoverError::Bounded`] when
/// `budget` holds an incumbent no longer than the fresh `graph`'s
/// [`schedule_lower_bound`], or when a relabelled twin of `graph`
/// covered without a spill under `budget` (the exact twin bound of
/// `bound.rs`; its length is then at least the incumbent). Nothing is
/// taken before there is an incumbent, so the first cover of a rung
/// costs nothing extra.
pub(crate) fn prune(
    graph: &CoverGraph,
    target: &Target,
    budget: &Budget,
) -> Result<(), CoverError> {
    let Some(incumbent) = budget.incumbent() else {
        return Ok(());
    };
    let bound = schedule_lower_bound(graph, target);
    if bound >= incumbent {
        return Err(CoverError::Bounded { bound, incumbent });
    }
    if let Some(len) = twin_length(graph, target, budget) {
        debug_assert!(len >= incumbent, "a twin shorter than the incumbent");
        return Err(CoverError::Bounded {
            bound: len,
            incumbent,
        });
    }
    Ok(())
}

/// Structured "covering wedged" defect: uncovered nodes remain but none
/// is ready — a dependence cycle or a dead operand, typically from
/// malformed intermediate state.
fn wedged(covered: usize, total: usize) -> CoverError {
    CoverError::Internal(Diagnostic::new(
        Code::C004,
        "covering",
        format!("{covered}/{total} nodes covered but nothing is ready (dependence cycle or dead operand)"),
    ))
}

/// The value to spill from `bank` when nothing ready fits: a covered,
/// alive value defining into `bank` that is not a block live-out and
/// still has an uncovered consumer. Belady's rule picks among them: the
/// value whose *next* use is farthest away (proxied by the dependence
/// depth of its nearest uncovered consumer), then the one whose *last*
/// use is farthest, then the lowest id. Evicting the farthest-needed
/// value is what lets the blocked dependence chain advance and makes the
/// spill loop converge; the freshly staged operand of the very next op
/// always loses the comparison. Values for which `protected` holds are
/// evicted only when nothing else is evictable. Every covering rung and
/// the phase-ordered comparator's list scheduler choose their victims
/// here.
pub fn spill_victim(
    graph: &CoverGraph,
    target: &Target,
    covered: &BitSet,
    bank: BankId,
    protected: impl Fn(CnId) -> bool,
) -> Option<CnId> {
    let evictable = || {
        graph.alive().filter(|&id| {
            covered.contains(id.index())
                && !graph
                    .live_out()
                    .iter()
                    .any(|&(_, op)| op == Operand::Cn(id))
                && graph.uses(id).iter().any(|u| !covered.contains(u.index()))
                && graph.node(id).dest_bank(target) == Some(bank)
        })
    };
    let key = |id: CnId| {
        let depths = || {
            graph
                .uses(id)
                .iter()
                .filter(|u| !covered.contains(u.index()))
                .map(|&u| graph.level_bottom(u))
        };
        (
            depths().min().unwrap_or(u32::MAX),
            depths().max().unwrap_or(u32::MAX),
            std::cmp::Reverse(id),
        )
    };
    evictable()
        .filter(|&id| !protected(id))
        .max_by_key(|&id| key(id))
        .or_else(|| evictable().max_by_key(|&id| key(id)))
}

/// Greedy completion estimate used as the §IV-D lookahead: pretend we
/// schedule `first`, then finish with plain max-cover selection under the
/// register bound and count the steps. Futures that wedge on pressure get
/// a heavy penalty — this is what steers the engine away from parking
/// far-future values in scarce registers. The rollout runs in `scratch`
/// and computes only the steps its memo does not already know (see the
/// module doc); the estimate is the one an empty memo would give.
///
/// When `cutoff` is set (the incumbent tie-break estimate), the
/// estimate is capped at it: the result is `min(uncut, cutoff)`. The
/// rollout aborts — returning the incumbent value — as soon as `steps`
/// plus the rollout bound on the remaining steps ([`RolloutRows`];
/// `bound.rs`, "The rollout bound") reaches it, so the eventual estimate
/// could not have been strictly smaller (the wedge penalty only inflates
/// it further). An estimate that
/// reaches the cutoff without that abort — a wedged future, or one whose
/// rest the memo supplied — is capped too. The caller only asks whether
/// a candidate strictly beats the incumbent, so the cap never changes
/// which group wins; the abort only skips budget charges the comparison
/// no longer needs.
#[allow(clippy::too_many_arguments)]
fn lookahead_estimate(
    graph: &CoverGraph,
    target: &Target,
    covered: &BitSet,
    pool: &Pool,
    first: &[CnId],
    budget: &Budget,
    cutoff: Option<usize>,
    scratch: &mut Scratch,
    stats: &mut SearchStats,
) -> usize {
    const STUCK_PENALTY: u32 = 1000;
    let Scratch {
        rollout,
        mask,
        counts,
        pressure,
        memo,
        ..
    } = scratch;
    let rows = &pool.rows;
    stats.rollouts += 1;
    rollout.covered.clone_from(covered);
    for &id in first {
        rollout.covered.insert(id.index());
    }
    let total = graph.live_len();
    let mut at = memo.entry(&rollout.covered);
    let mut steps = 1usize;
    memo.path.clear();
    // The estimate from the rollout's last state to the end.
    let value = loop {
        let e = memo.entries[at as usize];
        if e.count as usize >= total {
            break 0;
        }
        if e.value != UNKNOWN {
            stats.memo_hits += 1;
            break e.value;
        }
        if let Some(best) = cutoff {
            let (covered, left) = (memo.key(at), total - e.count as usize);
            let lb = rows
                .bound
                .steps_left(&rows.matrix, target, covered, left, pool.max_per_step);
            if steps + lb >= best {
                stats.rollouts_cut += 1;
                return best;
            }
        }
        if e.succ == UNKNOWN {
            // Soft charge: an estimator cannot propagate exhaustion, but
            // the enclosing selection loop's next charge observes it.
            budget.note(1);
            stats.rollout_steps += 1;
            if budget.exhaustion().is_some() {
                return steps;
            }
            rollout.covered.set_words(memo.key(at));
            rollout.recompute(rows);
            if !rollout.has_ready() {
                // Only a malformed graph gets here (the selection loop
                // reports it as wedged); like an exhausted rollout, this
                // one records no estimates.
                return steps;
            }
            // The first fitting clique among those with the most ready
            // members, in pool order (see the module doc): test the
            // cliques count by count, from the largest down.
            pool.ready_counts(&rollout.ready, counts);
            let top = counts.iter().copied().max().unwrap_or(0);
            let mut found = (1..=top).rev().any(|count| {
                (0..pool.len).filter(|&ci| counts[ci] == count).any(|ci| {
                    mask.clear();
                    mask.extend(pool.shrunk(ci, &rollout.ready));
                    rollout.pressure_after(target, rows, mask, pressure)
                })
            });
            if !found {
                // Try any single feasible ready node before declaring the
                // future stuck.
                found = rollout.ready_ids().any(|r| {
                    set_mask(mask, rows.width(), &[r]);
                    rollout.pressure_after(target, rows, mask, pressure)
                });
            }
            #[cfg(test)]
            oracle::check_choice(rollout, pool, found.then_some(&mask[..]));
            if !found {
                // Wedged: this branch would need another spill.
                let value = STUCK_PENALTY + (total - e.count as usize) as u32;
                memo.entries[at as usize].value = value;
                break value;
            }
            for id in mask_ids(mask) {
                rollout.covered.insert(id.index());
            }
            let succ = memo.entry(&rollout.covered);
            memo.entries[at as usize].succ = succ;
        } else {
            stats.memo_hits += 1;
        }
        memo.path.push(at);
        at = memo.entries[at as usize].succ;
        steps += 1;
    };
    // The rollout ran to the end: every state it passed now knows its
    // estimate.
    let mut v = value;
    for &p in memo.path.iter().rev() {
        v += 1;
        memo.entries[p as usize].value = v;
    }
    let est = steps + value as usize;
    match cutoff {
        Some(best) if est >= best => {
            stats.rollouts_cut += 1;
            best
        }
        _ => est,
    }
}

/// The peak register pressure `schedule` exerts: the maximum number of
/// values simultaneously occupying any one bank at any step. A value's
/// occupancy runs from its defining step through its last consumer's
/// step, or to the end of the block when it is live-out. Purely a
/// reporting metric (`avivc --report` prints it); the bank bounds are
/// enforced by covering and checked by V004 in
/// [`verify_schedule`].
pub fn peak_pressure(graph: &CoverGraph, target: &Target, schedule: &Schedule) -> usize {
    let n = graph.len();
    let steps = schedule.steps.len();
    if steps == 0 {
        return 0;
    }
    let step_of = schedule.step_of(n);
    let mut live_until = vec![None::<usize>; n];
    for id in graph.alive() {
        let Some(t) = step_of[id.index()] else {
            continue;
        };
        for arg in &graph.node(id).args {
            if let Operand::Cn(p) = arg {
                let e = &mut live_until[p.index()];
                *e = Some(e.map_or(t, |old: usize| old.max(t)));
            }
        }
    }
    for &(_, op) in graph.live_out() {
        if let Operand::Cn(c) = op {
            live_until[c.index()] = Some(steps - 1);
        }
    }
    let mut peak = 0;
    let mut counts = vec![0usize; target.machine.banks().len()];
    for t in 0..steps {
        counts.iter_mut().for_each(|c| *c = 0);
        for id in graph.alive() {
            let (Some(def), Some(until)) = (step_of[id.index()], live_until[id.index()]) else {
                continue;
            };
            if def <= t && t <= until {
                if let Some(bank) = graph.node(id).dest_bank(target) {
                    counts[bank.index()] += 1;
                }
            }
        }
        peak = peak.max(counts.iter().copied().max().unwrap_or(0));
    }
    peak
}

/// Fallback covering: one node per instruction, processed in dependence
/// order, with *eager spilling* — every computed value is immediately
/// stored to a slot and each consumer reloads it just in time. What this
/// bounds is the demand of one step: per bank, the widest operation's
/// arity plus the pinned live-outs. It does not bound the spill loop. A
/// spill or reload routed through an intermediate bank occupies
/// registers there too, so on chained banks (a bank that reaches memory
/// only through another, as in `chained_arch(2)`) the loop can keep
/// spilling until [`CoverError::SpillLimit`] stops it, on blocks the
/// machine can execute. Code quality is poor (that is the point of the
/// concurrent engine); the driver uses it when [`cover`] fails to
/// converge under extreme register pressure, and for the ladder's lower
/// rungs.
///
/// # Errors
///
/// [`CoverError::RegisterPressure`] when even single-operation staging
/// exceeds a bank (the block is genuinely unimplementable), or
/// [`CoverError::SpillLimit`] when spilling does not converge (reachable
/// on chained banks, see above).
pub fn cover_sequential(
    graph: &mut CoverGraph,
    target: &Target,
    syms: &mut SymbolTable,
) -> Result<Schedule, CoverError> {
    cover_sequential_budgeted(graph, target, syms, &Budget::unlimited())
}

/// [`cover_sequential`] under a cooperative [`Budget`]. The final rung
/// of the degradation ladder calls this with an unlimited budget; its
/// per-step register demand is bounded by operation arity plus pinned
/// live-outs, but [`CoverError::SpillLimit`] stays reachable on chained
/// banks (see [`cover_sequential`]), so that rung can still fail. Like
/// [`cover_budgeted`], it records its schedule's length as the budget's
/// incumbent and returns [`CoverError::Bounded`], before charging
/// anything, for a fresh `graph` whose bound reaches it.
///
/// # Errors
///
/// See [`CoverError`].
pub fn cover_sequential_budgeted(
    graph: &mut CoverGraph,
    target: &Target,
    syms: &mut SymbolTable,
    budget: &Budget,
) -> Result<Schedule, CoverError> {
    prune(graph, target, budget)?;
    let mut state = State::new(graph);
    let mut rows = Rows::default();
    rows.rebuild(graph, target, false);
    let mut mask: Vec<u64> = Vec::new();
    let mut pressure: Vec<usize> = Vec::new();
    let mut steps: Vec<Vec<CnId>> = Vec::new();
    let mut spills: Vec<SpillRecord> = Vec::new();
    let spill_limit = 40 * graph.len().max(8);
    // Nodes created by spill machinery are never eagerly evicted (their
    // single consumer follows just-in-time); everything else is evicted
    // right after computation.
    let mut no_eager = BitSet::new(graph.len());

    loop {
        let total_alive = graph.live_len();
        if state.covered.count() >= total_alive {
            break;
        }
        budget.charge(1).map_err(CoverError::Budget)?;
        state.recompute(&rows);
        if !state.has_ready() {
            return Err(wedged(state.covered.count(), total_alive));
        }
        // Stores (and other non-defining nodes) first — they only relieve
        // pressure; then lowest id (dependence order).
        let defines = |r: CnId| graph.node(r).dest_bank(target).is_some();
        let pick = state
            .ready_ids()
            .filter(|&r| !defines(r))
            .chain(state.ready_ids().filter(|&r| defines(r)))
            .find(|&r| {
                set_mask(&mut mask, rows.width(), &[r]);
                state.pressure_after(target, &rows, &mask, &mut pressure)
            });
        match pick {
            Some(r) => {
                state.covered.insert(r.index());
                steps.push(vec![r]);
                // Eager eviction of the fresh value.
                let has_pending_use = graph
                    .uses(r)
                    .iter()
                    .any(|u| !state.covered.contains(u.index()));
                if !has_pending_use
                    || graph.node(r).dest_bank(target).is_none()
                    || no_eager.contains(r.index())
                    || graph.live_out().iter().any(|&(_, op)| op == Operand::Cn(r))
                {
                    continue;
                }
                if spills.len() >= spill_limit {
                    return Err(CoverError::SpillLimit);
                }
                spill(graph, target, syms, &mut state, &mut rows, &mut spills, r)?;
            }
            // Staging conflict: evict the live value whose next use is
            // farthest (see `spill_victim`).
            None => spill_stuck(
                graph,
                target,
                syms,
                &mut state,
                &mut rows,
                &mut spills,
                spill_limit,
            )?,
        }
        no_eager.grow(graph.len());
        for nn in &spills.last().expect("a spill was just recorded").nodes {
            no_eager.insert(nn.index());
        }
    }
    let schedule = Schedule { steps, spills };
    debug_assert_eq!(verify_schedule(graph, target, &schedule), []);
    budget.record_schedule(schedule.len());
    Ok(schedule)
}

/// Spill `victim`, a covered value, then grow the covering state and
/// rebuild its masks over the nodes the spill added, and record it.
fn spill(
    graph: &mut CoverGraph,
    target: &Target,
    syms: &mut SymbolTable,
    state: &mut State,
    rows: &mut Rows,
    spills: &mut Vec<SpillRecord>,
    victim: CnId,
) -> Result<(), CoverError> {
    let (slot, outcome) = graph
        .relieve_pressure(target, syms, victim, &state.covered)
        .map_err(CoverError::Internal)?;
    state.covered.grow(graph.len());
    rows.rebuild(graph, target, false);
    spills.push(SpillRecord {
        slot,
        victim,
        spill: outcome.spill,
        nodes: outcome.new_nodes,
    });
    Ok(())
}

/// The step both sequential engines take when nothing ready fits in the
/// recomputed `state`: spill, from the bank that blocks the most ready
/// nodes (the fullest bank when none is blocked, the last bank on
/// ties), the value [`spill_victim`] picks. Fails with
/// [`CoverError::SpillLimit`] once `limit` spills are recorded.
fn spill_stuck(
    graph: &mut CoverGraph,
    target: &Target,
    syms: &mut SymbolTable,
    state: &mut State,
    rows: &mut Rows,
    spills: &mut Vec<SpillRecord>,
    limit: usize,
) -> Result<(), CoverError> {
    if spills.len() >= limit {
        return Err(CoverError::SpillLimit);
    }
    let banks = target.machine.banks();
    let mut blocked = vec![0usize; banks.len()];
    for r in state.ready_ids() {
        if let Some(b) = graph.node(r).dest_bank(target) {
            if state.pressure[b.index()] >= banks[b.index()].size as usize {
                blocked[b.index()] += 1;
            }
        }
    }
    let bank = BankId(
        (0..blocked.len())
            .max_by_key(|&b| (blocked[b], state.pressure[b]))
            .expect("machine has banks") as u32,
    );
    let victim = spill_victim(graph, target, &state.covered, bank, |_| false)
        .ok_or(CoverError::RegisterPressure { bank })?;
    spill(graph, target, syms, state, rows, spills, victim)
}

/// Critical-path list scheduling, the scheduler of the phase-ordered
/// comparator ([`CodegenOptions::phase_ordered`]). Each step fills one
/// instruction from the ready nodes, longest path from the top first
/// (lowest id on ties), adding every node that keeps the group free of
/// resource conflicts and every bank within its size. When nothing ready
/// fits, it takes the stuck-bank spill step of
/// [`cover_sequential_budgeted`], with a limit of four spills per node
/// (at least 8 nodes) where that engine allows forty. Unbudgeted.
///
/// # Errors
///
/// [`CoverError::SpillLimit`] or [`CoverError::RegisterPressure`] when
/// spilling does not get it unstuck; the comparator then covers a fresh
/// graph with [`cover_sequential`].
pub(crate) fn list_schedule(
    graph: &mut CoverGraph,
    target: &Target,
    syms: &mut SymbolTable,
) -> Result<Schedule, CoverError> {
    let mut state = State::new(graph);
    let mut rows = Rows::default();
    rows.rebuild(graph, target, false);
    let (mut ready, mut group): (Vec<CnId>, Vec<CnId>) = (Vec::new(), Vec::new());
    let mut mask: Vec<u64> = Vec::new();
    let mut pressure: Vec<usize> = Vec::new();
    let mut steps: Vec<Vec<CnId>> = Vec::new();
    let mut spills: Vec<SpillRecord> = Vec::new();
    let spill_limit = 4 * graph.len().max(8);

    loop {
        let total_alive = graph.live_len();
        if state.covered.count() >= total_alive {
            break;
        }
        state.recompute(&rows);
        if !state.has_ready() {
            return Err(wedged(state.covered.count(), total_alive));
        }
        ready.clear();
        ready.extend(state.ready_ids());
        ready.sort_by_key(|&n| (std::cmp::Reverse(graph.level_top(n)), n));
        for &cand in &ready {
            if conflict(graph, target, group.iter().copied().chain([cand])).is_some() {
                continue;
            }
            group.push(cand);
            set_mask(&mut mask, rows.width(), &group);
            if !state.pressure_after(target, &rows, &mask, &mut pressure) {
                group.pop();
            }
        }
        if group.is_empty() {
            spill_stuck(
                graph,
                target,
                syms,
                &mut state,
                &mut rows,
                &mut spills,
                spill_limit,
            )?;
            continue;
        }
        for &n in &group {
            state.covered.insert(n.index());
        }
        steps.push(std::mem::take(&mut group));
    }
    let schedule = Schedule { steps, spills };
    debug_assert_eq!(verify_schedule(graph, target, &schedule), []);
    Ok(schedule)
}

/// Test-only cross-checks, counted while armed on a thread. Mismatches
/// are counted, not raised: the degradation ladder would catch a panic
/// and quietly cover the block another way.
///
/// - The rollout memo and the incumbent cutoff: every estimate the
///   selection loop takes must equal `min(uncut, cutoff)`, where `uncut`
///   is recomputed by a fresh rollout with no cutoff (empty memo,
///   unlimited budget).
/// - The masks: every recomputed state (its ready set and bank
///   pressure), every [`State::pressure_after`] verdict and bank load,
///   every anti-wedge policy verdict, and every rollout step's choice is
///   compared with `Reference`, the graph-walking code the masks
///   replaced. It walks the graph [`Rows::rebuild`] last built the masks
///   from, which the rebuild snapshots while armed; a state whose
///   covered set does not span that graph counts as a mismatch.
#[cfg(test)]
mod oracle {
    use super::*;
    use std::cell::{Cell, RefCell};

    /// What the armed checks saw.
    #[derive(Clone, Copy, Default)]
    pub struct Tally {
        /// Estimates checked.
        pub checked: u64,
        /// Of those, estimates taken after a spill.
        pub after_spill: u64,
        /// Estimates that differed from the fresh uncut rollout's,
        /// capped at the cutoff.
        pub mismatches: u64,
        /// States, `pressure_after` and policy verdicts, and rollout
        /// choices compared with the reference.
        pub reference_checks: u64,
        /// Of those, the ones that differed.
        pub reference_mismatches: u64,
    }

    thread_local! {
        /// Whether checks on this thread run.
        pub static ARMED: Cell<bool> = const { Cell::new(false) };
        /// The graph and target the masks were last built from.
        static GRAPH: RefCell<Option<(CoverGraph, Target)>> = const { RefCell::new(None) };
        pub static TALLY: Cell<Tally> = const {
            Cell::new(Tally {
                checked: 0,
                after_spill: 0,
                mismatches: 0,
                reference_checks: 0,
                reference_mismatches: 0,
            })
        };
    }

    /// The covering state with every field walked from the graph: the
    /// reference the mask-based `State` must equal.
    struct Reference {
        ready: BitSet,
        /// Remaining uncovered consumers per node (values only).
        remaining: Vec<usize>,
        pressure: Vec<usize>,
        pinned: BitSet,
    }

    impl Reference {
        fn new(graph: &CoverGraph, target: &Target, covered: &BitSet) -> Reference {
            let n = graph.len();
            let mut pinned = BitSet::new(n);
            for &(_, operand) in graph.live_out() {
                if let Operand::Cn(c) = operand {
                    pinned.insert(c.index());
                }
            }
            let mut remaining = vec![0; n];
            let mut ready = BitSet::new(n);
            for id in graph.alive() {
                remaining[id.index()] = graph
                    .uses(id)
                    .iter()
                    .filter(|u| !covered.contains(u.index()))
                    .count();
                if !covered.contains(id.index())
                    && graph.preds(id).all(|p| covered.contains(p.index()))
                {
                    ready.insert(id.index());
                }
            }
            let mut pressure = vec![0; target.machine.banks().len()];
            for id in graph.alive() {
                if !covered.contains(id.index()) {
                    continue;
                }
                if let Some(bank) = graph.node(id).dest_bank(target) {
                    if remaining[id.index()] > 0 || pinned.contains(id.index()) {
                        pressure[bank.index()] += 1;
                    }
                }
            }
            Reference {
                ready,
                remaining,
                pressure,
                pinned,
            }
        }

        fn pressure_after(
            &self,
            graph: &CoverGraph,
            target: &Target,
            covered: &BitSet,
            group: &[CnId],
            p: &mut Vec<usize>,
        ) -> bool {
            p.clone_from(&self.pressure);
            // Values dying: all remaining uses are inside `group`.
            for id in graph.alive() {
                if !covered.contains(id.index()) || self.pinned.contains(id.index()) {
                    continue;
                }
                let rem = self.remaining[id.index()];
                if rem == 0 {
                    continue;
                }
                let uses_in_group = graph.uses(id).iter().filter(|u| group.contains(u)).count();
                if uses_in_group >= rem {
                    if let Some(bank) = graph.node(id).dest_bank(target) {
                        p[bank.index()] -= 1;
                    }
                }
            }
            // New definitions.
            for &g in group {
                if let Some(bank) = graph.node(g).dest_bank(target) {
                    p[bank.index()] += 1;
                }
            }
            p.iter()
                .zip(target.machine.banks())
                .all(|(&load, bank)| load <= bank.size as usize)
        }

        /// The anti-wedge policy, walking the graph.
        fn policy_ok(
            &self,
            graph: &CoverGraph,
            target: &Target,
            covered: &BitSet,
            group: &[CnId],
            p_after: &[usize],
        ) -> bool {
            let done = |id: CnId| covered.contains(id.index()) || group.contains(&id);
            p_after.iter().enumerate().all(|(bi, &load)| {
                load < target.machine.banks()[bi].size as usize
                    || graph.alive().any(|id| {
                        done(id)
                            && graph.node(id).dest_bank(target) == Some(BankId(bi as u32))
                            && (self.pinned.contains(id.index())
                                || graph.uses(id).iter().any(|u| !done(*u)))
                            && graph
                                .uses(id)
                                .iter()
                                .any(|&u| !done(u) && graph.preds(u).all(done))
                    })
            })
        }

        /// A rollout step's group: the first clique in pool order with
        /// the most ready members that fits, else the first fitting
        /// single ready node.
        fn rollout_choice(
            &self,
            graph: &CoverGraph,
            target: &Target,
            covered: &BitSet,
            pool: &Pool,
        ) -> Option<Vec<CnId>> {
            let mut p = Vec::new();
            let mut best: Vec<CnId> = Vec::new();
            let everything = vec![u64::MAX; pool.rows.width()];
            for ci in 0..pool.len {
                let clique: Vec<u64> = pool.shrunk(ci, &everything).collect();
                let group: Vec<CnId> = mask_ids(&clique)
                    .filter(|id| self.ready.contains(id.index()))
                    .collect();
                if group.len() > best.len()
                    && self.pressure_after(graph, target, covered, &group, &mut p)
                {
                    best = group;
                }
            }
            if best.is_empty() {
                let single = self
                    .ready
                    .iter()
                    .map(|i| CnId(i as u32))
                    .find(|&r| self.pressure_after(graph, target, covered, &[r], &mut p));
                best.extend(single);
            }
            (!best.is_empty()).then_some(best)
        }
    }

    fn tally_reference(agrees: bool) {
        let mut tally = TALLY.get();
        tally.reference_checks += 1;
        tally.reference_mismatches += u64::from(!agrees);
        TALLY.set(tally);
    }

    /// Keep a copy of the graph the masks are being built from.
    pub(super) fn snapshot(graph: &CoverGraph, target: &Target) {
        if ARMED.get() {
            GRAPH.set(Some((graph.clone(), target.clone())));
        }
    }

    /// Tally `agrees(graph, target, reference)` for `state`'s covered
    /// set on the snapshot graph.
    fn compare(state: &State, agrees: impl FnOnce(&CoverGraph, &Target, &Reference) -> bool) {
        if !ARMED.get() {
            return;
        }
        GRAPH.with_borrow(|snapshot| {
            let (graph, target) = snapshot.as_ref().expect("masks built while armed");
            let spans = state.covered.capacity() == graph.len();
            let want = Reference::new(graph, target, &state.covered);
            tally_reference(spans && agrees(graph, target, &want));
        });
    }

    /// Check a recomputed state's ready set and bank pressure.
    pub(super) fn check_state(state: &State) {
        compare(state, |_, _, want| {
            state.ready_ids().map(CnId::index).eq(want.ready.iter())
                && state.pressure == want.pressure
        });
    }

    /// Check one [`State::pressure_after`] verdict and its bank loads.
    pub(super) fn check_pressure(state: &State, group: &[u64], fits: bool, load: &[usize]) {
        compare(state, |graph, target, want| {
            let group: Vec<CnId> = mask_ids(group).collect();
            let mut p = Vec::new();
            let want_fits = want.pressure_after(graph, target, &state.covered, &group, &mut p);
            fits == want_fits && load == p
        });
    }

    /// Check one anti-wedge policy verdict.
    pub(super) fn check_policy(state: &State, group: &[u64], p_after: &[usize], ok: bool) {
        compare(state, |graph, target, want| {
            let group: Vec<CnId> = mask_ids(group).collect();
            ok == want.policy_ok(graph, target, &state.covered, &group, p_after)
        });
    }

    /// Check a rollout step's chosen group (`None` when it found none).
    pub(super) fn check_choice(state: &State, pool: &Pool, chosen: Option<&[u64]>) {
        compare(state, |graph, target, want| {
            let got = chosen.map(|mask| mask_ids(mask).collect::<Vec<_>>());
            got == want.rollout_choice(graph, target, &state.covered, pool)
        });
    }

    /// Check one memoized, possibly cut estimate against a fresh uncut
    /// rollout capped at `cutoff`.
    #[allow(clippy::too_many_arguments)]
    pub(super) fn check(
        graph: &CoverGraph,
        target: &Target,
        covered: &BitSet,
        pool: &Pool,
        first: &[CnId],
        cutoff: Option<usize>,
        est: usize,
        after_spill: bool,
    ) {
        if !ARMED.get() {
            return;
        }
        let mut fresh = Scratch::default();
        fresh.memo.reset(graph.len());
        let uncut = lookahead_estimate(
            graph,
            target,
            covered,
            pool,
            first,
            &Budget::unlimited(),
            None,
            &mut fresh,
            &mut SearchStats::default(),
        );
        let want = cutoff.map_or(uncut, |best| uncut.min(best));
        let mut tally = TALLY.get();
        tally.checked += 1;
        tally.after_spill += u64::from(after_spill);
        tally.mismatches += u64::from(est != want);
        TALLY.set(tally);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::codegen::{CodeGenerator, CoverMode};
    use aviv_ir::randdag::{random_function, RandDagConfig};
    use aviv_ir::Op;
    use aviv_isdl::archs;

    /// Every memoized estimate equals a fresh uncut rollout's capped at
    /// the incumbent cutoff, and every mask-based state, pressure check
    /// and rollout choice equals the graph-walking reference's, on seeded
    /// random blocks over the bundled machines — also after spills, which
    /// rebuild the masks, regenerate the pool and reset the memo.
    #[test]
    fn memoized_estimates_equal_fresh_rollouts() {
        oracle::ARMED.set(true);
        // Four registers per bank on 12-operation blocks, and two per bank
        // on 10-operation blocks, where covering spills and rolls out
        // again from covered sets it had memoized before the spill.
        let roomy = [
            archs::example_arch(4),
            archs::arch_two(4),
            archs::dsp_arch(4),
            archs::wide_arch(4),
            archs::quad_vliw(4),
        ];
        let tight = [
            archs::example_arch(2),
            archs::arch_two(2),
            archs::chained_arch(2),
            archs::wide_arch(2),
            archs::quad_vliw(2),
        ];
        let cases = roomy
            .into_iter()
            .map(|m| (m, 12, 0..6))
            .chain(tight.into_iter().map(|m| (m, 10, 1..4)));
        let mut search = SearchStats::default();
        for (machine, n_ops, seeds) in cases {
            let cfg = RandDagConfig {
                n_ops,
                ops: vec![Op::Add, Op::Sub, Op::Mul],
                ..RandDagConfig::default()
            };
            let generator = CodeGenerator::new(machine.clone())
                .options(CodegenOptions::heuristics_on().with_jobs(1));
            for seed in seeds {
                let f = random_function(&cfg, 1, seed);
                let (_, report) = generator
                    .compile_function(&f)
                    .unwrap_or_else(|e| panic!("{} seed {seed}: {e}", machine.name));
                // A panic inside covering would be caught by the ladder
                // and hidden behind a lower rung.
                assert!(
                    report.downgrades.is_empty(),
                    "{} seed {seed}: {:?}",
                    machine.name,
                    report.downgrades
                );
                for b in &report.blocks {
                    search.memo_hits += b.search.memo_hits;
                    search.rollouts_cut += b.search.rollouts_cut;
                }
            }
        }
        let tally = oracle::TALLY.get();
        assert_eq!(
            tally.mismatches, 0,
            "{} of {} estimates differ from min(fresh uncut rollout, cutoff)",
            tally.mismatches, tally.checked
        );
        assert_eq!(
            tally.reference_mismatches, 0,
            "{} of {} states, verdicts and rollout choices differ from the reference",
            tally.reference_mismatches, tally.reference_checks
        );
        assert!(
            tally.reference_checks > 0,
            "nothing was checked against the reference"
        );
        assert!(
            tally.after_spill > 0,
            "no estimate was checked after a spill"
        );
        assert!(search.memo_hits > 0, "the memo never answered a step");
        assert!(search.rollouts_cut > 0, "the cutoff never fired");
    }

    /// Every state, bank-pressure verdict and bank load of the list
    /// scheduler equals the graph-walking reference's, on one seeded
    /// random block per `archs` machine planned by the phase-ordered
    /// comparator, with banks small enough that it spills and so
    /// rebuilds its masks mid-block.
    #[test]
    fn list_schedules_match_the_reference() {
        oracle::ARMED.set(true);
        let machines = [
            archs::example_arch(2),
            archs::arch_two(2),
            archs::dsp_arch(2),
            archs::chained_arch(3),
            archs::single_alu(2),
            archs::wide_arch(2),
            archs::quad_vliw(2),
            archs::accumulator_dsp(),
        ];
        let cfg = RandDagConfig {
            n_ops: 10,
            ops: vec![Op::Add, Op::Sub, Op::Mul],
            ..RandDagConfig::default()
        };
        let f = random_function(&cfg, 1, 1);
        let mut spills = 0;
        for machine in machines {
            let options = CodegenOptions {
                phase_ordered: true,
                ..CodegenOptions::heuristics_on().with_jobs(1)
            };
            let generator = CodeGenerator::new(machine.clone()).options(options);
            let (_, report) = generator
                .compile_function(&f)
                .unwrap_or_else(|e| panic!("{}: {e}", machine.name));
            let block = &report.blocks[0];
            // The fallback would cover with the sequential engine instead.
            assert_eq!(block.mode, CoverMode::Concurrent, "{}", machine.name);
            spills += block.spills;
        }
        let tally = oracle::TALLY.get();
        assert_eq!(
            tally.reference_mismatches, 0,
            "{} of {} states and verdicts differ from the reference",
            tally.reference_mismatches, tally.reference_checks
        );
        assert!(tally.reference_checks > 0, "nothing was checked");
        assert!(spills > 0, "no list schedule spilled");
    }
}
