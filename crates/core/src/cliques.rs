//! Maximal groupings of parallel nodes (paper §IV-C).
//!
//! "The goal is to examine the nodes in a given assignment and merge them
//! into groups of nodes that can be executed in parallel on the target
//! processor. Each grouping corresponds to a VLIW instruction." Two nodes
//! can execute in parallel when they occupy different resources and no
//! directed dependency path connects them (Fig. 7's pairwise matrix).
//! [`gen_max_cliques`] enumerates the maximal cliques of that relation —
//! the set Fig. 8's recursion generates — with Bron–Kerbosch and Tomita
//! pivoting, which reaches each maximal clique exactly once instead of
//! finding it repeatedly and discarding the copies; [`legalize`] enforces
//! the ISDL constraints by splitting illegal cliques (§IV-C.3).
//!
//! Flat storage: covering generates a pool once per covered assignment
//! and again after every spill, so [`CliquePool`] does the whole job —
//! matrix, enumeration, legalization — in storage it keeps. The matrix
//! is rebuilt in place. The enumeration keeps its frames as three rows
//! per recursion depth of one word buffer and writes each maximal clique
//! as one row of another. Legalization splits an illegal row in place
//! (its legal piece replaces it, the remainder is appended as a new row)
//! and dedupes the legal rows through an open-addressing index. Once a
//! pool's buffers have grown to a graph, generating a pool for it
//! allocates nothing. [`gen_max_cliques`], [`gen_max_cliques_budgeted`]
//! and [`legalize`] are `Vec<BitSet>` views of the same path.
//!
//! The machine rules keep every single node legal: a unit issues one
//! operation, every bus carries at least one transfer, and
//! every machine load refuses an `at_most 0` constraint (E004). The greedy
//! split keeps a non-empty legal piece whenever the clique's first node
//! is legal alone, so every split shrinks the work. A node that is
//! illegal alone anyway (a machine read by `parse_machine_unchecked`) ends
//! generation with a `C004` diagnostic instead of splitting forever.

use crate::budget::Budget;
use crate::covergraph::{CnId, CoverGraph, Resource};
use crate::invariants::conflict_message;
use crate::rowset::RowSet;
use aviv_ir::{bitset, BitMatrix, BitSet};
use aviv_isdl::{BusId, Target, UnitId};
use aviv_verify::{Code, Diagnostic};

/// The pairwise-parallelism matrix over a set of cover nodes.
///
/// Row `i` has bit `j` set when nodes `i` and `j` **can** execute in
/// parallel (the paper's matrix stores 0 there; the diagonal is clear).
/// Rows are packed [`BitMatrix`] rows so the clique enumerator works by
/// whole-row intersection instead of probing pairs one bit at a time.
#[derive(Debug, Clone, Default)]
pub struct ParallelismMatrix {
    /// Matrix index → cover-graph node.
    pub ids: Vec<CnId>,
    compat: BitMatrix,
}

impl ParallelismMatrix {
    /// Build the matrix for `nodes` of `graph`.
    ///
    /// Conflicts: a dependency path in either direction; two operations on
    /// the same unit; two transfers on the same capacity-1 bus; and — when
    /// `level_window` is set (§IV-C.2) — any pair whose levels from the
    /// top or from the bottom differ by more than the window. Every other
    /// pair is compatible.
    pub fn build(
        graph: &CoverGraph,
        target: &Target,
        nodes: &[CnId],
        level_window: Option<u32>,
    ) -> ParallelismMatrix {
        let mut m = ParallelismMatrix::default();
        m.rebuild(graph, target, nodes.iter().copied(), level_window);
        m
    }

    /// [`ParallelismMatrix::build`] in place, for the nodes `nodes`
    /// yields: equal to a fresh matrix, reusing the id list and the rows.
    pub fn rebuild(
        &mut self,
        graph: &CoverGraph,
        target: &Target,
        nodes: impl IntoIterator<Item = CnId>,
        level_window: Option<u32>,
    ) {
        self.ids.clear();
        self.ids.extend(nodes);
        let n = self.ids.len();
        self.compat.reset(n, n);
        for i in 0..n {
            for j in (i + 1)..n {
                let (a, b) = (self.ids[i], self.ids[j]);
                let mut c = graph.dependent(a, b);
                if !c {
                    c = match (graph.node(a).resource(), graph.node(b).resource()) {
                        (Resource::Unit(x), Resource::Unit(y)) => x == y,
                        (Resource::Bus(x), Resource::Bus(y)) => {
                            x == y && target.machine.bus(x).capacity == 1
                        }
                        _ => false,
                    };
                }
                if !c {
                    if let Some(w) = level_window {
                        let dt = graph.level_top(a).abs_diff(graph.level_top(b));
                        let db = graph.level_bottom(a).abs_diff(graph.level_bottom(b));
                        c = dt > w || db > w;
                    }
                }
                if !c {
                    self.compat.set(i, j);
                    self.compat.set(j, i);
                }
            }
        }
    }

    /// Build a matrix directly from conflict pairs over `n` abstract
    /// nodes (ids become `CnId(0..n)`). Exists for property tests that
    /// compare [`gen_max_cliques`] against a brute-force reference on
    /// arbitrary graphs.
    pub fn from_conflicts(n: usize, conflicts: &[(usize, usize)]) -> ParallelismMatrix {
        let mut compat = BitMatrix::new(n, n);
        for i in 0..n {
            for j in (0..n).filter(|&j| j != i) {
                let conflicting = conflicts.contains(&(i, j)) || conflicts.contains(&(j, i));
                if !conflicting {
                    compat.set(i, j);
                }
            }
        }
        ParallelismMatrix {
            ids: (0..n as u32).map(CnId).collect(),
            compat,
        }
    }

    /// Number of nodes.
    pub fn len(&self) -> usize {
        self.ids.len()
    }

    /// True when the node set is empty.
    pub fn is_empty(&self) -> bool {
        self.ids.is_empty()
    }

    /// Whether matrix rows `i` and `j` can execute in parallel.
    pub fn compatible(&self, i: usize, j: usize) -> bool {
        self.compat.contains(i, j)
    }

    /// The Tomita pivot for candidates `cand` and excluded nodes `excl`:
    /// the first node of `cand ∪ excl`, in ascending order, compatible
    /// with the most candidates.
    fn pivot(&self, cand: &[u64], excl: &[u64]) -> usize {
        let mut best: Option<(usize, u32)> = None;
        for (k, (&a, &b)) in cand.iter().zip(excl).enumerate() {
            let mut w = a | b;
            while w != 0 {
                let u = k * 64 + w.trailing_zeros() as usize;
                w &= w - 1;
                let row = self.compat.row_words(u);
                let count = row
                    .iter()
                    .zip(cand)
                    .map(|(r, c)| (r & c).count_ones())
                    .sum();
                if best.is_none_or(|(_, most)| count > most) {
                    best = Some((u, count));
                }
            }
        }
        best.map_or(0, |(u, _)| u)
    }

    /// The first node of `cand`, in ascending order, that is not
    /// compatible with node `u` (`u` itself included).
    fn first_incompatible(&self, u: usize, cand: &[u64]) -> Option<usize> {
        let row = self.compat.row_words(u).iter();
        row.zip(cand).enumerate().find_map(|(k, (&r, &c))| {
            let w = c & !r;
            (w != 0).then(|| k * 64 + w.trailing_zeros() as usize)
        })
    }

    /// Render as the paper's Fig. 7 0/1 matrix (0 = parallel).
    pub fn render(&self) -> String {
        let n = self.len();
        let mut out = String::new();
        out.push_str("      ");
        for j in 0..n {
            out.push_str(&format!("{:>5}", self.ids[j].to_string()));
        }
        out.push('\n');
        for i in 0..n {
            out.push_str(&format!("{:>5} ", self.ids[i].to_string()));
            for j in 0..n {
                let v = if i == j || !self.compatible(i, j) {
                    1
                } else {
                    0
                };
                out.push_str(&format!("{v:>5}"));
            }
            out.push('\n');
        }
        out
    }
}

/// The legal clique pool of a set of cover nodes (§IV-C.1–C.3): the
/// parallelism matrix, its maximal cliques, and those cliques split
/// until every one is legal, deduplicated and sorted. Everything lives
/// in storage the pool keeps (see the module doc), so generating pools
/// for one graph after another allocates only while the buffers grow.
#[derive(Default)]
pub struct CliquePool {
    matrix: ParallelismMatrix,
    /// Bron–Kerbosch's frames: three rows per recursion depth.
    frames: Vec<u64>,
    /// The maximal cliques, then legalization's rows and result.
    legal: Legalizer,
}

impl CliquePool {
    /// Generate the pool for the nodes `nodes` yields: build their
    /// matrix (see [`ParallelismMatrix::build`]), enumerate its maximal
    /// cliques under `budget` exactly as [`gen_max_cliques_budgeted`]
    /// does, one budget unit per recursive call, and legalize them as
    /// [`legalize`] does. Clique `i` of the result is the `i`-th of
    /// `gen_max_cliques_budgeted` followed by `legalize`.
    ///
    /// # Errors
    ///
    /// A `C004` diagnostic when a node is illegal on its own, which no
    /// machine the loader accepts can produce (see the module
    /// doc); the pool is then unusable until generated again.
    pub fn generate(
        &mut self,
        graph: &CoverGraph,
        target: &Target,
        nodes: impl IntoIterator<Item = CnId>,
        level_window: Option<u32>,
        budget: &Budget,
    ) -> Result<(), Diagnostic> {
        self.matrix.rebuild(graph, target, nodes, level_window);
        enumerate(&self.matrix, budget, &mut self.frames, &mut self.legal.rows);
        self.legal.run(&self.matrix, graph, target)
    }

    /// Number of cliques.
    pub fn len(&self) -> usize {
        self.legal.order.len()
    }

    /// True when the pool holds no clique.
    pub fn is_empty(&self) -> bool {
        self.legal.order.is_empty()
    }

    /// Clique `i` as a mask over matrix indices.
    pub fn clique(&self, i: usize) -> &[u64] {
        self.legal.legal.row(self.legal.order[i])
    }

    /// The cover nodes of clique `i`, in ascending matrix index.
    pub fn members(&self, i: usize) -> impl Iterator<Item = CnId> + '_ {
        bitset::Iter::new(self.clique(i)).map(|j| self.matrix.ids[j])
    }
}

/// All maximal cliques of the compatibility graph, as bitsets of matrix
/// indices in ascending order: the clique set the paper's Fig. 8
/// generates.
pub fn gen_max_cliques(m: &ParallelismMatrix) -> Vec<BitSet> {
    let mut cliques = gen_max_cliques_budgeted(m, &Budget::unlimited());
    cliques.sort_unstable();
    cliques
}

/// [`gen_max_cliques`] under a cooperative [`Budget`], in the order the
/// enumeration finds them: each recursive call soft-charges one unit,
/// and once the budget is exhausted the enumeration unwinds, returning
/// the cliques already found. Every returned clique is maximal and
/// appears once. A truncated clique set is still sound — [`legalize`]
/// and the covering loop only require that cliques be legal, not
/// exhaustive — and the caller's next hard charge surfaces the
/// exhaustion.
///
/// The enumeration is Bron–Kerbosch with Tomita pivoting: a call holds
/// a clique `R`, the candidates `P` that extend it, and the excluded
/// nodes `X` already tried at this level. It branches only on the
/// candidates outside the pivot's neighbourhood, so each maximal clique
/// is reached exactly once and no call repeats another's work.
pub fn gen_max_cliques_budgeted(m: &ParallelismMatrix, budget: &Budget) -> Vec<BitSet> {
    let mut rows = Vec::new();
    enumerate(m, budget, &mut Vec::new(), &mut rows);
    // An empty matrix has no cliques, and its rows no words.
    to_bitsets(rows.chunks_exact(m.len().div_ceil(64).max(1)), m.len())
}

/// Cliques given as mask rows, as bitsets of capacity `n`.
fn to_bitsets<'a>(rows: impl Iterator<Item = &'a [u64]>, n: usize) -> Vec<BitSet> {
    rows.map(|row| {
        let mut set = BitSet::new(n);
        set.set_words(row);
        set
    })
    .collect()
}

/// Bron–Kerbosch with Tomita pivoting over `m` (see
/// [`gen_max_cliques_budgeted`]): overwrite `out` with every maximal
/// clique found before `budget` runs out, one row of `⌈n/64⌉` words
/// each, in the order found. `frames` holds three rows per recursion
/// depth, reused by every call at that depth.
fn enumerate(m: &ParallelismMatrix, budget: &Budget, frames: &mut Vec<u64>, out: &mut Vec<u64>) {
    out.clear();
    let n = m.len();
    if n == 0 {
        return;
    }
    let w = n.div_ceil(64);
    frames.clear();
    frames.resize(3 * w, 0);
    // The first call: no members, every node a candidate, none excluded.
    let cand = &mut frames[w..2 * w];
    cand.fill(u64::MAX);
    if !n.is_multiple_of(64) {
        cand[w - 1] = (1 << (n % 64)) - 1;
    }
    Enumerator {
        m,
        budget,
        w,
        frames,
        out,
    }
    .call(0);
}

/// The state of one [`enumerate`]. The frame at depth `d` is the three
/// rows from word `3 * w * d`: the clique `R`, the candidates `P` that
/// extend it and the excluded nodes `X` already tried at this level.
/// A recursive call writes only deeper frames, so it allocates nothing
/// once the stack has reached its depth.
struct Enumerator<'a> {
    m: &'a ParallelismMatrix,
    budget: &'a Budget,
    /// Words per row.
    w: usize,
    frames: &'a mut Vec<u64>,
    out: &'a mut Vec<u64>,
}

impl Enumerator<'_> {
    /// One Bron–Kerbosch call on the frame at `depth`: report `R` when
    /// neither `P` nor `X` can extend it, otherwise branch on every
    /// candidate the pivot is not compatible with, in ascending order.
    fn call(&mut self, depth: usize) {
        self.budget.note(1);
        if self.budget.exhaustion().is_some() {
            return;
        }
        let (m, w) = (self.m, self.w);
        let at = 3 * w * depth;
        let (clique, rest) = self.frames[at..at + 3 * w].split_at(w);
        let (cand, excl) = rest.split_at(w);
        if cand.iter().all(|&c| c == 0) {
            if excl.iter().all(|&x| x == 0) {
                self.out.extend_from_slice(clique);
            }
            return;
        }
        let pivot = m.pivot(cand, excl);
        let next = at + 3 * w;
        if self.frames.len() < next + 3 * w {
            self.frames.resize(next + 3 * w, 0);
        }
        // Each branched node leaves `P` for `X`, so the candidates still
        // outside the pivot's row are exactly those not yet branched on.
        while let Some(v) = m.first_incompatible(pivot, &self.frames[at + w..at + 2 * w]) {
            let (outer, inner) = self.frames.split_at_mut(next);
            let cur = &mut outer[at..];
            let row = m.compat.row_words(v);
            for k in 0..w {
                inner[k] = cur[k];
                inner[w + k] = cur[w + k] & row[k];
                inner[2 * w + k] = cur[2 * w + k] & row[k];
            }
            let (word, bit) = (v / 64, 1u64 << (v % 64));
            inner[word] |= bit;
            cur[w + word] &= !bit;
            cur[2 * w + word] |= bit;
            self.call(depth + 1);
            if self.budget.exhaustion().is_some() {
                return;
            }
        }
    }
}

/// Clique legalization (§IV-C.3) in storage it keeps.
#[derive(Default)]
struct Legalizer {
    /// The cliques to legalize, one row each. An illegal row is split
    /// in place: its legal piece replaces it and the remainder is
    /// appended as a new row.
    rows: Vec<u64>,
    /// The legal piece and the remainder of the row being split.
    kept: Vec<u64>,
    rest: Vec<u64>,
    /// The legal rows, each once, in the order first reached.
    legal: RowSet,
    /// `legal`'s rows in `BitSet` order: lexicographic over the element
    /// sequences.
    order: Vec<u32>,
}

impl Legalizer {
    /// Dedupe-index slots reserved at every run (a power of two).
    const RESERVE: usize = 64;

    /// Legalize `rows`, cliques over the indices of `m`, into `legal`
    /// and `order`.
    fn run(
        &mut self,
        m: &ParallelismMatrix,
        graph: &CoverGraph,
        target: &Target,
    ) -> Result<(), Diagnostic> {
        let w = m.len().div_ceil(64);
        self.legal.reset(w, Legalizer::RESERVE);
        self.order.clear();
        if w == 0 {
            return Ok(());
        }
        let legal = |row: &[u64]| legal_words(row, m, graph, target);
        let mut at = 0;
        while at < self.rows.len() {
            if !legal(&self.rows[at..at + w]) {
                // Greedy split: fill one legal piece in ascending order
                // and leave the rest for a later row.
                let (kept, rest) = (&mut self.kept, &mut self.rest);
                kept.clear();
                kept.resize(w, 0);
                rest.clear();
                rest.resize(w, 0);
                for i in bitset::Iter::new(&self.rows[at..at + w]) {
                    let (word, bit) = (i / 64, 1u64 << (i % 64));
                    kept[word] |= bit;
                    if !legal(kept) {
                        kept[word] &= !bit;
                        rest[word] |= bit;
                    }
                }
                if kept.iter().all(|&k| k == 0) {
                    // The row (all in `rest`, and not empty, since the
                    // empty set is legal) starts with a node that is
                    // illegal on its own.
                    let first = bitset::Iter::new(rest).next().unwrap_or(0);
                    return Err(illegal_alone(m.ids[first], graph, target));
                }
                self.rows[at..at + w].copy_from_slice(kept);
                if rest.iter().any(|&r| r != 0) {
                    self.rows.extend_from_slice(rest);
                }
            }
            self.legal.insert(&self.rows[at..at + w]);
            at += w;
        }
        let Legalizer { legal, order, .. } = self;
        order.extend(0..legal.len() as u32);
        order.sort_unstable_by(|&a, &b| bitset::cmp_words(legal.row(a), legal.row(b)));
        Ok(())
    }
}

/// The `C004` defect of a cover node that no instruction can issue,
/// not even alone.
fn illegal_alone(id: CnId, graph: &CoverGraph, target: &Target) -> Diagnostic {
    let why = conflict(graph, target, std::iter::once(id))
        .map_or_else(String::new, |c| conflict_message(c, &target.machine));
    Diagnostic::new(
        Code::C004,
        "covering",
        format!("cover node {id} is illegal on its own ({why}), so no legal clique covers it"),
    )
}

/// Check every clique against the machine's constraints and bus
/// capacities; split violators into smaller legal cliques (§IV-C.3).
/// Returns the deduplicated legal clique set (every input node remains
/// covered by at least one clique), in ascending order.
///
/// # Panics
///
/// When a node is illegal on its own, which no machine
/// the loader accepts can produce ([`CliquePool::generate`]
/// reports it as a diagnostic instead).
pub fn legalize(
    cliques: Vec<BitSet>,
    m: &ParallelismMatrix,
    graph: &CoverGraph,
    target: &Target,
) -> Vec<BitSet> {
    let mut l = Legalizer::default();
    for c in &cliques {
        l.rows.extend_from_slice(c.words());
    }
    if let Err(d) = l.run(m, graph, target) {
        panic!("legalize: {d}");
    }
    to_bitsets(l.order.iter().map(|&r| l.legal.row(r)), m.len())
}

/// Whether a clique satisfies unit and bus capacities and all ISDL
/// constraints; see [`conflict`].
pub fn is_legal(
    clique: &BitSet,
    m: &ParallelismMatrix,
    graph: &CoverGraph,
    target: &Target,
) -> bool {
    legal_words(clique.words(), m, graph, target)
}

/// [`is_legal`] on a clique's mask words.
fn legal_words(clique: &[u64], m: &ParallelismMatrix, graph: &CoverGraph, target: &Target) -> bool {
    conflict(graph, target, bitset::Iter::new(clique).map(|i| m.ids[i])).is_none()
}

/// Why a group of cover nodes may not share one VLIW instruction.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Conflict {
    /// The unit would issue two operations.
    Unit(UnitId),
    /// The bus would carry more transfers than its capacity.
    Bus(BusId),
    /// The ISDL `at_most` constraint with this index would be exceeded.
    Constraint {
        /// Index into the machine's constraint list.
        index: usize,
        /// How many of the group's nodes the constraint matches.
        members: u32,
    },
}

/// The first reason `group` may not share one instruction, or `None`
/// when it may. Resources come first, in group order: the node that
/// first uses its unit twice, or its bus beyond capacity, names the
/// conflict. The ISDL constraints follow in declaration order.
/// Dependencies are the caller's concern. Allocates nothing, so the
/// covering search, peephole compaction, the baseline scheduler and the
/// V003 check all call it directly.
pub fn conflict<I>(graph: &CoverGraph, target: &Target, group: I) -> Option<Conflict>
where
    I: Iterator<Item = CnId> + Clone,
{
    let machine = &target.machine;
    // Groups are a handful of nodes, so counting each node's resource
    // over the prefix ending at it is cheaper than a per-call table.
    for (k, id) in group.clone().enumerate() {
        let resource = graph.node(id).resource();
        let capacity = match resource {
            Resource::Unit(_) => 1,
            Resource::Bus(b) => machine.bus(b).capacity as usize,
        };
        let users = group
            .clone()
            .take(k + 1)
            .filter(|&j| graph.node(j).resource() == resource)
            .count();
        if users > capacity {
            return Some(match resource {
                Resource::Unit(u) => Conflict::Unit(u),
                Resource::Bus(b) => Conflict::Bus(b),
            });
        }
    }
    for (index, con) in machine.constraints().iter().enumerate() {
        let members = group
            .clone()
            .filter(|&id| con.members.iter().any(|pat| graph.node(id).matches(pat)))
            .count() as u32;
        if members > con.at_most {
            return Some(Conflict::Constraint { index, members });
        }
    }
    None
}

/// Reference implementation for property tests: brute-force maximal
/// cliques by subset enumeration (only usable for small `n`), in
/// ascending order.
pub fn brute_force_max_cliques(m: &ParallelismMatrix) -> Vec<BitSet> {
    let n = m.len();
    assert!(n <= 20, "brute force is exponential");
    // Row `i` as a mask over the first 20 nodes.
    let rows: Vec<u32> = (0..n)
        .map(|i| (0..n).filter(|&j| m.compatible(i, j)).map(|j| 1 << j).sum())
        .collect();
    let mut cliques: Vec<BitSet> = Vec::new();
    for mask in 1u32..(1 << n) {
        let members = || (0..n).filter(move |&i| mask & (1 << i) != 0);
        // A clique: every member is compatible with every other member.
        if !members().all(|i| mask & !(1 << i) & !rows[i] == 0) {
            continue;
        }
        // Maximal: no outside node compatible with all members.
        let maximal = (0..n).all(|o| mask & (1 << o) != 0 || mask & !rows[o] != 0);
        if maximal {
            let mut clique = BitSet::new(n);
            clique.extend(members());
            cliques.push(clique);
        }
    }
    cliques.sort_unstable();
    cliques
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use crate::assign::explore;
    use crate::codegen::CodeGenerator;
    use crate::cover::{cover, CoverError};
    use crate::covergraph::tests::machines;
    use crate::options::CodegenOptions;
    use aviv_ir::randdag::{random_block, RandDagConfig};
    use aviv_ir::{parse_function, Function, Op};
    use aviv_isdl::{archs, parse_machine_unchecked};
    use aviv_splitdag::SplitNodeDag;

    /// Clique generation as it was before the pool moved into flat
    /// storage: a `BitSet` per frame and per found clique, and a
    /// `HashSet` of legal cliques. The oracle requires the same pool
    /// from both. While armed on a thread, every pool the covering loop
    /// generates (at the start and after each spill) is compared here.
    pub(crate) mod reference {
        use super::super::*;
        use std::cell::Cell;
        use std::collections::HashSet;

        /// What the armed checks saw.
        #[derive(Clone, Copy, Default, Debug)]
        pub struct Tally {
            /// Pools compared.
            pub pools: u64,
            /// Of those, pools generated after a spill.
            pub after_spill: u64,
            /// Of those, pools whose enumeration ran out of budget.
            pub truncated: u64,
            /// Illegal cliques the reference split.
            pub splits: u64,
            /// Pools with more than 64 nodes.
            pub wide: u64,
            /// Pools that differed from the reference.
            pub mismatches: u64,
        }

        thread_local! {
            /// Whether covering's pools on this thread are checked.
            pub static ARMED: Cell<bool> = const { Cell::new(false) };
            pub static TALLY: Cell<Tally> = const {
                Cell::new(Tally {
                    pools: 0,
                    after_spill: 0,
                    truncated: 0,
                    splits: 0,
                    wide: 0,
                    mismatches: 0,
                })
            };
        }

        fn tally(update: impl FnOnce(&mut Tally)) {
            let mut t = TALLY.get();
            update(&mut t);
            TALLY.set(t);
        }

        /// One level of the enumeration: the clique `R`, the candidates
        /// `P` and the excluded nodes `X`.
        struct Frame {
            clique: BitSet,
            cand: BitSet,
            excl: BitSet,
        }

        impl Frame {
            fn new(n: usize, cand: BitSet) -> Frame {
                Frame {
                    clique: BitSet::new(n),
                    cand,
                    excl: BitSet::new(n),
                }
            }
        }

        struct CliqueGen<'a> {
            m: &'a ParallelismMatrix,
            budget: &'a Budget,
            frames: Vec<Frame>,
            out: Vec<BitSet>,
        }

        impl CliqueGen<'_> {
            fn rec(&mut self, depth: usize) {
                self.budget.note(1);
                if self.budget.exhaustion().is_some() {
                    return;
                }
                let m = self.m;
                let f = &self.frames[depth];
                if f.cand.is_empty() {
                    if f.excl.is_empty() {
                        self.out.push(f.clique.clone());
                    }
                    return;
                }
                let pivot = m.pivot(f.cand.words(), f.excl.words());
                if self.frames.len() == depth + 1 {
                    self.frames.push(Frame::new(m.len(), BitSet::new(m.len())));
                }
                while let Some(v) = m.first_incompatible(pivot, self.frames[depth].cand.words()) {
                    let (outer, inner) = self.frames.split_at_mut(depth + 1);
                    let (cur, next) = (&mut outer[depth], &mut inner[0]);
                    next.clique.clone_from(&cur.clique);
                    next.clique.insert(v);
                    next.cand.clone_from(&cur.cand);
                    m.compat.intersect_row_into(v, &mut next.cand);
                    next.excl.clone_from(&cur.excl);
                    m.compat.intersect_row_into(v, &mut next.excl);
                    cur.cand.remove(v);
                    cur.excl.insert(v);
                    self.rec(depth + 1);
                    if self.budget.exhaustion().is_some() {
                        return;
                    }
                }
            }
        }

        /// The maximal cliques in the order found, one unit per call.
        pub fn gen_max_cliques_budgeted(m: &ParallelismMatrix, budget: &Budget) -> Vec<BitSet> {
            let n = m.len();
            let mut gen = CliqueGen {
                m,
                budget,
                frames: Vec::new(),
                out: Vec::new(),
            };
            if n > 0 {
                gen.frames.push(Frame::new(n, BitSet::full(n)));
                gen.rec(0);
            }
            gen.out
        }

        /// The legal cliques, deduplicated and sorted; `None` where the
        /// splitting would never end (a node illegal on its own).
        pub fn legalize(
            cliques: Vec<BitSet>,
            m: &ParallelismMatrix,
            graph: &CoverGraph,
            target: &Target,
        ) -> Option<Vec<BitSet>> {
            let mut out: Vec<BitSet> = Vec::new();
            let mut seen: HashSet<BitSet> = HashSet::new();
            let mut work: Vec<BitSet> = cliques;
            while let Some(c) = work.pop() {
                if is_legal(&c, m, graph, target) {
                    if seen.insert(c.clone()) {
                        out.push(c);
                    }
                    continue;
                }
                tally(|t| t.splits += 1);
                let mut kept = BitSet::new(m.len());
                let mut rest = BitSet::new(m.len());
                for i in c.iter() {
                    kept.insert(i);
                    if !is_legal(&kept, m, graph, target) {
                        kept.remove(i);
                        rest.insert(i);
                    }
                }
                if kept.is_empty() {
                    return None;
                }
                work.push(kept);
                if !rest.is_empty() {
                    work.push(rest);
                }
            }
            out.sort_unstable();
            Some(out)
        }

        /// The reference pool of `nodes`, generated under `budget`: its
        /// matrix, its cliques, and the budget units enumeration spent.
        pub fn generate(
            graph: &CoverGraph,
            target: &Target,
            nodes: &[CnId],
            level_window: Option<u32>,
            budget: &Budget,
        ) -> (ParallelismMatrix, Option<Vec<BitSet>>, u64) {
            let m = ParallelismMatrix::build(graph, target, nodes, level_window);
            let spent = budget.spent();
            let raw = gen_max_cliques_budgeted(&m, budget);
            let steps = budget.spent() - spent;
            let legal = legalize(raw, &m, graph, target);
            (m, legal, steps)
        }

        /// Why `pool`, generated for `nodes` under a budget that was
        /// like `budget` before, differs from the reference pool: in its
        /// matrix ids, its cliques or their order, the `steps` units
        /// enumeration spent, or (when given) the pool's `max_per_step`.
        #[allow(clippy::too_many_arguments)]
        pub fn differs(
            graph: &CoverGraph,
            target: &Target,
            nodes: &[CnId],
            level_window: Option<u32>,
            budget: &Budget,
            pool: &CliquePool,
            steps: u64,
            max_per_step: Option<usize>,
        ) -> Option<String> {
            let budget = budget.clone();
            let (m, want, want_steps) = generate(graph, target, nodes, level_window, &budget);
            tally(|t| {
                t.pools += 1;
                t.truncated += u64::from(budget.exhaustion().is_some());
                t.wide += u64::from(nodes.len() > 64);
            });
            let got: Vec<BitSet> = (0..pool.len())
                .map(|i| {
                    let mut c = BitSet::new(m.len());
                    c.set_words(pool.clique(i));
                    c
                })
                .collect();
            let want_max = want
                .iter()
                .flatten()
                .map(BitSet::count)
                .max()
                .unwrap_or(1)
                .max(1);
            if pool.matrix.ids != m.ids {
                Some("matrix ids differ".into())
            } else if want.as_ref() != Some(&got) {
                Some(format!("cliques {got:?}, want {want:?}"))
            } else if steps != want_steps {
                Some(format!("{steps} clique steps, want {want_steps}"))
            } else if max_per_step.is_some_and(|max| max != want_max) {
                Some(format!("max_per_step {max_per_step:?}, want {want_max}"))
            } else {
                None
            }
        }

        /// Covering's hook: compare the pool it generated for the nodes
        /// outside `covered` (`budget` is its budget as it was before,
        /// `steps` the units spent) and the pool's `max_per_step`.
        #[allow(clippy::too_many_arguments)]
        pub(crate) fn check_pool(
            graph: &CoverGraph,
            target: &Target,
            covered: &BitSet,
            level_window: Option<u32>,
            budget: &Budget,
            pool: &CliquePool,
            max_per_step: usize,
            steps: u64,
        ) {
            if !ARMED.get() {
                return;
            }
            let nodes: Vec<CnId> = graph
                .alive()
                .filter(|n| !covered.contains(n.index()))
                .collect();
            let bad = differs(
                graph,
                target,
                &nodes,
                level_window,
                budget,
                pool,
                steps,
                Some(max_per_step),
            );
            if let Some(why) = &bad {
                eprintln!("{}: {why}", target.machine.name);
            }
            tally(|t| {
                t.after_spill += u64::from(!covered.is_empty());
                t.mismatches += u64::from(bad.is_some());
            });
        }
    }

    /// The allocation-free `BitSet` sort must order cliques exactly as
    /// the old per-comparison `Vec<usize>` key did.
    #[test]
    fn bitset_sort_matches_element_sequence_sort() {
        let m = ParallelismMatrix::from_conflicts(
            9,
            &[(0, 1), (2, 3), (4, 5), (1, 7), (3, 8), (0, 6), (5, 6)],
        );
        let by_ord = gen_max_cliques(&m);
        let mut by_key = by_ord.clone();
        by_key.sort_by_key(|c| c.iter().collect::<Vec<_>>());
        assert_eq!(by_ord, by_key);
        assert!(!by_ord.is_empty());
    }

    /// Small hand-picked graphs: paths, stars, and disjoint conflicts.
    #[test]
    fn packed_generation_matches_brute_force() {
        let cases: &[(usize, &[(usize, usize)])] = &[
            (1, &[]),
            (4, &[]),
            (5, &[(0, 1), (1, 2), (2, 3), (3, 4)]),
            (6, &[(0, 1), (0, 2), (0, 3), (0, 4), (0, 5)]),
            (7, &[(0, 3), (1, 4), (2, 5), (3, 6), (1, 2)]),
        ];
        for &(n, conflicts) in cases {
            let m = ParallelismMatrix::from_conflicts(n, conflicts);
            let brute = brute_force_max_cliques(&m);
            assert_eq!(gen_max_cliques(&m), brute, "n={n} conflicts={conflicts:?}");
        }
    }

    /// An empty node set has no cliques, and enumerating it costs
    /// nothing.
    #[test]
    fn empty_matrix_has_no_cliques() {
        let budget = Budget::unlimited();
        let m = ParallelismMatrix::from_conflicts(0, &[]);
        assert!(gen_max_cliques_budgeted(&m, &budget).is_empty());
        assert_eq!(budget.spent(), 0);
    }

    /// Seeded random blocks of 6, 10 and 12 operations, plus two
    /// hand-written blocks with write-backs, immediates and dynamic
    /// memory.
    fn blocks() -> Vec<Function> {
        let mut blocks: Vec<Function> = [6, 10, 12]
            .into_iter()
            .flat_map(|n_ops| {
                let cfg = RandDagConfig {
                    n_ops,
                    ops: vec![Op::Add, Op::Sub, Op::Mul],
                    const_prob: 0.2,
                    ..RandDagConfig::default()
                };
                (0..3).map(move |seed| random_block(&cfg, seed))
            })
            .collect();
        for src in [
            "func f(a, b) { a = a + b; b = a * 3; c = a - b; return c; }",
            "func f(p, q, x) { mem[p] = x * x; y = mem[q] + x; mem[q + 1] = 7; x = y; return y; }",
        ] {
            blocks.push(parse_function(src).expect("oracle block parses"));
        }
        blocks
    }

    /// Fuel allotments the direct comparisons give enumeration: none,
    /// and cuts at 1, 2, 5 and 50 units.
    const FUELS: [Option<u64>; 5] = [None, Some(1), Some(2), Some(5), Some(50)];

    /// Assignments per block, machine and window whose pools are also
    /// generated directly, under every fuel cut.
    const DIRECT: usize = 4;

    /// Generate the pool of every node of `graph` into `pool` under
    /// `fuel`, and compare it with the reference's.
    fn direct(
        pool: &mut CliquePool,
        graph: &CoverGraph,
        target: &Target,
        window: Option<u32>,
        fuel: Option<u64>,
    ) -> Option<String> {
        let nodes: Vec<CnId> = graph.alive().collect();
        let budget = Budget::new(fuel, None);
        let before = budget.clone();
        pool.generate(graph, target, nodes.iter().copied(), window, &budget)
            .expect("validated machines keep single nodes legal");
        let steps = budget.spent();
        reference::differs(graph, target, &nodes, window, &before, pool, steps, None)
    }

    /// The flat pool against the [`reference`]: the same cliques in the
    /// same order, the same `max_per_step` and the same clique steps,
    /// for every pool covering generates (at the start and after every
    /// spill) while compiling seeded blocks on every `archs` machine
    /// with the level window on and off, and for the first explored
    /// assignments' graphs generated directly with enumeration cut at
    /// 1, 2, 5 and 50 units. `dsp_arch` carries ISDL constraints and
    /// Wide a 2-wide bus, so legalization splits cliques there. Larger
    /// blocks give pools over more than 64 nodes, whose cliques span
    /// several words.
    #[test]
    fn pools_match_the_reference() {
        reference::ARMED.set(true);
        let blocks = blocks();
        let mut pool = CliquePool::default();
        for machine in machines() {
            let target = Target::new(machine.clone());
            for window in [Some(2), None] {
                let options = CodegenOptions {
                    clique_level_window: window,
                    ..CodegenOptions::heuristics_on()
                };
                let generator = CodeGenerator::new(machine.clone()).options(options.clone());
                for (b, f) in blocks.iter().enumerate() {
                    // Every pool this compile's covering generates is
                    // checked by the armed hook; a failed rung is fine.
                    let _ = generator.compile_function(f);
                    let dag = &f.blocks[0].dag;
                    let Ok(sndag) = SplitNodeDag::build(dag, &target) else {
                        continue;
                    };
                    let explored = explore(dag, &sndag, &target, &options);
                    for (a, assignment) in explored.assignments.iter().take(DIRECT).enumerate() {
                        let graph = CoverGraph::build(dag, &sndag, &target, assignment);
                        for fuel in FUELS {
                            if let Some(why) = direct(&mut pool, &graph, &target, window, fuel) {
                                panic!(
                                    "{} window {window:?} block {b} assignment {a} fuel {fuel:?}: {why}",
                                    target.machine.name
                                );
                            }
                        }
                    }
                }
            }
        }
        // Pools over more than 64 nodes.
        let cfg = RandDagConfig {
            n_ops: 40,
            ops: vec![Op::Add, Op::Sub, Op::Mul],
            ..RandDagConfig::default()
        };
        for machine in [
            archs::example_arch(4),
            archs::dsp_arch(4),
            archs::wide_arch(4),
        ] {
            let target = Target::new(machine);
            let options = CodegenOptions::heuristics_on();
            for seed in 0..2 {
                let f = random_block(&cfg, seed);
                let dag = &f.blocks[0].dag;
                let sndag = SplitNodeDag::build(dag, &target).expect("random blocks map");
                let explored = explore(dag, &sndag, &target, &options);
                for assignment in explored.assignments.iter().take(2) {
                    let graph = CoverGraph::build(dag, &sndag, &target, assignment);
                    for fuel in [None, Some(50)] {
                        if let Some(why) = direct(&mut pool, &graph, &target, Some(2), fuel) {
                            panic!(
                                "{} 40-op seed {seed} fuel {fuel:?}: {why}",
                                target.machine.name
                            );
                        }
                    }
                }
            }
        }
        reference::ARMED.set(false);
        let t = reference::TALLY.get();
        eprintln!("{t:?}");
        assert_eq!(t.mismatches, 0, "{t:?}");
        assert!(
            t.pools > 10_000 && t.after_spill > 500 && t.truncated > 1_000,
            "{t:?}"
        );
        assert!(t.splits > 1_000 && t.wide > 10, "{t:?}");
    }

    /// A node that is illegal on its own — here every `mul` under an
    /// `at_most 0` constraint, on a machine read by the unchecked parse —
    /// ends generation with a coded defect, and covering reports it,
    /// where the old legalizer split the same clique forever.
    #[test]
    fn a_node_illegal_on_its_own_is_a_coded_defect() {
        let machine = parse_machine_unchecked(
            "machine M {
                unit U1 { ops { add, mul } regfile R1[4]; }
                unit U2 { ops { add, mul } regfile R2[4]; }
                memory DM;
                bus DB capacity 1 connects { R1, R2, DM };
                constraint at_most 0 { U1.mul, U2.mul };
            }",
        )
        .expect("the unchecked parse accepts at_most 0");
        let target = Target::new(machine);
        let f = parse_function("func f(a, b) { c = a * b; return c + a; }").expect("parses");
        let dag = &f.blocks[0].dag;
        let sndag = SplitNodeDag::build(dag, &target).expect("maps");
        let explored = explore(dag, &sndag, &target, &CodegenOptions::heuristics_on());
        let mut graph = CoverGraph::build(dag, &sndag, &target, &explored.assignments[0]);
        let nodes: Vec<CnId> = graph.alive().collect();
        let m = ParallelismMatrix::build(&graph, &target, &nodes, None);
        let raw = reference::gen_max_cliques_budgeted(&m, &Budget::unlimited());
        assert_eq!(reference::legalize(raw, &m, &graph, &target), None);

        let e = CliquePool::default()
            .generate(&graph, &target, nodes, None, &Budget::unlimited())
            .expect_err("a mul cannot issue");
        assert_eq!(e.code, aviv_verify::Code::C004);
        assert!(e.to_string().contains("illegal on its own"), "{e}");
        let mut syms = f.syms.clone();
        let options = CodegenOptions::heuristics_on();
        match cover(&mut graph, &target, &mut syms, &options) {
            Err(CoverError::Internal(d)) => assert_eq!(d.code, aviv_verify::Code::C004),
            other => panic!("{other:?}"),
        }
    }
}
