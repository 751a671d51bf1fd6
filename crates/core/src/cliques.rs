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

use crate::budget::Budget;
use crate::covergraph::{CnId, CoverGraph, Resource};
use aviv_ir::{BitMatrix, BitSet};
use aviv_isdl::{BusId, Target, UnitId};

/// The pairwise-parallelism matrix over a set of cover nodes.
///
/// Row `i` has bit `j` set when nodes `i` and `j` **can** execute in
/// parallel (the paper's matrix stores 0 there; the diagonal is clear).
/// Rows are packed [`BitMatrix`] rows so the clique enumerator works by
/// whole-row intersection instead of probing pairs one bit at a time.
#[derive(Debug, Clone)]
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
        let n = nodes.len();
        let mut compat = BitMatrix::new(n, n);
        for i in 0..n {
            for j in (i + 1)..n {
                let (a, b) = (nodes[i], nodes[j]);
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
                    compat.set(i, j);
                    compat.set(j, i);
                }
            }
        }
        ParallelismMatrix {
            ids: nodes.to_vec(),
            compat,
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
    fn pivot(&self, cand: &BitSet, excl: &BitSet) -> usize {
        let p = cand.words();
        let mut best: Option<(usize, u32)> = None;
        for (k, (&a, &b)) in p.iter().zip(excl.words()).enumerate() {
            let mut w = a | b;
            while w != 0 {
                let u = k * 64 + w.trailing_zeros() as usize;
                w &= w - 1;
                let row = self.compat.row_words(u);
                let count = row.iter().zip(p).map(|(r, c)| (r & c).count_ones()).sum();
                if best.is_none_or(|(_, most)| count > most) {
                    best = Some((u, count));
                }
            }
        }
        best.map_or(0, |(u, _)| u)
    }

    /// The first node of `cand`, in ascending order, that is not
    /// compatible with node `u` (`u` itself included).
    fn first_incompatible(&self, u: usize, cand: &BitSet) -> Option<usize> {
        let row = self.compat.row_words(u).iter();
        row.zip(cand.words()).enumerate().find_map(|(k, (&r, &c))| {
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

/// One level of the enumeration: the clique `R`, the candidates `P`
/// that extend it, and the excluded nodes `X` already tried at this
/// level.
struct Frame {
    clique: BitSet,
    cand: BitSet,
    excl: BitSet,
}

impl Frame {
    /// A frame over `n` nodes with candidates `cand` and no members or
    /// excluded nodes.
    fn new(n: usize, cand: BitSet) -> Frame {
        Frame {
            clique: BitSet::new(n),
            cand,
            excl: BitSet::new(n),
        }
    }
}

/// The state of one [`gen_max_cliques_budgeted`] call. Each recursion
/// depth works in its own [`Frame`], reused by every call at that depth,
/// so a recursive call allocates nothing; only a found clique is copied
/// out.
struct CliqueGen<'a> {
    m: &'a ParallelismMatrix,
    budget: &'a Budget,
    frames: Vec<Frame>,
    out: Vec<BitSet>,
}

impl CliqueGen<'_> {
    /// One Bron–Kerbosch call on the frame at `depth`: report `R` when
    /// neither `P` nor `X` can extend it, otherwise branch on every
    /// candidate the pivot is not compatible with, in ascending order.
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
        let pivot = m.pivot(&f.cand, &f.excl);
        if self.frames.len() == depth + 1 {
            self.frames.push(Frame::new(m.len(), BitSet::new(m.len())));
        }
        // Each branched node leaves `P` for `X`, so the candidates still
        // outside the pivot's row are exactly those not yet branched on.
        // Deeper calls touch only deeper frames.
        while let Some(v) = m.first_incompatible(pivot, &self.frames[depth].cand) {
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

/// Check every clique against the machine's constraints and bus
/// capacities; split violators into smaller legal cliques (§IV-C.3).
/// Returns the deduplicated legal clique set (every input node remains
/// covered by at least one clique).
pub fn legalize(
    cliques: Vec<BitSet>,
    m: &ParallelismMatrix,
    graph: &CoverGraph,
    target: &Target,
) -> Vec<BitSet> {
    let mut out: Vec<BitSet> = Vec::new();
    let mut seen: std::collections::HashSet<BitSet> = std::collections::HashSet::new();
    let mut work: Vec<BitSet> = cliques;
    while let Some(c) = work.pop() {
        if is_legal(&c, m, graph, target) {
            if seen.insert(c.clone()) {
                out.push(c);
            }
            continue;
        }
        // Greedy split: fill one legal sub-clique, push the remainder
        // back for further processing.
        let mut kept = BitSet::new(m.len());
        let mut rest = BitSet::new(m.len());
        for i in c.iter() {
            kept.insert(i);
            if !is_legal(&kept, m, graph, target) {
                kept.remove(i);
                rest.insert(i);
            }
        }
        debug_assert!(!kept.is_empty(), "single nodes are always legal");
        work.push(kept);
        if !rest.is_empty() {
            work.push(rest);
        }
    }
    // Stable order for determinism: `BitSet`'s `Ord` is lexicographic
    // over the element sequences, so this matches the old allocating
    // `sort_by_key(|c| c.iter().collect::<Vec<_>>())` without building a
    // key per comparison.
    out.sort_unstable();
    out
}

/// Whether a clique satisfies unit and bus capacities and all ISDL
/// constraints; see [`conflict`].
pub fn is_legal(
    clique: &BitSet,
    m: &ParallelismMatrix,
    graph: &CoverGraph,
    target: &Target,
) -> bool {
    conflict(graph, target, clique.iter().map(|i| m.ids[i])).is_none()
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
mod tests {
    use super::*;

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
}
