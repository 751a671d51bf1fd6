//! Maximal groupings of parallel nodes (paper §IV-C).
//!
//! "The goal is to examine the nodes in a given assignment and merge them
//! into groups of nodes that can be executed in parallel on the target
//! processor. Each grouping corresponds to a VLIW instruction." Two nodes
//! can execute in parallel when they occupy different resources and no
//! directed dependency path connects them (Fig. 7's pairwise matrix);
//! [`gen_max_cliques`] is the recursive generator of Fig. 8 including its
//! `i < index` pruning condition; [`legalize`] enforces the ISDL
//! constraints by splitting illegal cliques (§IV-C.3).

use crate::budget::Budget;
use crate::covergraph::{CnKind, CoverGraph, Resource};
use aviv_ir::{BitMatrix, BitSet};
use aviv_isdl::{SlotPattern, Target};

/// The pairwise-parallelism matrix over a set of cover nodes.
///
/// Row `i` of `conflict` has bit `j` set when node `i` **cannot** execute
/// in parallel with node `j` (the paper's matrix stores 1 there); row `i`
/// of `compat` is its complement minus the diagonal bit. Both relations
/// are packed as [`BitMatrix`] rows so the clique generator works by
/// whole-row intersection instead of probing pairs one bit at a time.
#[derive(Debug, Clone)]
pub struct ParallelismMatrix {
    /// Matrix index → cover-graph node.
    pub ids: Vec<crate::covergraph::CnId>,
    conflict: BitMatrix,
    compat: BitMatrix,
}

impl ParallelismMatrix {
    /// Build the matrix for `nodes` of `graph`.
    ///
    /// Conflicts: a dependency path in either direction; two operations on
    /// the same unit; two transfers on the same capacity-1 bus; and — when
    /// `level_window` is set (§IV-C.2) — any pair whose levels from the
    /// top or from the bottom differ by more than the window.
    pub fn build(
        graph: &CoverGraph,
        target: &Target,
        nodes: &[crate::covergraph::CnId],
        level_window: Option<u32>,
    ) -> ParallelismMatrix {
        let n = nodes.len();
        let mut conflict = BitMatrix::new(n, n);
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
                if c {
                    conflict.set(i, j);
                    conflict.set(j, i);
                }
            }
        }
        ParallelismMatrix::from_conflict_rows(nodes.to_vec(), conflict)
    }

    /// Finish a matrix from its packed conflict rows by precomputing the
    /// complementary compatibility rows (diagonal excluded).
    fn from_conflict_rows(
        ids: Vec<crate::covergraph::CnId>,
        conflict: BitMatrix,
    ) -> ParallelismMatrix {
        let n = ids.len();
        let mut compat = BitMatrix::new(n, n);
        for i in 0..n {
            for j in 0..n {
                if i != j && !conflict.contains(i, j) {
                    compat.set(i, j);
                }
            }
        }
        ParallelismMatrix {
            ids,
            conflict,
            compat,
        }
    }

    /// Build a matrix directly from conflict pairs over `n` abstract
    /// nodes (ids become `CnId(0..n)`). Exists for property tests that
    /// compare [`gen_max_cliques`] against a brute-force reference on
    /// arbitrary graphs.
    pub fn from_conflicts(n: usize, conflicts: &[(usize, usize)]) -> ParallelismMatrix {
        let mut conflict = BitMatrix::new(n, n);
        for &(i, j) in conflicts {
            if i != j && i < n && j < n {
                conflict.set(i, j);
                conflict.set(j, i);
            }
        }
        ParallelismMatrix::from_conflict_rows(
            (0..n as u32).map(crate::covergraph::CnId).collect(),
            conflict,
        )
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

/// Generate all maximal cliques of the compatibility graph, as bitsets of
/// matrix indices — the recursive algorithm of the paper's Fig. 8.
pub fn gen_max_cliques(m: &ParallelismMatrix) -> Vec<BitSet> {
    gen_max_cliques_budgeted(m, &Budget::unlimited())
}

/// [`gen_max_cliques`] under a cooperative [`Budget`]: each recursive
/// step soft-charges one unit, and once the budget is exhausted the
/// recursion unwinds, returning whatever cliques were already complete.
/// A truncated clique set is still sound — [`legalize`] and the covering
/// loop only require that cliques be legal, not exhaustive — and the
/// caller's next hard charge surfaces the exhaustion.
pub fn gen_max_cliques_budgeted(m: &ParallelismMatrix, budget: &Budget) -> Vec<BitSet> {
    let mut gen = CliqueGen {
        m,
        budget,
        frames: Vec::new(),
        out: Vec::new(),
        seen: std::collections::HashSet::new(),
    };
    for start in 0..m.len() {
        let root = gen.frame(0);
        root.clique.clear();
        root.clique.insert(start);
        root.compat.clear();
        m.compat.union_row_into(start, &mut root.compat);
        gen.rec(0, start);
    }
    gen.out
}

/// One level of the clique recursion: the clique so far, the running
/// intersection of its members' compatibility rows, and a snapshot of
/// that intersection for the first loop to walk.
struct Frame {
    clique: BitSet,
    compat: BitSet,
    candidates: BitSet,
}

/// The state of one [`gen_max_cliques_budgeted`] call. Each recursion
/// depth works in its own [`Frame`], reused by every call at that depth,
/// so a recursive step allocates nothing; only a newly found clique is
/// copied out.
struct CliqueGen<'a> {
    m: &'a ParallelismMatrix,
    budget: &'a Budget,
    frames: Vec<Frame>,
    out: Vec<BitSet>,
    seen: std::collections::HashSet<BitSet>,
}

impl CliqueGen<'_> {
    /// The frame for recursion depth `depth`, created on first use.
    fn frame(&mut self, depth: usize) -> &mut Frame {
        let n = self.m.len();
        while self.frames.len() <= depth {
            self.frames.push(Frame {
                clique: BitSet::new(n),
                compat: BitSet::new(n),
                candidates: BitSet::new(n),
            });
        }
        &mut self.frames[depth]
    }

    /// One recursive step of Fig. 8's `gen_max_clique(clique, index)` on
    /// the clique in frame `depth`.
    ///
    /// `compat` is the running intersection of the compatibility rows of
    /// every clique member — exactly the nodes that could still join — so
    /// membership tests, preclusion tests, and candidate enumeration are
    /// all whole-row bitset operations rather than per-pair probes.
    fn rec(&mut self, depth: usize, index: usize) {
        self.budget.note(1);
        if self.budget.exhaustion().is_some() {
            return;
        }
        let m = self.m;

        // First loop: add every node that can join and does not preclude
        // any other candidate. The pruning condition: if such a node has
        // a smaller id than `index`, this whole branch was already
        // generated from that node's seed — terminate.
        let f = &mut self.frames[depth];
        loop {
            f.candidates.clone_from(&f.compat);
            let mut grew = false;
            for i in f.candidates.iter() {
                if !f.compat.contains(i) {
                    continue; // an earlier addition this round absorbed it
                }
                // Adding `i` precludes another live candidate iff its
                // conflict row overlaps the remaining candidate set (the
                // diagonal is never set, so `i` itself cannot match).
                let precludes = m.conflict.row_intersects(i, &f.compat);
                if !precludes {
                    if i < index {
                        return; // pruning condition of Fig. 8
                    }
                    f.clique.insert(i);
                    m.compat.intersect_row_into(i, &mut f.compat);
                    grew = true;
                }
            }
            if !grew {
                break;
            }
        }

        // Second loop: spawn a recursive call per remaining compatible
        // node. Deeper calls touch only deeper frames, so this frame's
        // `compat` is stable while it is walked.
        let mut spawned = false;
        for i in 0..m.len() {
            if !self.frames[depth].compat.contains(i) {
                continue;
            }
            self.frame(depth + 1);
            let (outer, inner) = self.frames.split_at_mut(depth + 1);
            let (cur, next) = (&outer[depth], &mut inner[0]);
            next.clique.clone_from(&cur.clique);
            next.clique.insert(i);
            next.compat.clone_from(&cur.compat);
            m.compat.intersect_row_into(i, &mut next.compat);
            self.rec(depth + 1, index.max(i));
            spawned = true;
        }
        let clique = &self.frames[depth].clique;
        if !spawned && !self.seen.contains(clique) {
            self.seen.insert(clique.clone());
            self.out.push(clique.clone());
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

/// Whether a clique satisfies bus capacities and all ISDL constraints.
pub fn is_legal(
    clique: &BitSet,
    m: &ParallelismMatrix,
    graph: &CoverGraph,
    target: &Target,
) -> bool {
    // Bus capacity: count each bus's users (cliques are a handful of
    // nodes, so the quadratic count is cheaper than a per-call table).
    let resource = |i: usize| graph.node(m.ids[i]).resource();
    for i in clique.iter() {
        if let Resource::Bus(b) = resource(i) {
            let users = clique
                .iter()
                .filter(|&j| resource(j) == Resource::Bus(b))
                .count();
            if users > target.machine.bus(b).capacity as usize {
                return false;
            }
        }
    }
    // ISDL constraints.
    for con in target.machine.constraints() {
        let mut count = 0u32;
        for i in clique.iter() {
            let node = graph.node(m.ids[i]);
            let matched = con.members.iter().any(|pat| match *pat {
                SlotPattern::UnitOp { unit, op } => match &node.kind {
                    CnKind::Op { unit: u, op: o, .. } => {
                        *u == unit && op.is_none_or(|want| *o == want)
                    }
                    CnKind::Complex { unit: u, .. } => *u == unit && op.is_none(),
                    _ => false,
                },
                SlotPattern::BusUse { bus } => {
                    matches!(node.resource(), Resource::Bus(b) if b == bus)
                }
            });
            if matched {
                count += 1;
                if count > con.at_most {
                    return false;
                }
            }
        }
    }
    true
}

/// Reference implementation for property tests: brute-force maximal
/// cliques by subset enumeration (only usable for small `n`).
pub fn brute_force_max_cliques(m: &ParallelismMatrix) -> Vec<BitSet> {
    let n = m.len();
    assert!(n <= 20, "brute force is exponential");
    let mut cliques: Vec<BitSet> = Vec::new();
    for mask in 1u32..(1 << n) {
        let members: Vec<usize> = (0..n).filter(|&i| mask & (1 << i) != 0).collect();
        let ok = members
            .iter()
            .enumerate()
            .all(|(k, &i)| members[k + 1..].iter().all(|&j| m.compatible(i, j)));
        if !ok {
            continue;
        }
        // Maximal: no outside node compatible with all members.
        let maximal =
            (0..n).all(|o| members.contains(&o) || members.iter().any(|&i| !m.compatible(i, o)));
        if maximal {
            let mut b = BitSet::new(n);
            for i in members {
                b.insert(i);
            }
            cliques.push(b);
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
        let mut by_ord = gen_max_cliques(&m);
        let mut by_key = by_ord.clone();
        by_ord.sort_unstable();
        by_key.sort_by_key(|c| c.iter().collect::<Vec<_>>());
        assert_eq!(by_ord, by_key);
        assert!(!by_ord.is_empty());
    }

    /// `legalize`'s output order is pinned: covering walks cliques in
    /// this order, so any change here would change generated code.
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
            let mut generated = gen_max_cliques(&m);
            generated.sort_unstable();
            let brute = brute_force_max_cliques(&m);
            assert_eq!(generated, brute, "n={n} conflicts={conflicts:?}");
        }
    }
}
