//! Global dataflow analysis over the [`Function`] CFG.
//!
//! The covering engine and the program checker both need whole-function
//! facts — which variables are live out of a block, which definitions
//! reach a use, which blocks dominate which — that the per-block DAGs
//! cannot answer alone. This module provides the classic iterative
//! gen/kill worklist solver over [`BitSet`] domains plus the canned
//! analyses built on it:
//!
//! * [`liveness`] — backward may-analysis of variable liveness, seeded
//!   with an explicit exit-live set,
//! * [`definite_assignment`] — forward must-analysis of variables
//!   assigned on every path (the basis of the uninitialized-use check),
//! * [`reaching_defs`] / [`def_use`] — forward may-analysis of reaching
//!   definitions and the def-use chains derived from it,
//! * [`dominators`] — forward must-analysis of block dominance.
//!
//! All solvers are deterministic: blocks are seeded in (reverse)
//! post-order and facts live in fixed-capacity bit sets, so two runs over
//! the same function produce identical results bit for bit.
//!
//! Variable semantics follow the interpreter's block contract: every
//! `Input` leaf reads the value a variable had at *block entry*, and
//! every `StoreVar` root takes effect at *block exit*. Consequently a
//! block's whole read set is upward-exposed and its whole write set is
//! downward-exposed — the transfer function `out = gen ∪ (in − kill)`
//! is exact, not an approximation.

use crate::bitset::BitSet;
use crate::dag::NodeId;
use crate::op::Op;
use crate::program::{BlockId, Function, Terminator};
use crate::symbols::Sym;

/// Which way facts propagate along CFG edges.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Direction {
    /// Facts flow from predecessors' exits into a block's entry.
    Forward,
    /// Facts flow from successors' entries into a block's exit.
    Backward,
}

/// How facts from several incoming edges combine.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Confluence {
    /// Union: a fact holds if it holds on *some* path.
    May,
    /// Intersection: a fact holds only if it holds on *every* path.
    Must,
}

/// A solved dataflow problem: one fact set per block boundary.
///
/// `on_entry[b]` / `on_exit[b]` are the facts at block `b`'s entry and
/// exit regardless of the direction the analysis ran in.
#[derive(Debug, Clone)]
pub struct Solution {
    /// Facts holding at each block's entry.
    pub on_entry: Vec<BitSet>,
    /// Facts holding at each block's exit.
    pub on_exit: Vec<BitSet>,
}

/// The CFG's edges in one flat list: block `b`'s neighbours are
/// `list[start[b]..start[b + 1]]`.
struct Edges {
    start: Vec<usize>,
    list: Vec<BlockId>,
}

impl Edges {
    /// Each block's successors, in branch order.
    fn successors(f: &Function) -> Self {
        let edges = f.blocks.iter().map(|b| b.term.successors().count()).sum();
        let mut start = Vec::with_capacity(f.blocks.len() + 1);
        let mut list = Vec::with_capacity(edges);
        start.push(0);
        for b in &f.blocks {
            list.extend(b.term.successors());
            start.push(list.len());
        }
        Edges { start, list }
    }

    /// Each block's predecessors in block order, as
    /// [`Function::predecessors`] lists them.
    fn predecessors(succs: &Edges) -> Self {
        let n = succs.start.len() - 1;
        let mut start = vec![0; n + 1];
        for s in &succs.list {
            start[s.index() + 1] += 1;
        }
        for b in 0..n {
            start[b + 1] += start[b];
        }
        // Place each edge at its target's cursor, `start[s]`, which then
        // ends at `s + 1`'s start; shifting right restores the starts.
        let mut list = vec![BlockId(0); succs.list.len()];
        for b in 0..n {
            for s in succs.of(b) {
                list[start[s.index()]] = BlockId(b as u32);
                start[s.index()] += 1;
            }
        }
        start.copy_within(0..n, 1);
        start[0] = 0;
        Edges { start, list }
    }

    fn of(&self, b: usize) -> &[BlockId] {
        &self.list[self.start[b]..self.start[b + 1]]
    }
}

/// Solve a gen/kill dataflow problem over `f`'s CFG by worklist
/// iteration.
///
/// `domain` is the universe size (all bit sets have this capacity);
/// `gen`/`kill` give one transfer pair per block; `boundary` is the fact
/// set at the CFG boundary — the function entry for forward problems,
/// every `return` for backward ones. For [`Confluence::Must`] problems,
/// blocks with no incoming information (unreachable code) converge to
/// the full universe — mask with reachability before reporting.
///
/// # Panics
///
/// Panics if `gen`/`kill` lengths or bit-set capacities disagree with
/// the function and `domain`.
pub fn solve(
    f: &Function,
    domain: usize,
    direction: Direction,
    confluence: Confluence,
    gen: &[BitSet],
    kill: &[BitSet],
    boundary: &BitSet,
) -> Solution {
    let n = f.blocks.len();
    assert_eq!(gen.len(), n, "one gen set per block");
    assert_eq!(kill.len(), n, "one kill set per block");
    assert_eq!(boundary.capacity(), domain, "boundary capacity");
    for s in gen.iter().chain(kill) {
        assert_eq!(s.capacity(), domain, "gen/kill capacity");
    }

    let succs = Edges::successors(f);
    let preds = Edges::predecessors(&succs);

    // `feed[b]` are the blocks whose computed fact flows into `b`;
    // `dependents[b]` are the blocks to revisit when `b`'s fact changes.
    let (feed, dependents) = match direction {
        Direction::Forward => (&preds, &succs),
        Direction::Backward => (&succs, &preds),
    };
    let at_boundary = |b: usize| match direction {
        Direction::Forward => b == f.entry.index(),
        Direction::Backward => matches!(f.blocks[b].term, Terminator::Return(_)),
    };

    let full = {
        let mut s = BitSet::new(domain);
        for i in 0..domain {
            s.insert(i);
        }
        s
    };
    let init = match confluence {
        Confluence::May => BitSet::new(domain),
        Confluence::Must => full.clone(),
    };
    // `met[b]` is the meet over incoming edges; `derived[b]` applies the
    // block's transfer function to it. Flow direction decides which is
    // on_entry and which is on_exit.
    let mut met: Vec<BitSet> = vec![init.clone(); n];
    let mut derived: Vec<BitSet> = vec![init; n];

    // Seed the worklist in an order that converges fast: reverse
    // post-order for forward problems, its reverse for backward ones.
    // Unreachable blocks are appended so they still get (vacuous) facts.
    let rpo = f.reverse_postorder();
    let mut order: Vec<usize> = rpo.iter().map(|b| b.index()).collect();
    let in_rpo: Vec<bool> = {
        let mut seen = vec![false; n];
        for b in &rpo {
            seen[b.index()] = true;
        }
        seen
    };
    order.extend((0..n).filter(|&b| !in_rpo[b]));
    if direction == Direction::Backward {
        order.reverse();
    }

    let mut queue: std::collections::VecDeque<usize> = order.into();
    let mut queued = vec![true; n];
    while let Some(b) = queue.pop_front() {
        queued[b] = false;
        // Meet over everything flowing in, plus the boundary at CFG
        // boundary blocks.
        let mut acc = match confluence {
            Confluence::May => BitSet::new(domain),
            Confluence::Must => full.clone(),
        };
        let mut fed = false;
        if at_boundary(b) {
            match confluence {
                Confluence::May => acc.union_with(boundary),
                Confluence::Must => acc.intersect_with(boundary),
            }
            fed = true;
        }
        for p in feed.of(b) {
            match confluence {
                Confluence::May => acc.union_with(&derived[p.index()]),
                Confluence::Must => acc.intersect_with(&derived[p.index()]),
            }
            fed = true;
        }
        // A Must block with no incoming information keeps the vacuous
        // full set (it can never execute).
        if !fed && confluence == Confluence::Must {
            acc = full.clone();
        }

        let mut next = acc.clone();
        next.subtract(&kill[b]);
        next.union_with(&gen[b]);

        if acc != met[b] || next != derived[b] {
            met[b] = acc;
            if next != derived[b] {
                derived[b] = next;
                for d in dependents.of(b) {
                    if !queued[d.index()] {
                        queued[d.index()] = true;
                        queue.push_back(d.index());
                    }
                }
            }
        }
    }

    match direction {
        Direction::Forward => Solution {
            on_entry: met,
            on_exit: derived,
        },
        Direction::Backward => Solution {
            on_entry: derived,
            on_exit: met,
        },
    }
}

/// Per-block variable read/write sets over the `Sym` domain.
///
/// `reads[b]` holds every variable some `Input` leaf of block `b` names
/// (block-entry reads); `writes[b]` holds every variable a `StoreVar`
/// root assigns (block-exit writes).
#[derive(Debug, Clone)]
pub struct BlockFacts {
    /// Variables read at each block's entry.
    pub reads: Vec<BitSet>,
    /// Variables written at each block's exit.
    pub writes: Vec<BitSet>,
}

/// Collect [`BlockFacts`] for every block of `f`.
pub fn block_facts(f: &Function) -> BlockFacts {
    let domain = f.syms.len();
    let mut reads = Vec::with_capacity(f.blocks.len());
    let mut writes = Vec::with_capacity(f.blocks.len());
    for (_, b) in f.iter() {
        let mut r = BitSet::new(domain);
        let mut w = BitSet::new(domain);
        for (_, node) in b.dag.iter() {
            match node.op {
                Op::Input => r.insert(node.sym.expect("input names a variable").index()),
                Op::StoreVar => w.insert(node.sym.expect("store names a variable").index()),
                _ => {}
            }
        }
        reads.push(r);
        writes.push(w);
    }
    BlockFacts { reads, writes }
}

/// Cross-block variable liveness (backward may-analysis over `Sym`s).
#[derive(Debug, Clone)]
pub struct Liveness {
    /// Variables live at each block's entry.
    pub live_in: Vec<BitSet>,
    /// Variables live at each block's exit.
    pub live_out: Vec<BitSet>,
}

/// Compute exact global liveness. `exit_live` seeds liveness at every
/// `return` — pass the full symbol universe to treat the data-memory
/// image as observable (the compiler's contract), or a narrower set for
/// analyses that only care about specific outputs.
pub fn liveness(f: &Function, exit_live: &BitSet) -> Liveness {
    let facts = block_facts(f);
    let s = solve(
        f,
        f.syms.len(),
        Direction::Backward,
        Confluence::May,
        &facts.reads,
        &facts.writes,
        exit_live,
    );
    Liveness {
        live_in: s.on_entry,
        live_out: s.on_exit,
    }
}

/// The full-universe exit-live set for [`liveness`]: every named
/// variable's final memory value is observable to the caller.
pub fn all_syms(f: &Function) -> BitSet {
    let mut s = BitSet::new(f.syms.len());
    for i in 0..f.syms.len() {
        s.insert(i);
    }
    s
}

/// Variables definitely assigned on every path (forward must-analysis).
///
/// `on_entry[b]` contains a variable iff every path from the function
/// entry to `b` assigns it (parameters count as assigned at entry). An
/// `Input` read of a variable not in this set may observe an
/// uninitialized memory cell.
pub fn definite_assignment(f: &Function) -> Solution {
    let facts = block_facts(f);
    let domain = f.syms.len();
    let mut boundary = BitSet::new(domain);
    for p in &f.params {
        boundary.insert(p.index());
    }
    let empty = vec![BitSet::new(domain); f.blocks.len()];
    solve(
        f,
        domain,
        Direction::Forward,
        Confluence::Must,
        &facts.writes,
        &empty,
        &boundary,
    )
}

/// Block dominance (forward must-analysis over the block domain).
#[derive(Debug, Clone)]
pub struct Dominators {
    /// `dom[b]` contains block `d` iff `d` dominates `b` (reflexive:
    /// every block dominates itself). Unreachable blocks converge to
    /// the full universe — mask with reachability before use.
    pub dom: Vec<BitSet>,
}

/// Compute dominator sets.
pub fn dominators(f: &Function) -> Dominators {
    let n = f.blocks.len();
    let gen: Vec<BitSet> = (0..n)
        .map(|b| {
            let mut s = BitSet::new(n);
            s.insert(b);
            s
        })
        .collect();
    let kill = vec![BitSet::new(n); n];
    let s = solve(
        f,
        n,
        Direction::Forward,
        Confluence::Must,
        &gen,
        &kill,
        &BitSet::new(n),
    );
    Dominators { dom: s.on_exit }
}

/// One definition site for [`reaching_defs`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DefSite {
    /// The defined variable.
    pub sym: Sym,
    /// The defining block and `StoreVar` node, or `None` for the
    /// implicit entry definition of a parameter.
    pub site: Option<(BlockId, NodeId)>,
}

/// Reaching definitions (forward may-analysis over definition sites).
#[derive(Debug, Clone)]
pub struct ReachingDefs {
    /// Every definition site: parameters first (in parameter order),
    /// then `StoreVar` roots in block then store order. Bit `i` of the
    /// solution sets refers to `sites[i]`.
    pub sites: Vec<DefSite>,
    /// Sites reaching each block's entry.
    pub reach_in: Vec<BitSet>,
    /// Sites reaching each block's exit.
    pub reach_out: Vec<BitSet>,
}

/// Compute reaching definitions.
pub fn reaching_defs(f: &Function) -> ReachingDefs {
    let mut sites: Vec<DefSite> = f
        .params
        .iter()
        .map(|&p| DefSite { sym: p, site: None })
        .collect();
    for (bid, b) in f.iter() {
        for &s in b.dag.stores() {
            let node = b.dag.node(s);
            if node.op == Op::StoreVar {
                sites.push(DefSite {
                    sym: node.sym.expect("store names a variable"),
                    site: Some((bid, s)),
                });
            }
        }
    }
    let domain = sites.len();

    let n = f.blocks.len();
    let mut gen = vec![BitSet::new(domain); n];
    let mut kill = vec![BitSet::new(domain); n];
    for (bid, b) in f.iter() {
        // The *last* store of each variable is the block's generated
        // definition; every site of a written variable is killed (gen is
        // re-added by the transfer function).
        let bi = bid.index();
        let mut last: Vec<(Sym, NodeId)> = Vec::new();
        for &s in b.dag.stores() {
            let node = b.dag.node(s);
            if node.op == Op::StoreVar {
                let sym = node.sym.expect("store names a variable");
                last.retain(|&(v, _)| v != sym);
                last.push((sym, s));
            }
        }
        for (i, site) in sites.iter().enumerate() {
            if let Some(&(_, node)) = last.iter().find(|&&(v, _)| v == site.sym) {
                kill[bi].insert(i);
                if site.site == Some((bid, node)) {
                    gen[bi].insert(i);
                }
            }
        }
    }

    let mut boundary = BitSet::new(domain);
    for i in 0..f.params.len() {
        boundary.insert(i);
    }
    let s = solve(
        f,
        domain,
        Direction::Forward,
        Confluence::May,
        &gen,
        &kill,
        &boundary,
    );
    ReachingDefs {
        sites,
        reach_in: s.on_entry,
        reach_out: s.on_exit,
    }
}

/// Def-use chains derived from [`reaching_defs`]: for every definition
/// site, the blocks whose entry reads can observe that definition.
#[derive(Debug, Clone)]
pub struct DefUse {
    /// `uses[i]` lists, in block order, every block that reads
    /// `rd.sites[i].sym` with site `i` reaching its entry.
    pub uses: Vec<Vec<BlockId>>,
}

/// Build def-use chains from a reaching-definitions solution.
pub fn def_use(f: &Function, rd: &ReachingDefs) -> DefUse {
    let facts = block_facts(f);
    let mut uses = vec![Vec::new(); rd.sites.len()];
    for (bid, _) in f.iter() {
        let bi = bid.index();
        for (i, site) in rd.sites.iter().enumerate() {
            if facts.reads[bi].contains(site.sym.index()) && rd.reach_in[bi].contains(i) {
                uses[i].push(bid);
            }
        }
    }
    DefUse { uses }
}

/// Blocks reachable from the function entry, as a bit set over blocks.
pub fn reachable_blocks(f: &Function) -> BitSet {
    let mut seen = BitSet::new(f.blocks.len());
    let mut stack = vec![f.entry];
    seen.insert(f.entry.index());
    while let Some(b) = stack.pop() {
        for s in f.block(b).term.successors() {
            if !seen.contains(s.index()) {
                seen.insert(s.index());
                stack.push(s);
            }
        }
    }
    seen
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parser::parse_function;

    fn sym(f: &Function, name: &str) -> usize {
        f.syms.get(name).unwrap().index()
    }

    /// The solver's flat edge lists hold what `Terminator::successors`
    /// and `Function::predecessors` give, in their order, on a loop
    /// with a branch whose two targets are one block.
    #[test]
    fn flat_edges_list_the_cfg_in_order() {
        let f = parse_function(
            "func f(a) {
                x = a;
            top:
                if (x > 9) goto out;
                x = x + 1;
                if (x > 3) goto skip;
            skip:
                goto top;
            out:
                return x;
            }",
        )
        .unwrap();
        let succs = Edges::successors(&f);
        let preds = Edges::predecessors(&succs);
        let cfg_preds = f.predecessors();
        assert!(cfg_preds.iter().any(|p| p.len() > 1 && p[0] == p[1]));
        for (id, b) in f.iter() {
            let want: Vec<BlockId> = b.term.successors().collect();
            assert_eq!(succs.of(id.index()), want, "{id}");
            assert_eq!(preds.of(id.index()), cfg_preds[id.index()], "{id}");
        }
    }

    #[test]
    fn liveness_on_diamond() {
        let f = parse_function(
            "func f(a) {
                x = a + 1;
                y = a + 2;
                if (a > 0) goto t;
                z = x * 2;
                goto j;
            t:
                z = y * 3;
                goto j;
            j:
                return z;
            }",
        )
        .unwrap();
        // Narrow exit-live: only z is observable.
        let mut exit = BitSet::new(f.syms.len());
        exit.insert(sym(&f, "z"));
        let lv = liveness(&f, &exit);
        // x is live into the false arm only; y into the true arm only.
        assert!(lv.live_out[0].contains(sym(&f, "x")));
        assert!(lv.live_out[0].contains(sym(&f, "y")));
        assert!(lv.live_in[1].contains(sym(&f, "x")));
        assert!(!lv.live_in[1].contains(sym(&f, "y")));
        assert!(lv.live_in[2].contains(sym(&f, "y")));
        assert!(!lv.live_in[2].contains(sym(&f, "x")));
        // z is dead above its definitions.
        assert!(!lv.live_in[0].contains(sym(&f, "z")));
        assert!(lv.live_in[3].contains(sym(&f, "z")));
    }

    #[test]
    fn liveness_through_loop() {
        let f = parse_function(
            "func f(n) {
                s = 0;
                i = 0;
            head:
                if (i >= n) goto done;
                s = s + i;
                i = i + 1;
                goto head;
            done:
                return s;
            }",
        )
        .unwrap();
        let mut exit = BitSet::new(f.syms.len());
        exit.insert(sym(&f, "s"));
        let lv = liveness(&f, &exit);
        // The loop keeps s and i live around the back edge.
        for b in [1usize, 2] {
            assert!(lv.live_in[b].contains(sym(&f, "s")), "block {b}");
            assert!(lv.live_in[b].contains(sym(&f, "i")), "block {b}");
        }
        // i is dead after the loop exits.
        assert!(!lv.live_in[3].contains(sym(&f, "i")));
    }

    #[test]
    fn definite_assignment_misses_one_arm() {
        let f = parse_function(
            "func f(a) {
                if (a > 0) goto set;
                goto join;
            set:
                x = a * 2;
                goto join;
            join:
                y = x + 1;
                return y;
            }",
        )
        .unwrap();
        let da = definite_assignment(&f);
        let join = 3usize;
        assert!(da.on_entry[join].contains(sym(&f, "a")));
        assert!(
            !da.on_entry[join].contains(sym(&f, "x")),
            "x is only assigned on one path"
        );
    }

    #[test]
    fn dominators_of_diamond() {
        let f = parse_function(
            "func f(a) {
                if (a > 0) goto t;
                x = 1;
                goto j;
            t:
                x = 2;
                goto j;
            j:
                return x;
            }",
        )
        .unwrap();
        let d = dominators(&f);
        // Entry dominates everything; neither arm dominates the join.
        for b in 0..f.blocks.len() {
            assert!(d.dom[b].contains(0), "entry dominates block {b}");
        }
        assert!(!d.dom[3].contains(1));
        assert!(!d.dom[3].contains(2));
        assert!(d.dom[3].contains(3));
    }

    #[test]
    fn reaching_defs_and_chains() {
        let f = parse_function(
            "func f(a) {
                x = a + 1;
                goto next;
            next:
                x = 2;
                goto last;
            last:
                return x + a;
            }",
        )
        .unwrap();
        let rd = reaching_defs(&f);
        let du = def_use(&f, &rd);
        let x = f.syms.get("x").unwrap();
        // Two StoreVar sites for x plus the parameter site for a.
        let x_sites: Vec<usize> = rd
            .sites
            .iter()
            .enumerate()
            .filter(|(_, s)| s.sym == x)
            .map(|(i, _)| i)
            .collect();
        assert_eq!(x_sites.len(), 2);
        // The block-0 definition is killed by block 1: nothing reads it.
        let first = x_sites
            .iter()
            .copied()
            .find(|&i| rd.sites[i].site.unwrap().0 == BlockId(0))
            .unwrap();
        let second = x_sites
            .iter()
            .copied()
            .find(|&i| rd.sites[i].site.unwrap().0 == BlockId(1))
            .unwrap();
        assert!(du.uses[first].is_empty(), "shadowed def has no uses");
        assert_eq!(du.uses[second], vec![BlockId(2)]);
        // The parameter a is read in the first and last blocks.
        let a_site = rd.sites.iter().position(|s| s.site.is_none()).unwrap();
        assert_eq!(du.uses[a_site], vec![BlockId(0), BlockId(2)]);
        assert!(!rd.reach_in[2].contains(first));
        assert!(rd.reach_in[2].contains(second));
    }

    #[test]
    fn solver_handles_unreachable_blocks() {
        let f = parse_function(
            "func f(a) {
                return a;
            dead:
                x = a + 1;
                return x;
            }",
        )
        .unwrap();
        let reach = reachable_blocks(&f);
        assert!(reach.contains(0));
        assert!(!reach.contains(1));
        // Must-analyses converge to the vacuous full set off the CFG.
        let da = definite_assignment(&f);
        assert_eq!(da.on_entry[1].count(), f.syms.len());
        // May-analyses stay empty there.
        let lv = liveness(&f, &BitSet::new(f.syms.len()));
        assert!(lv.live_out[1].is_empty());
    }

    #[test]
    fn entry_with_back_edge_meets_boundary() {
        // A loop whose back edge targets the entry block: definite
        // assignment must intersect the boundary with the looping path.
        let f = parse_function(
            "func f(n) {
            head:
                x = n - 1;
                if (x > 0) goto head;
                return x;
            }",
        )
        .unwrap();
        let da = definite_assignment(&f);
        assert!(da.on_entry[0].contains(sym(&f, "n")));
        assert!(
            !da.on_entry[0].contains(sym(&f, "x")),
            "first entry has no x yet"
        );
    }
}
