//! An admissible lower bound on the length of any schedule covering can
//! produce for one assignment: the bound of the branch and bound across
//! assignments (§IV-A, Fig. 5).
//!
//! The driver covers each selected assignment and keeps a schedule only
//! when it is *strictly* shorter than the best one so far, so an
//! assignment whose bound already reaches that length cannot win. The
//! covering entry points skip such an assignment before charging any
//! fuel (the incumbent travels in the [`Budget`](crate::Budget); see
//! [`crate::budget`]), and no emitted byte can change.
//!
//! [`schedule_lower_bound`] reads a *fresh* cover graph, as
//! [`CoverGraph::try_build`] returns it. Covering may spill, and a spill
//! rewrites the graph ([`CoverGraph::relieve_pressure`]): it kills the
//! `Move`s that only ferried the victim and adds a store and reloads. It
//! never adds or removes an operation, and it never kills a load or a
//! store. The bound is the largest of three terms, none of which a spill
//! can lower:
//!
//! - **Unit.** Per functional unit, its `Op` and `Complex` nodes; a unit
//!   runs one of them per instruction.
//! - **Bus.** Per bus, ⌈transfers ÷ capacity⌉, counting every `LoadVar`,
//!   `StoreVar`, `LoadDyn` and `StoreDyn`. `Move`s count only on a machine
//!   with a single bus: there every transfer path is one hop on that bus,
//!   so each killed move leaves its consumer a fresh reload on the same
//!   bus. With several buses a spill can trade a move on one bus for a
//!   load on another, so moves do not count.
//! - **Chain.** The longest chain over predecessors (operands and
//!   ordering deps), counting every node but a `Move` as one instruction
//!   and a `Move` as none. A predecessor runs strictly before its
//!   consumer; a spill only turns the moves between two nodes into a
//!   store→load chain (or, for a reload of a value already scheduled,
//!   into a fresh load), and on a fresh graph no ordering dep points at
//!   a move, so every chain of non-move nodes stays ordered.
//!
//! On a graph that has already spilled, advisory reload-ordering deps may
//! point at moves a later spill kills, so the chain term is only claimed
//! for fresh graphs.

use crate::covergraph::{CnId, CnKind, CoverGraph, Resource};
use aviv_isdl::Target;
use std::cell::RefCell;

/// Buffers reused by every bound taken on a thread, so that taking one
/// allocates only when a graph is larger than any seen before.
#[derive(Default)]
struct Scratch {
    /// Per-unit, then per-bus, node counts.
    counts: Vec<usize>,
    /// Nodes per bottom level, then each level's first slot in `order`.
    levels: Vec<u32>,
    /// Alive node ids by ascending bottom level: every predecessor comes
    /// before its consumers.
    order: Vec<u32>,
    /// Per node, the longest chain ending at it.
    depth: Vec<u32>,
}

thread_local! {
    static SCRATCH: RefCell<Scratch> = RefCell::new(Scratch::default());
}

/// An admissible lower bound on the instruction count of every schedule
/// [`cover_with_stats`](crate::cover_with_stats) or
/// [`cover_sequential_budgeted`](crate::cover_sequential_budgeted) can
/// produce for the fresh `graph`, spills included: the largest of the
/// unit, bus and chain terms of the module doc.
pub fn schedule_lower_bound(graph: &CoverGraph, target: &Target) -> usize {
    SCRATCH.with(|s| s.borrow_mut().bound(graph, target))
}

impl Scratch {
    fn bound(&mut self, graph: &CoverGraph, target: &Target) -> usize {
        let machine = &target.machine;
        let n_units = machine.units().len();
        count_resources(graph, target, &mut self.counts);
        let unit = self.counts[..n_units].iter().copied().max().unwrap_or(0);
        let bus = machine
            .buses()
            .iter()
            .zip(&self.counts[n_units..])
            .map(|(bus, &c)| c.div_ceil(bus.capacity as usize))
            .max()
            .unwrap_or(0);
        unit.max(bus).max(self.chain(graph))
    }

    /// The chain term: the longest predecessor chain, a `Move` counting
    /// as no instruction.
    fn chain(&mut self, graph: &CoverGraph) -> usize {
        let Scratch {
            levels,
            order,
            depth,
            ..
        } = self;
        // Counting sort by bottom level: a node's level exceeds each of
        // its predecessors', so the order is topological.
        levels.clear();
        for id in graph.alive() {
            let level = graph.level_bottom(id) as usize;
            if levels.len() <= level {
                levels.resize(level + 1, 0);
            }
            levels[level] += 1;
        }
        let mut next = 0;
        for slot in levels.iter_mut() {
            let here = *slot;
            *slot = next;
            next += here;
        }
        order.clear();
        order.resize(next as usize, 0);
        for id in graph.alive() {
            let slot = &mut levels[graph.level_bottom(id) as usize];
            order[*slot as usize] = id.0;
            *slot += 1;
        }
        depth.clear();
        depth.resize(graph.len(), 0);
        let mut chain = 0;
        for &i in order.iter() {
            let id = CnId(i);
            let below = graph.preds(id).map(|p| depth[p.index()]).max();
            let d = u32::from(!is_move(&graph.node(id).kind)) + below.unwrap_or(0);
            depth[i as usize] = d;
            chain = chain.max(d);
        }
        chain as usize
    }
}

/// Fill `counts` with the alive nodes the unit and bus terms count: per
/// unit, then per bus. Spills never lower an entry (the module doc), so
/// a graph after covering has at least its fresh counts.
fn count_resources(graph: &CoverGraph, target: &Target, counts: &mut Vec<usize>) {
    let machine = &target.machine;
    let n_units = machine.units().len();
    let single_bus = machine.buses().len() == 1;
    counts.clear();
    counts.resize(n_units + machine.buses().len(), 0);
    for id in graph.alive() {
        let node = graph.node(id);
        match node.resource() {
            Resource::Unit(u) => counts[u.index()] += 1,
            Resource::Bus(b) if single_bus || !is_move(&node.kind) => {
                counts[n_units + b.index()] += 1;
            }
            Resource::Bus(_) => {}
        }
    }
}

fn is_move(kind: &CnKind) -> bool {
    matches!(kind, CnKind::Move { .. })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::assign::{explore, Assignment};
    use crate::budget::Budget;
    use crate::cover::{cover_budgeted, cover_sequential_budgeted, CoverError, Schedule};
    use crate::options::CodegenOptions;
    use aviv_ir::randdag::{random_block, RandDagConfig};
    use aviv_ir::{BlockDag, Op, SymbolTable};
    use aviv_isdl::archs;
    use aviv_splitdag::SplitNodeDag;

    /// What the oracle covered.
    #[derive(Debug, Default)]
    struct Tally {
        /// Schedules completed in full.
        schedules: usize,
        /// ... of which spilled.
        spilled: usize,
        /// ... of which exactly as long as the bound.
        tight: usize,
        /// Assignments the shared budget pruned.
        pruned: usize,
    }

    /// One block's explored assignments on one target.
    struct Block<'a> {
        dag: &'a BlockDag,
        sndag: SplitNodeDag,
        syms: &'a SymbolTable,
        target: &'a Target,
        options: CodegenOptions,
        sequential: bool,
    }

    impl Block<'_> {
        fn graph(&self, assignment: &Assignment) -> CoverGraph {
            CoverGraph::try_build(self.dag, &self.sndag, self.target, assignment)
                .expect("explored assignments build")
        }

        /// Cover `assignment` on a fresh graph under `budget` as one rung
        /// of the driver does: the sequential engine on the sequential
        /// rung; on the concurrent rung, the concurrent engine, retried
        /// sequentially on a fresh graph when it fails for any reason
        /// but the budget, a defect or the bound.
        /// Returns the covered graph with the schedule.
        fn cover(
            &self,
            assignment: &Assignment,
            budget: &Budget,
        ) -> Result<(CoverGraph, Schedule), CoverError> {
            let sequential = |budget: &Budget| {
                let mut syms = self.syms.clone();
                let mut g = self.graph(assignment);
                cover_sequential_budgeted(&mut g, self.target, &mut syms, budget).map(|s| (g, s))
            };
            if self.sequential {
                return sequential(budget);
            }
            let mut syms = self.syms.clone();
            let mut g = self.graph(assignment);
            match cover_budgeted(&mut g, self.target, &mut syms, &self.options, budget) {
                Ok(s) => Ok((g, s)),
                Err(CoverError::RegisterPressure { .. } | CoverError::SpillLimit) => {
                    sequential(budget)
                }
                Err(e) => Err(e),
            }
        }

        /// Every completed cover is at least as long as its fresh graph's
        /// bound, and its covered graph has at least the fresh graph's
        /// count on every unit and bus (spills lower no resource term);
        /// every assignment the shared budget prunes, covered in full
        /// under an unlimited budget, is at least as long as the
        /// incumbent it was pruned against.
        fn check(&self, what: &str, tally: &mut Tally) {
            let assignments =
                explore(self.dag, &self.sndag, self.target, &self.options).assignments;
            let shared = Budget::unlimited();
            let (mut fresh, mut covered) = (Vec::new(), Vec::new());
            for (k, assignment) in assignments.iter().enumerate() {
                let graph = self.graph(assignment);
                let bound = schedule_lower_bound(&graph, self.target);
                count_resources(&graph, self.target, &mut fresh);
                let full = self.cover(assignment, &Budget::unlimited());
                if let Ok((g, s)) = &full {
                    assert!(
                        s.len() >= bound,
                        "{what} #{k}: a {}-instruction schedule ({} spills) under a bound of {bound}",
                        s.len(),
                        s.spills.len()
                    );
                    count_resources(g, self.target, &mut covered);
                    assert!(
                        covered.iter().zip(&fresh).all(|(c, f)| c >= f),
                        "{what} #{k}: unit and bus counts {fresh:?} fell to {covered:?} \
                         over {} spills",
                        s.spills.len()
                    );
                    tally.schedules += 1;
                    tally.spilled += usize::from(!s.spills.is_empty());
                    tally.tight += usize::from(s.len() == bound);
                }
                let full_len = full.as_ref().map(|(_, s)| s.len()).ok();
                match self.cover(assignment, &shared) {
                    Ok((_, s)) => assert_eq!(Some(s.len()), full_len, "{what} #{k}"),
                    Err(CoverError::Bounded {
                        bound: b,
                        incumbent,
                    }) => {
                        assert_eq!(b, bound, "{what} #{k}");
                        assert!(
                            full_len.is_none_or(|len| len >= incumbent),
                            "{what} #{k}: pruned at bound {bound} against {incumbent}, \
                             but its schedule has {full_len:?} instructions"
                        );
                        tally.pruned += 1;
                    }
                    Err(e) => assert!(full.is_err(), "{what} #{k}: {e}"),
                }
            }
        }
    }

    /// The admissibility oracle: seeded random blocks on six machines,
    /// two to four registers per bank so that covering spills, covered
    /// by the concurrent engine with the heuristics on (and off, for
    /// blocks small enough to enumerate) and by the sequential engine.
    /// Two of the machines have several buses, where moves must not
    /// count.
    #[test]
    fn the_bound_is_admissible_and_pruning_never_drops_a_winner() {
        let machines = [
            archs::example_arch as fn(u32) -> _,
            archs::arch_two,
            archs::dsp_arch,
            archs::wide_arch,
            archs::chained_arch,
            archs::quad_vliw,
        ];
        let mut tally = Tally::default();
        for make in machines {
            for regs in 2..=4 {
                let target = Target::new(make(regs));
                for n_ops in [4, 5, 10] {
                    let cfg = RandDagConfig {
                        n_ops,
                        ops: vec![Op::Add, Op::Sub, Op::Mul],
                        ..RandDagConfig::default()
                    };
                    // Small blocks are also enumerated in full and
                    // covered by the sequential engine.
                    let small = n_ops <= 6;
                    let presets = [
                        CodegenOptions::heuristics_on(),
                        CodegenOptions::heuristics_off(),
                    ];
                    let engines: &[bool] = if small { &[false, true] } else { &[false] };
                    for seed in 0..2 {
                        let f = random_block(&cfg, seed);
                        let dag = &f.blocks[0].dag;
                        for options in presets.iter().take(1 + usize::from(small)) {
                            for &sequential in engines {
                                let what = format!(
                                    "{} regs {regs} ops {n_ops} seed {seed} off {} seq {sequential}",
                                    target.machine.name,
                                    !options.prune_assignments
                                );
                                let block = Block {
                                    dag,
                                    sndag: SplitNodeDag::build(dag, &target)
                                        .expect("random blocks use supported ops"),
                                    syms: &f.syms,
                                    target: &target,
                                    options: options.clone(),
                                    sequential,
                                };
                                block.check(&what, &mut tally);
                            }
                        }
                    }
                }
            }
        }
        eprintln!("{tally:?}");
        assert!(tally.spilled > 0, "nothing spilled: {tally:?}");
        assert!(tally.pruned > 0, "nothing was pruned: {tally:?}");
        assert!(tally.tight > 0, "the bound was never tight: {tally:?}");
    }
}
