//! Admissible lower bounds on the length of any schedule covering can
//! produce for one assignment: the bound of the branch and bound across
//! assignments (§IV-A, Fig. 5).
//!
//! The driver covers each selected assignment and keeps a schedule only
//! when it is *strictly* shorter than the best one so far, so an
//! assignment whose bound already reaches that length cannot win. Such
//! an assignment is skipped before any fuel is charged (the incumbent
//! travels in the [`Budget`]; see [`crate::budget`]), and
//! no emitted byte can change.
//!
//! The bound is taken in two stages. [`assignment_lower_bound`] reads
//! only the assignment, the block DAG, its Split-Node DAG and the target,
//! so the driver takes it *before* it builds the assignment's cover
//! graph: an assignment it prunes costs no graph at all. An assignment
//! that survives gets its graph, and the covering entry points take
//! [`schedule_lower_bound`] of that graph. The first stage never exceeds
//! the second (the argument is below, term by term), so it prunes only
//! assignments the second would have pruned: the covered assignments,
//! the pruned count and every emitted byte are what the graph bound
//! alone gives.
//!
//! # The graph bound
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
//!
//! # The assignment bound
//!
//! [`assignment_lower_bound`] walks the DAG in the builder's order
//! ([`CoverGraph::try_rebuild`]) and counts only nodes the builder is
//! certain to add, so each of its terms is at most the graph bound's:
//!
//! - **Unit.** Every operation the assignment places on a unit counts
//!   once there; a complex instruction counts once, and the nodes it
//!   swallows count nothing. These are exactly the graph's `Op` and
//!   `Complex` nodes.
//! - **Bus.** The builder caches one load chain per (variable, bank) and
//!   one move chain per (producer, bank), and routes each write-back and
//!   dynamic access on its own. The walk keeps the same two caches. Where
//!   `target.xfers.paths` offers one path, the builder takes it, so each
//!   uncached hop is one node on that hop's bus. Where it offers several,
//!   the builder picks by bus usage, which the walk does not know: it
//!   counts only the chain's last node, which every pick adds, charges it
//!   to the set of buses the paths end on, and marks the intermediate
//!   banks as *maybe* cached, where a later chain then counts nothing.
//!   Every node counted is a distinct graph node on a bus of its set, so
//!   for any set S of buses, the nodes charged within S are at most the
//!   graph's transfers on S, and ⌈those ÷ S's total capacity⌉ is at most
//!   ⌈transfers ÷ capacity⌉ of S's fullest bus. Moves count only on a
//!   single-bus machine, as in the graph bound; there every path is one
//!   hop on the one bus, so the count is exact.
//! - **Chain.** Per DAG node, the longest chain of non-move nodes ending
//!   at the node that produces its value: one for each operation, load,
//!   write-back and dynamic access, none for a move. A variable operand
//!   adds its leading load and an immediate nothing. A write-back also
//!   follows every load of its variable walked before it, and a memory
//!   access its serialization predecessors, as the builder's ordering
//!   deps do. Each chain walked is a chain of the graph's non-move nodes
//!   along its predecessors, so it is no longer than the graph's term.
//!
//! On a machine with one path per transfer the walk misses only the
//! ordering of a write-back before a later load of its variable; in the
//! oracle below it equals the graph bound on every assignment of every
//! such machine, and it prunes all 410 assignments the graph bound
//! prunes in the Example machine's exhaustive `dot4` search.
//!
//! # The exact twin bound
//!
//! Where a target has interchangeable units ([`Target::unit_class`]),
//! renaming them within their class, each bank following its unit, maps
//! assignments onto assignments, and the cover graphs of two such
//! *twins* are often relabellings of each other. `twin_length` takes a
//! graph's canonical form: every node's kind, operands, ordering deps
//! and liveness, and the live-outs, with each interchangeable unit
//! renamed, by first appearance in node-id order, to the next unused
//! member of its class, and each bank owned by such a unit named after
//! the unit's new name. Two graphs with one form are relabellings of
//! each other.
//!
//! Covering does not read unit or bank labels until its first spill
//! decision: clique conflicts compare resources for equality, twins
//! share their buses, bank sizes and operations, no constraint or
//! complex names them, and every tie breaks on node ids or pool order.
//! Only the spill step picks a bank by its label (the last of the most
//! blocked ones). So when the concurrent engine covers a graph without a
//! spill, every relabelling of that graph would cover without a spill at
//! exactly the same length. `record_twin` records that form and length
//! in the rung's budget, and the covering entry points skip a later
//! graph whose form is recorded ([`crate::CoverError::Bounded`], carrying the
//! recorded length): that length is at least the incumbent, and only a
//! strictly shorter schedule replaces it. A graph whose first cover
//! spilled records nothing, and its twins are covered as before: after a
//! spill, twins can diverge (on `wide_arch(2)`, one of sad4's orbits has
//! a member that covers in 20 steps with three spills and a twin on
//! which the concurrent engine gives up and the sequential retry
//! covers).
//!
//! # The rollout bound
//!
//! The lookahead's rollouts (`cover.rs`) run greedy steps over one
//! clique pool, and the graph does not change within a pool: a rollout
//! never spills, it stops at a wedge. So every alive node left uncovered
//! at a rollout's state is covered by one of its later steps, moves
//! included, and `RolloutRows` bounds those steps by the largest of
//! four terms over the uncovered set:
//!
//! - **Clique.** ⌈uncovered ÷ the pool's largest clique⌉: a step covers
//!   a shrunk clique or a single node.
//! - **Unit.** Per unit, its uncovered nodes: a legal clique holds at
//!   most one node per unit.
//! - **Bus.** Per bus, ⌈uncovered transfers ÷ capacity⌉, moves included:
//!   a legal clique holds at most a bus's capacity of its transfers.
//! - **Chain.** One more than the largest top level (the longest chain
//!   of successors below a node) of an uncovered node: a step covers only
//!   ready nodes, so the nodes of one chain take one step each, and a
//!   covered set holds every predecessor of its nodes, so the whole chain
//!   below an uncovered node is uncovered.
//!
//! A wedged rollout's estimate adds a penalty of 1000 plus the nodes left
//! at the wedge; every term is at most the nodes left, and the steps
//! before the wedge cover at most one node per unit, a bus's capacity
//! and one node of a chain each, so each term stays below such an
//! estimate too. The rollout cutoff compares the steps taken plus this
//! bound with the incumbent estimate, so a cut rollout could not have
//! beaten it.

use crate::assign::Assignment;
use crate::budget::Budget;
use crate::covergraph::{CnId, CnKind, CoverGraph, Operand, Resource};
use aviv_ir::{BitMatrix, BlockDag, NodeId, Op, Sym};
use aviv_isdl::{BankId, BusId, Location, Target, TransferPath, UnitId};
use aviv_splitdag::{AltKind, Exec, SplitNodeDag};
use std::cell::RefCell;

/// Buffers reused by every bound taken on a thread, so that taking one
/// allocates only when a graph or block is larger than any seen before.
#[derive(Default)]
struct Scratch {
    /// Per-unit, then per-bus, node counts.
    counts: Vec<usize>,
    /// Nodes per bottom level, then each level's first slot in `order`.
    levels: Vec<u32>,
    /// Alive node ids by ascending bottom level: every predecessor comes
    /// before its consumers.
    order: Vec<u32>,
    /// Per cover node (graph bound) or DAG node (assignment bound), the
    /// longest chain ending at it.
    depth: Vec<u32>,
    /// Per DAG node, the bank its value lands in, or [`NONE`].
    bank: Vec<u32>,
    /// Per DAG node, the DAG node whose cover node produces its value:
    /// itself, or the root of the complex instruction swallowing it.
    producer: Vec<u32>,
    /// The builder's load cache, at `sym * banks + bank`.
    loaded: Vec<Cached>,
    /// The builder's move cache, at `producer * banks + bank`.
    moved: Vec<Cached>,
    /// Transfers the builder routes over one of several paths: the mask
    /// of the buses they could use, and their count.
    pooled: Vec<(u64, usize)>,
    /// A graph's canonical form (the exact twin bound).
    form: Vec<u64>,
    /// Per unit, its canonical name once named, or [`NONE`]; then per
    /// class, the last name handed out in it; then per bank, a unit
    /// owning it.
    names: Vec<u32>,
}

/// No bank, or no producer, yet.
const NONE: u32 = u32::MAX;

/// What the assignment bound knows of one entry of a builder cache.
#[derive(Clone, Copy, Default, PartialEq, Eq)]
enum Cached {
    /// Certainly not cached yet: resolving it adds a node.
    #[default]
    No,
    /// Cached only if the builder picked a path through it.
    Maybe,
    /// Certainly cached.
    Yes,
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

/// A lower bound on [`schedule_lower_bound`] of the graph
/// [`CoverGraph::try_build`] would build from `assignment`, taken without
/// building it (the module doc). 0 when the builder would refuse the
/// input.
pub(crate) fn assignment_lower_bound(
    dag: &BlockDag,
    sndag: &SplitNodeDag,
    target: &Target,
    assignment: &Assignment,
) -> usize {
    SCRATCH.with(|s| {
        let mut walk = Walk {
            dag,
            sndag,
            target,
            assignment,
            n_banks: target.machine.banks().len(),
            single_bus: target.machine.buses().len() == 1,
            nodes: 0,
            s: &mut s.borrow_mut(),
        };
        walk.bound().unwrap_or(0)
    })
}

/// The length at which a relabelled twin of the fresh `graph` covered
/// without a spill under `budget`, if one did (the module doc, "The
/// exact twin bound"). `None`, without any work, on a target without
/// interchangeable units.
pub(crate) fn twin_length(graph: &CoverGraph, target: &Target, budget: &Budget) -> Option<usize> {
    if !target.has_interchangeable_units() {
        return None;
    }
    SCRATCH.with(|s| {
        let s = &mut *s.borrow_mut();
        s.canonical_form(graph, target);
        budget.orbit_length(&s.form)
    })
}

/// Record in `budget` that `graph`, unchanged since it was built,
/// covered without a spill in `len` instructions, so that its twins are
/// skipped. Does nothing on a target without interchangeable units.
pub(crate) fn record_twin(graph: &CoverGraph, target: &Target, budget: &Budget, len: usize) {
    if !target.has_interchangeable_units() {
        return;
    }
    SCRATCH.with(|s| {
        let s = &mut *s.borrow_mut();
        s.canonical_form(graph, target);
        budget.record_orbit(&s.form, len);
    });
}

impl Scratch {
    /// Write `graph`'s canonical form into `form` (the module doc).
    fn canonical_form(&mut self, graph: &CoverGraph, target: &Target) {
        let machine = &target.machine;
        let (n_units, n_banks) = (machine.units().len(), machine.banks().len());
        self.names.clear();
        self.names.resize(2 * n_units + n_banks, NONE);
        for (u, unit) in machine.units().iter().enumerate() {
            self.names[2 * n_units + unit.bank.index()] = u as u32;
        }
        let mut canon = Canon {
            target,
            n_units,
            names: &mut self.names,
        };
        let form = &mut self.form;
        form.clear();
        let operand = |form: &mut Vec<u64>, op: &Operand| match *op {
            Operand::Cn(c) => form.push(u64::from(c.0) << 1),
            Operand::Imm(v) => form.extend([1, v as u64]),
        };
        for i in 0..graph.len() {
            let id = CnId(i as u32);
            let node = graph.node(id);
            let (tag, a, b, c) = match node.kind {
                CnKind::Op { orig, unit, op } => (0, orig.0, canon.unit(unit), op.index() as u32),
                CnKind::Complex { orig, index, unit } => {
                    (1, orig.0, canon.unit(unit), index as u32)
                }
                CnKind::Move { bus, from, to } => (2, bus.0, canon.bank(from), canon.bank(to)),
                CnKind::LoadVar { sym, bus, to } => (3, sym.index() as u32, bus.0, canon.bank(to)),
                CnKind::StoreVar { sym, bus, from } => {
                    let from = from.map_or(NONE, |b| canon.bank(b));
                    (4, sym.index() as u32, bus.0, from)
                }
                CnKind::LoadDyn { orig, bus, bank } => (5, orig.0, bus.0, canon.bank(bank)),
                CnKind::StoreDyn { orig, bus, bank } => (6, orig.0, bus.0, canon.bank(bank)),
            };
            let header = tag
                | u64::from(graph.is_dead(id)) << 3
                | (node.args.len() as u64) << 8
                | (node.deps.len() as u64) << 32;
            form.extend([header, u64::from(a) | u64::from(b) << 32, u64::from(c)]);
            for arg in &node.args {
                operand(form, arg);
            }
            form.extend(node.deps.iter().map(|d| u64::from(d.0)));
        }
        form.push(graph.live_out().len() as u64);
        for (orig, op) in graph.live_out() {
            form.push(u64::from(orig.0));
            operand(form, op);
        }
    }

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

/// The renaming of the canonical form: units by first appearance within
/// their class, banks after their units.
struct Canon<'a> {
    target: &'a Target,
    n_units: usize,
    /// [`Scratch::names`].
    names: &'a mut [u32],
}

impl Canon<'_> {
    /// `unit`'s canonical name: on its first appearance, the next member
    /// of its class, in unit order, that no unit is named after yet.
    fn unit(&mut self, unit: UnitId) -> u32 {
        let u = unit.index();
        if self.names[u] == NONE {
            let class = self.target.unit_class(unit).index();
            let last = &mut self.names[self.n_units + class];
            let from = if *last == NONE {
                class
            } else {
                *last as usize + 1
            };
            // A class has as many members as units that can appear in it.
            let name = (from..self.n_units)
                .find(|&v| self.target.unit_class(UnitId(v as u32)).index() == class)
                .unwrap_or(u) as u32;
            *last = name;
            self.names[u] = name;
        }
        self.names[u]
    }

    /// `bank`'s canonical name: the bank of its owner's canonical name.
    /// A bank shared by several units belongs to none that is
    /// interchangeable, so every owner keeps its own name there.
    fn bank(&mut self, bank: BankId) -> u32 {
        let owner = self.names[2 * self.n_units + bank.index()];
        if owner == NONE {
            return bank.0;
        }
        let name = self.unit(UnitId(owner));
        self.target.machine.units()[name as usize].bank.0
    }
}

/// Where the rollout bound's rows (the module doc, "The rollout bound")
/// sit in a caller's bit matrix over node ids: from row `first` on, per
/// unit, then per bus, the alive nodes occupying it; then, for each top
/// level `k` from 1 up, the alive nodes at level `k` or higher.
#[derive(Clone, Copy, Default)]
pub(crate) struct RolloutRows {
    first: usize,
    units: usize,
    buses: usize,
    levels: usize,
}

impl RolloutRows {
    /// The rows of `graph`, from row `first` on.
    pub(crate) fn new(graph: &CoverGraph, target: &Target, first: usize) -> RolloutRows {
        let machine = &target.machine;
        let top = graph
            .alive()
            .map(|id| graph.level_top(id))
            .max()
            .unwrap_or(0);
        RolloutRows {
            first,
            units: machine.units().len(),
            buses: machine.buses().len(),
            levels: top as usize,
        }
    }

    /// The number of rows.
    pub(crate) fn len(&self) -> usize {
        self.units + self.buses + self.levels
    }

    /// Set the rows in `matrix`, where they are clear.
    pub(crate) fn fill(&self, matrix: &mut BitMatrix, graph: &CoverGraph) {
        let levels = self.first + self.units + self.buses;
        for id in graph.alive() {
            let row = match graph.node(id).resource() {
                Resource::Unit(u) => u.index(),
                Resource::Bus(b) => self.units + b.index(),
            };
            matrix.set(self.first + row, id.index());
            for k in 0..graph.level_top(id) as usize {
                matrix.set(levels + k, id.index());
            }
        }
    }

    /// A lower bound on the greedy steps a rollout over `matrix`'s graph
    /// takes from the covered set `covered` (its words), where
    /// `uncovered` alive nodes are left and no step covers more than
    /// `max_per_step`, the size of the pool's largest clique.
    pub(crate) fn steps_left(
        &self,
        matrix: &BitMatrix,
        target: &Target,
        covered: &[u64],
        uncovered: usize,
        max_per_step: usize,
    ) -> usize {
        if uncovered == 0 {
            return 0;
        }
        let words = |row: usize| matrix.row_words(self.first + row).iter().zip(covered);
        let left = |row: usize| {
            let left = words(row).map(|(&r, &c)| (r & !c).count_ones() as usize);
            left.sum::<usize>()
        };
        let unit = (0..self.units).map(left).max().unwrap_or(0);
        let buses = target.machine.buses().iter().enumerate();
        let bus = buses
            .map(|(b, spec)| left(self.units + b).div_ceil(spec.capacity as usize))
            .max()
            .unwrap_or(0);
        // The rows of levels 1, 2, ... shrink, so the levels with a node
        // left are a prefix of them: search for its end.
        let first = self.units + self.buses;
        let (mut lo, mut hi) = (0, self.levels);
        while lo < hi {
            let mid = (lo + hi) / 2;
            if words(first + mid).any(|(&r, &c)| r & !c != 0) {
                lo = mid + 1;
            } else {
                hi = mid;
            }
        }
        let clique = uncovered.div_ceil(max_per_step.max(1));
        clique.max(unit).max(bus).max(1 + lo)
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

/// The assignment bound's walk over one block (see the module doc).
struct Walk<'a> {
    dag: &'a BlockDag,
    sndag: &'a SplitNodeDag,
    target: &'a Target,
    assignment: &'a Assignment,
    /// Bank count: the row stride of the two caches.
    n_banks: usize,
    single_bus: bool,
    /// At least the nodes the builder would add.
    nodes: usize,
    s: &'a mut Scratch,
}

impl Walk<'_> {
    /// The bound, or `None` where the builder would refuse the input.
    fn bound(&mut self) -> Option<usize> {
        let (dag, sndag, target, assignment) = (self.dag, self.sndag, self.target, self.assignment);
        let machine = &target.machine;
        let n = dag.len();
        if assignment.choice.len() != n || assignment.complex_covered.len() != n {
            return None;
        }
        let n_units = machine.units().len();
        let s = &mut *self.s;
        s.counts.clear();
        s.counts.resize(n_units + machine.buses().len(), 0);
        for v in [&mut s.bank, &mut s.producer] {
            v.clear();
            v.resize(n, NONE);
        }
        s.depth.clear();
        s.depth.resize(n, 0);
        s.loaded.clear();
        s.moved.clear();
        s.moved.resize(n * self.n_banks, Cached::No);
        s.pooled.clear();

        let mut chain = 0;
        for (orig, node) in dag.iter() {
            let i = orig.index();
            if node.op.is_leaf() || assignment.complex_covered[i] {
                continue;
            }
            let depth = match node.op {
                Op::StoreVar => {
                    let sym = node.sym?;
                    let value = *node.args.first()?;
                    let depth = match dag.node(value).op {
                        Op::Const => {
                            self.store(Location::Bank(BankId(0)), false)?;
                            1
                        }
                        vop => {
                            let from = if vop == Op::Input {
                                target.round_trip_bank?
                            } else {
                                self.bank_of(value)?
                            };
                            let d = self.operand(value, from)?;
                            self.store(Location::Bank(from), true)?;
                            1 + d
                        }
                    };
                    // The write-back follows the variable's loads.
                    let row = sym.index() * self.n_banks;
                    let loaded = self.s.loaded.get(row..row + self.n_banks);
                    let after_load = loaded.is_some_and(|r| r.iter().any(|&c| c != Cached::No));
                    self.after_mem_deps(orig, depth.max(1 + u32::from(after_load)))
                }
                Op::Load | Op::Store => {
                    let alt = sndag.alts(orig).get(assignment.choice[i]?)?;
                    let Exec::MemPort { bus, bank } = alt.exec else {
                        return None;
                    };
                    let mut d = 0;
                    for &arg in &node.args {
                        d = d.max(self.operand(arg, bank)?);
                    }
                    self.charge().one(bus, false);
                    self.nodes += 1;
                    if node.op == Op::Load {
                        self.s.bank[i] = bank.0;
                        self.s.producer[i] = orig.0;
                    }
                    self.after_mem_deps(orig, 1 + d)
                }
                _ => {
                    let alt = sndag.alts(orig).get(assignment.choice[i]?)?;
                    let Exec::Unit(unit) = alt.exec else {
                        return None;
                    };
                    let bank = machine.bank_of(unit);
                    let (operands, covers): (&[NodeId], &[NodeId]) = match &alt.kind {
                        AltKind::Simple(_) => (node.args.as_slice(), std::slice::from_ref(&orig)),
                        AltKind::Complex { .. } => {
                            (sndag.complex_operands(alt)?, sndag.covers(alt))
                        }
                        AltKind::DynLoad | AltKind::DynStore => return None,
                    };
                    let mut d = 0;
                    for &arg in operands {
                        d = d.max(self.operand(arg, bank)?);
                    }
                    self.s.counts[unit.index()] += 1;
                    self.nodes += 1;
                    let s = &mut *self.s;
                    for &c in covers {
                        s.bank[c.index()] = bank.0;
                        s.producer[c.index()] = orig.0;
                        s.depth[c.index()] = 1 + d;
                    }
                    1 + d
                }
            };
            self.s.depth[i] = depth;
            chain = chain.max(depth);
        }
        // Live-outs: a plain input is loaded into the bank nearest memory.
        for &(_, orig) in dag.live_outs() {
            match dag.node(orig).op {
                Op::Const => {}
                Op::Input => {
                    self.operand(orig, target.load_bank?)?;
                    chain = chain.max(1);
                }
                _ => {
                    self.bank_of(orig)?;
                }
            }
        }

        // Size the graph bound's buffers for the graph this assignment
        // would get, so that bounding a graph allocates alike whether or
        // not the graphs of the assignments before it were built.
        let s = &mut *self.s;
        for v in [&mut s.levels, &mut s.order, &mut s.depth] {
            v.reserve(self.nodes.saturating_sub(v.len()));
        }
        let unit = s.counts[..n_units].iter().copied().max().unwrap_or(0);
        let buses = machine.buses();
        let per_bus = &s.counts[n_units..];
        let mut bus = buses
            .iter()
            .zip(per_bus)
            .map(|(bus, &c)| c.div_ceil(bus.capacity as usize))
            .max()
            .unwrap_or(0);
        // Each pooled set of buses, with every count charged inside it.
        for &(set, _) in &s.pooled {
            let (mut count, mut capacity) = (0, 0);
            for &(mask, c) in &s.pooled {
                if mask & !set == 0 {
                    count += c;
                }
            }
            for (b, (spec, &c)) in buses.iter().zip(per_bus).enumerate() {
                if set & (1 << b) != 0 {
                    count += c;
                    capacity += spec.capacity as usize;
                }
            }
            bus = bus.max(count.div_ceil(capacity));
        }
        Some(unit.max(bus).max(chain as usize))
    }

    /// The bank `orig`'s value lands in; `None` before it is produced.
    fn bank_of(&self, orig: NodeId) -> Option<BankId> {
        let bank = self.s.bank[orig.index()];
        (bank != NONE).then_some(BankId(bank))
    }

    /// Deliver `orig`'s value into `bank` as the builder's `resolve`
    /// does, charging the transfers it certainly adds; returns the chain
    /// ending at the delivered value.
    fn operand(&mut self, orig: NodeId, bank: BankId) -> Option<u32> {
        let node = self.dag.node(orig);
        match node.op {
            Op::Const => node.imm.map(|_| 0),
            Op::Input => {
                let sym = node.sym?;
                self.load(sym, bank)?;
                Some(1)
            }
            _ => {
                let from = self.bank_of(orig)?;
                if from != bank {
                    let row = self.s.producer[orig.index()] as usize * self.n_banks;
                    self.route(false, row, Location::Bank(from), bank)?;
                }
                Some(self.s.depth[orig.index()])
            }
        }
    }

    /// The load chain delivering `sym`'s entry value into `bank`.
    fn load(&mut self, sym: Sym, bank: BankId) -> Option<()> {
        let row = sym.index() * self.n_banks;
        if self.s.loaded.len() < row + self.n_banks {
            self.s.loaded.resize(row + self.n_banks, Cached::No);
        }
        self.route(true, row, Location::Mem, bank)
    }

    /// Walk the cached chain from `from` into `to`: through the load
    /// cache for `loads`, else through the move cache. `row` is the
    /// value's row in that cache.
    fn route(&mut self, loads: bool, row: usize, from: Location, to: BankId) -> Option<()> {
        let target = self.target;
        let Scratch {
            loaded,
            moved,
            counts,
            pooled,
            ..
        } = &mut *self.s;
        let cache = if loads { loaded } else { moved };
        let was = std::mem::replace(&mut cache[row + to.index()], Cached::Yes);
        if was == Cached::Yes {
            return Some(());
        }
        let paths = target.xfers.paths(from, Location::Bank(to));
        self.nodes += paths.iter().map(|p| p.hops.len()).max()?;
        let mut charge = Charge {
            counts,
            pooled,
            n_units: target.machine.units().len(),
            single_bus: self.single_bus,
        };
        match paths {
            [path] if was == Cached::No => {
                for hop in &path.hops {
                    let Location::Bank(t) = hop.to else {
                        return None;
                    };
                    // `to` itself is already marked.
                    let cell = &mut cache[row + t.index()];
                    if t == to || std::mem::replace(cell, Cached::Yes) == Cached::No {
                        charge.one(hop.bus, hop.from != Location::Mem);
                    }
                }
                return Some(());
            }
            // Every pick ends in one node into `to`, a load only where
            // every path is a single hop from memory.
            several if was == Cached::No => {
                let is_move = !loads || several.iter().any(|p| p.hops.len() > 1);
                charge.pool(last_buses(several), is_move);
            }
            // `to` may be cached already, so the builder may add nothing.
            _ => {}
        }
        // The builder may have passed through any intermediate bank.
        let before = paths.iter().filter_map(|p| p.hops.split_last());
        for hop in before.flat_map(|(_, before)| before) {
            if let Location::Bank(t) = hop.to {
                let cell = &mut cache[row + t.index()];
                if *cell == Cached::No {
                    *cell = Cached::Maybe;
                }
            }
        }
        Some(())
    }

    /// A write-back from `from` to memory: the store on the path's last
    /// hop and, when `moves`, a move per hop before it.
    fn store(&mut self, from: Location, moves: bool) -> Option<()> {
        let target = self.target;
        let paths = target.xfers.paths(from, Location::Mem);
        self.nodes += paths.iter().map(|p| p.hops.len()).max()?;
        let mut charge = self.charge();
        match paths {
            [path] => {
                let (last, before) = path.hops.split_last()?;
                if moves {
                    for hop in before {
                        charge.one(hop.bus, true);
                    }
                }
                charge.one(last.bus, false);
            }
            several => charge.pool(last_buses(several), false),
        }
        Some(())
    }

    fn charge(&mut self) -> Charge<'_> {
        Charge {
            counts: &mut self.s.counts,
            pooled: &mut self.s.pooled,
            n_units: self.target.machine.units().len(),
            single_bus: self.single_bus,
        }
    }

    /// `depth`, raised past each memory access `orig` is serialized
    /// after (the builder's ordering deps between memory nodes).
    fn after_mem_deps(&self, orig: NodeId, depth: u32) -> u32 {
        let (dag, covered) = (self.dag, &self.assignment.complex_covered);
        dag.mem_deps()
            .iter()
            .filter(|&&(earlier, later)| {
                later == orig
                    && !covered[earlier.index()]
                    && matches!(dag.node(earlier).op, Op::StoreVar | Op::Store | Op::Load)
            })
            .map(|&(earlier, _)| self.s.depth[earlier.index()] + 1)
            .fold(depth, u32::max)
    }
}

/// Where transfer nodes are charged: per bus, or to a pooled set.
struct Charge<'a> {
    counts: &'a mut Vec<usize>,
    pooled: &'a mut Vec<(u64, usize)>,
    n_units: usize,
    single_bus: bool,
}

impl Charge<'_> {
    /// One node on `bus`; a move counts only on a single-bus machine.
    fn one(&mut self, bus: BusId, is_move: bool) {
        if self.single_bus || !is_move {
            self.counts[self.n_units + bus.index()] += 1;
        }
    }

    /// One node on some bus of `mask` (0: too many buses to pool).
    fn pool(&mut self, mask: u64, is_move: bool) {
        if mask == 0 || (is_move && !self.single_bus) {
            return;
        }
        if mask.is_power_of_two() {
            self.one(BusId(mask.trailing_zeros()), is_move);
        } else if let Some(entry) = self.pooled.iter_mut().find(|(m, _)| *m == mask) {
            entry.1 += 1;
        } else {
            self.pooled.push((mask, 1));
        }
    }
}

/// The buses the last hops of `paths` use, as a mask; 0 when one of
/// them has no bit.
fn last_buses(paths: &[TransferPath]) -> u64 {
    paths
        .iter()
        .try_fold(0u64, |mask, p| {
            let bus = p.hops.last()?.bus.0;
            (bus < 64).then(|| mask | 1 << bus)
        })
        .unwrap_or(0)
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
        /// ... of which as relabelled twins.
        twins: usize,
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
        /// incumbent it was pruned against; and one pruned as a
        /// relabelled twin covers, on the concurrent engine and without a
        /// spill, at exactly the length recorded for its twin.
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
                        // A graph bound below the incumbent leaves only
                        // the twin bound, which is the twin's length.
                        if b != bound {
                            let spills = full.as_ref().map(|(_, s)| s.spills.len());
                            assert!(
                                !self.sequential && spills == Ok(0) && full_len == Some(b),
                                "{what} #{k}: pruned as a twin of length {b}, but it \
                                 covers in {full_len:?} instructions ({spills:?} spills)"
                            );
                            tally.twins += 1;
                        }
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
        assert!(tally.twins > 0, "no twin was pruned: {tally:?}");
        assert!(tally.tight > 0, "the bound was never tight: {tally:?}");
    }

    /// The six DSP kernels of the bench crate, read from its source: that
    /// crate depends on this one, so it cannot be a dependency here.
    fn kernels() -> Vec<(&'static str, aviv_ir::Function)> {
        let source = include_str!("../../bench/src/kernels.rs");
        let kernels: Vec<_> = source
            .split("source: \"")
            .skip(1)
            .map(|rest| {
                let text = &rest[..rest.find('"').expect("a kernel's source ends")];
                let name = text["func ".len()..].split('(').next().expect("a name");
                let f = aviv_ir::parse_function(text).expect("kernels parse");
                (name, f)
            })
            .collect();
        assert_eq!(kernels.len(), 6, "the bench crate's kernels");
        kernels
    }

    /// Assignments the oracle enumerates per block, machine and preset
    /// with the heuristics off: the kernels on Wide and QuadVliw have
    /// hundreds of thousands each.
    const EXHAUSTIVE_CAP: usize = 50_000;

    /// The assignment bound's oracle: for every explored assignment,
    /// with the heuristics on and off, the bound taken without a graph
    /// is at most [`schedule_lower_bound`] of the graph
    /// [`CoverGraph::try_build`] builds. Over seeded random blocks, the
    /// two hand-written blocks with write-backs and dynamic memory, and
    /// the six DSP kernels, on every `archs` machine. Prints, per
    /// machine, the assignments checked and how many bounds are equal.
    #[test]
    fn the_assignment_bound_never_exceeds_the_graph_bound() {
        use crate::covergraph::tests::{blocks, machines};
        let mut functions: Vec<_> = blocks().into_iter().map(|f| ("block", f)).collect();
        functions.extend(kernels());
        // (machine, assignments checked, bounds equal), in first-seen order.
        let mut tally: Vec<(String, usize, usize)> = Vec::new();
        for machine in machines() {
            let target = Target::new(machine);
            let name = &target.machine.name;
            let at = match tally.iter().position(|(m, ..)| m == name) {
                Some(at) => at,
                None => {
                    tally.push((name.clone(), 0, 0));
                    tally.len() - 1
                }
            };
            for (what, f) in &functions {
                for block in &f.blocks {
                    let dag = &block.dag;
                    let Ok(sndag) = SplitNodeDag::build(dag, &target) else {
                        continue;
                    };
                    for options in [
                        CodegenOptions::heuristics_on(),
                        CodegenOptions {
                            max_assignments: EXHAUSTIVE_CAP,
                            ..CodegenOptions::heuristics_off()
                        },
                    ] {
                        for (k, assignment) in explore(dag, &sndag, &target, &options)
                            .assignments
                            .iter()
                            .enumerate()
                        {
                            let before = assignment_lower_bound(dag, &sndag, &target, assignment);
                            let graph = CoverGraph::try_build(dag, &sndag, &target, assignment)
                                .expect("explored assignments build");
                            let bound = schedule_lower_bound(&graph, &target);
                            assert!(
                                before <= bound,
                                "{what} on {name} #{k}: assignment bound {before} over \
                                 the graph bound {bound}"
                            );
                            tally[at].1 += 1;
                            tally[at].2 += usize::from(before == bound);
                        }
                    }
                }
            }
        }
        for (machine, checked, equal) in &tally {
            eprintln!("{machine}: {checked} assignments, {equal} bounds equal");
        }
        let (checked, equal) = tally.iter().fold((0, 0), |(c, e), &(_, checked, equal)| {
            (c + checked, e + equal)
        });
        eprintln!("all: {checked} assignments, {equal} bounds equal");
        assert!(checked > 100_000, "{checked} assignments checked");
        assert!(
            equal * 2 > checked,
            "bounds equal on only {equal} of {checked}"
        );
    }

    /// Two interchangeable units beside a distinct one, `regs`
    /// registers per bank.
    fn twin_pair(regs: u32) -> aviv_isdl::Machine {
        let mut b = aviv_isdl::MachineBuilder::new("TwinPair");
        let both = [Op::Add, Op::Sub, Op::Mul];
        let u1 = b.unit("U1", &both, regs);
        let u2 = b.unit("U2", &[Op::Add, Op::Mul], regs);
        let u3 = b.unit("U3", &both, regs);
        b.bus("DB", &[u1, u2, u3], true, 1);
        b.build().expect("the twin pair is valid")
    }

    /// An assignment's canonical form under relabelling of
    /// interchangeable units, as the graph's (units by first appearance
    /// in node order, banks after their units): assignments with one
    /// form make one orbit.
    fn orbit_key(
        dag: &BlockDag,
        sndag: &SplitNodeDag,
        target: &Target,
        a: &Assignment,
    ) -> Vec<u64> {
        let machine = &target.machine;
        let n_units = machine.units().len();
        let mut names = vec![NONE; 2 * n_units + machine.banks().len()];
        for (u, unit) in machine.units().iter().enumerate() {
            names[2 * n_units + unit.bank.index()] = u as u32;
        }
        let mut canon = Canon {
            target,
            n_units,
            names: &mut names,
        };
        let mut key = Vec::new();
        for (orig, _) in dag.iter() {
            let Some(alt) = a.choice[orig.index()].map(|c| &sndag.alts(orig)[c]) else {
                key.push(u64::MAX);
                continue;
            };
            let kind = match &alt.kind {
                AltKind::Simple(op) => op.index() as u64,
                AltKind::Complex { index, .. } => 1 << 20 | *index as u64,
                AltKind::DynLoad => 1 << 21,
                AltKind::DynStore => 1 << 22,
            };
            let exec = match alt.exec {
                Exec::Unit(u) => u64::from(canon.unit(u)),
                Exec::MemPort { bus, bank } => {
                    1 << 40 | u64::from(bus.0) << 20 | u64::from(canon.bank(bank))
                }
            };
            key.extend([kind, exec]);
        }
        key
    }

    /// The symmetry oracle. Every explored assignment is covered on a
    /// fresh unlimited budget by the concurrent engine, on Wide at two to
    /// four registers and on [`twin_pair`], for the DSP kernels and
    /// seeded random blocks, heuristics on and off. Within an orbit of
    /// relabelled assignments, and among graphs of one canonical form,
    /// every member covers like the first one whenever the first covered
    /// without a spill: spill-free, at the same length. That is what lets
    /// the exact twin bound skip them. Prints how many orbits and forms
    /// were checked, and how many whose first member spilled had members
    /// of another length.
    #[test]
    fn relabelled_twins_cover_alike() {
        let mut functions: Vec<(String, aviv_ir::Function)> = kernels()
            .into_iter()
            .map(|(name, f)| (name.to_string(), f))
            .collect();
        for n_ops in [6, 10] {
            let cfg = RandDagConfig {
                n_ops,
                ops: vec![Op::Add, Op::Sub, Op::Mul],
                ..RandDagConfig::default()
            };
            for seed in 0..2 {
                functions.push((format!("rand{n_ops}/{seed}"), random_block(&cfg, seed)));
            }
        }
        // (orbits, forms) checked with a spill-free first member, their
        // other members, and orbits whose first member spilled with a
        // member of another length.
        let (mut orbits, mut forms, mut members, mut diverged) = (0, 0, 0, 0);
        for regs in 2..=4 {
            for machine in [archs::wide_arch(regs), twin_pair(regs)] {
                let target = Target::new(machine);
                assert!(target.has_interchangeable_units());
                for (name, f) in &functions {
                    for block in &f.blocks {
                        let dag = &block.dag;
                        let Ok(sndag) = SplitNodeDag::build(dag, &target) else {
                            continue;
                        };
                        for options in [
                            CodegenOptions::heuristics_on(),
                            CodegenOptions {
                                max_assignments: 1_000,
                                ..CodegenOptions::heuristics_off()
                            },
                        ] {
                            let what = format!(
                                "{name} on {} regs {regs} off {}",
                                target.machine.name, !options.prune_assignments
                            );
                            // Per orbit key and per graph form, the first
                            // member's length and spill count.
                            type Seen = Vec<(Vec<u64>, Option<(usize, usize)>)>;
                            let (mut by_orbit, mut by_form): (Seen, Seen) = Default::default();
                            let explored = explore(dag, &sndag, &target, &options).assignments;
                            for (k, assignment) in explored.iter().enumerate() {
                                let mut graph =
                                    CoverGraph::try_build(dag, &sndag, &target, assignment)
                                        .expect("explored assignments build");
                                let form = SCRATCH.with(|s| {
                                    let s = &mut *s.borrow_mut();
                                    s.canonical_form(&graph, &target);
                                    s.form.clone()
                                });
                                let mut syms = f.syms.clone();
                                let outcome = cover_budgeted(
                                    &mut graph,
                                    &target,
                                    &mut syms,
                                    &options,
                                    &Budget::unlimited(),
                                )
                                .ok()
                                .map(|s| (s.len(), s.spills.len()));
                                let orbit = orbit_key(dag, &sndag, &target, assignment);
                                for (seen, key, checked) in [
                                    (&mut by_orbit, orbit, &mut orbits),
                                    (&mut by_form, form, &mut forms),
                                ] {
                                    match seen.iter().find(|(k, _)| *k == key) {
                                        None => {
                                            *checked +=
                                                usize::from(matches!(outcome, Some((_, 0))));
                                            seen.push((key, outcome));
                                        }
                                        Some((_, first @ Some((len, 0)))) => {
                                            assert_eq!(
                                                outcome, *first,
                                                "{what} #{k}: a twin of a spill-free {len}-step cover"
                                            );
                                            members += 1;
                                        }
                                        Some((_, first)) => {
                                            let len =
                                                |o: &Option<(usize, usize)>| o.map(|(l, _)| l);
                                            diverged += usize::from(len(first) != len(&outcome));
                                        }
                                    }
                                }
                            }
                        }
                    }
                }
            }
        }
        eprintln!(
            "{orbits} orbits and {forms} graph forms with a spill-free first member, \
             {members} other members alike; {diverged} members of spilled orbits diverged"
        );
        assert!(
            orbits > 100 && forms > 100,
            "{orbits} orbits, {forms} forms"
        );
        assert!(members > 1_000, "{members} members checked");
        assert!(
            diverged > 0,
            "no spilled orbit diverged: the spill-free rule went untested"
        );
    }

    /// The graph-build pin: the exhaustive `dot4` search on Example (the
    /// `sweep-exhaustive` input, 432 assignments of which the bound
    /// prunes 410) builds graphs only for the assignments it covers, and
    /// its search and bytes stay as `tests/search_pin.rs` pins them.
    #[test]
    fn pruned_assignments_build_no_graph() {
        use crate::codegen::CodeGenerator;
        use crate::covergraph::tests::BUILDS;
        let (_, dot4) = kernels()
            .into_iter()
            .find(|(name, _)| *name == "dot4")
            .expect("dot4");
        let generator = CodeGenerator::new(archs::example_arch(4))
            .options(CodegenOptions::heuristics_off().with_jobs(1));
        let before = BUILDS.with(std::cell::Cell::get);
        let (program, report) = generator.compile_function(&dot4).expect("dot4 compiles");
        let built = BUILDS.with(std::cell::Cell::get) - before;
        let sum =
            |field: fn(&crate::BlockReport) -> u64| report.blocks.iter().map(field).sum::<u64>();
        assert_eq!(sum(|b| b.search.assignments_pruned), 410);
        assert!(built <= 40, "{built} cover graphs built");
        // The row `tests/search_pin.rs` pins: expansions, instructions and
        // an FNV-1a hash of the assembly.
        let asm = program.render(generator.target());
        let hash = asm.bytes().fold(0xcbf2_9ce4_8422_2325_u64, |h, b| {
            (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
        });
        let row = format!(
            "dot4@Example+off {} {} {hash:016x}",
            sum(|b| b.node_expansions),
            report.total_instructions
        );
        let golden = include_str!("../../../tests/golden/search_pin.txt");
        assert!(
            golden.lines().any(|l| l == row),
            "{row} is not the pinned row"
        );
        eprintln!("{built} cover graphs built; {row}");
    }
}
