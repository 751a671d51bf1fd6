//! The per-assignment cover graph.
//!
//! Once a functional-unit assignment is selected, "the data transfers
//! required for the given functional unit assignment are added" (paper
//! §IV-B): the Split-Node DAG collapses to a concrete graph whose nodes
//! are the operation instances, data-transfer instances, memory accesses,
//! and (later) loads and spills. This graph is what maximal cliques are
//! generated over and what the covering step schedules.
//!
//! Spill insertion (§IV-D, Fig. 9) mutates the graph in place: a spill
//! store is appended, pending transfers of the victim are replaced by
//! loads from the spill slot, and obsolete transfer nodes are marked dead.

use crate::assign::Assignment;
use aviv_ir::{BitMatrix, BitSet, BlockDag, NodeId, Op, Sym, SymbolTable};
use aviv_isdl::{BankId, BusId, Location, SlotPattern, Target, TransferPath, UnitId};
use aviv_splitdag::{AltKind, Exec, SplitNodeDag};
use aviv_verify::{Code, Diagnostic};
use std::cell::RefCell;
use std::collections::HashMap;
use std::fmt;
use std::ops::{Deref, DerefMut, Range};

/// Index of a node in a [`CoverGraph`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct CnId(pub u32);

impl CnId {
    /// Raw vector index.
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Display for CnId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "c{}", self.0)
    }
}

/// A value operand of a cover node.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Operand {
    /// The value produced by another cover node.
    Cn(CnId),
    /// An instruction immediate.
    Imm(i64),
}

/// What a cover node does.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CnKind {
    /// An operation on a functional unit.
    Op {
        /// Original DAG node.
        orig: NodeId,
        /// Executing unit.
        unit: UnitId,
        /// Operation.
        op: Op,
    },
    /// A complex instruction covering several original nodes.
    Complex {
        /// Original root node.
        orig: NodeId,
        /// Index into the machine's complex list.
        index: usize,
        /// Executing unit.
        unit: UnitId,
    },
    /// A register-to-register transfer.
    Move {
        /// Bus used.
        bus: BusId,
        /// Source bank.
        from: BankId,
        /// Destination bank.
        to: BankId,
    },
    /// A load of a named variable (or spill slot) from memory.
    LoadVar {
        /// The variable.
        sym: Sym,
        /// Bus used.
        bus: BusId,
        /// Destination bank.
        to: BankId,
    },
    /// A store of a value (or immediate) to a named variable.
    StoreVar {
        /// The variable.
        sym: Sym,
        /// Bus used.
        bus: BusId,
        /// Source bank (`None` when storing an immediate).
        from: Option<BankId>,
    },
    /// A dynamic load `mem[addr]` into `bank`.
    LoadDyn {
        /// Original DAG node.
        orig: NodeId,
        /// Bus used.
        bus: BusId,
        /// Destination bank (address must also reside here).
        bank: BankId,
    },
    /// A dynamic store `mem[addr] = value` from `bank`.
    StoreDyn {
        /// Original DAG node.
        orig: NodeId,
        /// Bus used.
        bus: BusId,
        /// Source bank (address and value reside here).
        bank: BankId,
    },
}

impl CnKind {
    /// The resource a node of this kind occupies.
    pub(crate) fn resource(&self) -> Resource {
        match *self {
            CnKind::Op { unit, .. } | CnKind::Complex { unit, .. } => Resource::Unit(unit),
            CnKind::Move { bus, .. }
            | CnKind::LoadVar { bus, .. }
            | CnKind::StoreVar { bus, .. }
            | CnKind::LoadDyn { bus, .. }
            | CnKind::StoreDyn { bus, .. } => Resource::Bus(bus),
        }
    }
}

/// The execution resource a cover node occupies.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Resource {
    /// A functional-unit slot.
    Unit(UnitId),
    /// A bus slot.
    Bus(BusId),
}

/// A cover node's value operands, read as a slice. Up to
/// [`Args::INLINE`] of them, the widest built-in operation's arity, live
/// in the node itself; only a complex instruction with a wider pattern
/// keeps its operands on the heap.
#[derive(Clone)]
pub struct Args(ArgsRepr);

#[derive(Clone)]
enum ArgsRepr {
    Inline {
        len: u8,
        ops: [Operand; Args::INLINE],
    },
    Heap(Vec<Operand>),
}

impl Args {
    /// Operands stored without a heap allocation.
    pub const INLINE: usize = 3;

    /// No operands.
    pub const fn new() -> Args {
        Args(ArgsRepr::Inline {
            len: 0,
            ops: [Operand::Imm(0); Args::INLINE],
        })
    }

    /// Append an operand.
    pub fn push(&mut self, operand: Operand) {
        match &mut self.0 {
            ArgsRepr::Inline { len, ops } if (*len as usize) < Args::INLINE => {
                ops[*len as usize] = operand;
                *len += 1;
            }
            ArgsRepr::Inline { ops, .. } => {
                let mut heap = Vec::with_capacity(2 * Args::INLINE);
                heap.extend_from_slice(ops);
                heap.push(operand);
                self.0 = ArgsRepr::Heap(heap);
            }
            ArgsRepr::Heap(heap) => heap.push(operand),
        }
    }
}

impl Default for Args {
    fn default() -> Args {
        Args::new()
    }
}

impl Deref for Args {
    type Target = [Operand];

    fn deref(&self) -> &[Operand] {
        match &self.0 {
            ArgsRepr::Inline { len, ops } => &ops[..*len as usize],
            ArgsRepr::Heap(heap) => heap,
        }
    }
}

impl DerefMut for Args {
    fn deref_mut(&mut self) -> &mut [Operand] {
        match &mut self.0 {
            ArgsRepr::Inline { len, ops } => &mut ops[..*len as usize],
            ArgsRepr::Heap(heap) => heap,
        }
    }
}

impl<'a> IntoIterator for &'a Args {
    type Item = &'a Operand;
    type IntoIter = std::slice::Iter<'a, Operand>;

    fn into_iter(self) -> Self::IntoIter {
        self.iter()
    }
}

impl<'a> IntoIterator for &'a mut Args {
    type Item = &'a mut Operand;
    type IntoIter = std::slice::IterMut<'a, Operand>;

    fn into_iter(self) -> Self::IntoIter {
        self.iter_mut()
    }
}

impl FromIterator<Operand> for Args {
    fn from_iter<I: IntoIterator<Item = Operand>>(iter: I) -> Args {
        let mut args = Args::new();
        for operand in iter {
            args.push(operand);
        }
        args
    }
}

impl PartialEq for Args {
    fn eq(&self, other: &Args) -> bool {
        **self == **other
    }
}

impl Eq for Args {}

impl fmt::Debug for Args {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_list().entries(self.iter()).finish()
    }
}

/// One node of the cover graph.
#[derive(Debug, Clone)]
pub struct CoverNode {
    /// What the node does.
    pub kind: CnKind,
    /// Value operands.
    pub args: Args,
    /// Extra ordering predecessors (memory serialization, spill→load).
    pub deps: Vec<CnId>,
}

impl CoverNode {
    /// Operand and ordering predecessors; see [`CoverGraph::preds`].
    fn preds(&self) -> impl Iterator<Item = CnId> + '_ {
        self.args
            .iter()
            .filter_map(|a| match a {
                Operand::Cn(c) => Some(*c),
                Operand::Imm(_) => None,
            })
            .chain(self.deps.iter().copied())
    }

    /// The resource the node occupies.
    pub fn resource(&self) -> Resource {
        self.kind.resource()
    }

    /// The bank the node's result lands in (`None` for stores).
    pub fn dest_bank(&self, target: &Target) -> Option<BankId> {
        match self.kind {
            CnKind::Op { unit, .. } | CnKind::Complex { unit, .. } => {
                Some(target.machine.bank_of(unit))
            }
            CnKind::Move { to, .. } | CnKind::LoadVar { to, .. } => Some(to),
            CnKind::LoadDyn { bank, .. } => Some(bank),
            CnKind::StoreVar { .. } | CnKind::StoreDyn { .. } => None,
        }
    }

    /// True for transfer-class nodes (everything on a bus).
    pub fn is_transfer(&self) -> bool {
        matches!(self.resource(), Resource::Bus(_))
    }

    /// Whether the node counts as a member `pat` of an ISDL `at_most`
    /// constraint: an operation (or, for an opcode-free pattern, a
    /// complex instruction) on the named unit, or any transfer on the
    /// named bus.
    pub fn matches(&self, pat: &SlotPattern) -> bool {
        match *pat {
            SlotPattern::UnitOp { unit, op } => match self.kind {
                CnKind::Op { unit: u, op: o, .. } => u == unit && op.is_none_or(|want| o == want),
                CnKind::Complex { unit: u, .. } => u == unit && op.is_none(),
                _ => false,
            },
            SlotPattern::BusUse { bus } => self.resource() == Resource::Bus(bus),
        }
    }
}

/// Result of a spill mutation.
#[derive(Debug, Clone)]
pub struct SpillOutcome {
    /// The spill-store node (must be scheduled); `None` when the victim
    /// was rematerialized from memory instead of stored (the value was a
    /// load whose source is still valid).
    pub spill: Option<CnId>,
    /// Newly created load/move nodes.
    pub new_nodes: Vec<CnId>,
    /// Nodes made dead (obsolete transfers).
    pub removed: Vec<CnId>,
}

/// The concrete implementation graph of one assignment.
#[derive(Debug, Clone, Default)]
pub struct CoverGraph {
    nodes: Vec<CoverNode>,
    dead: BitSet,
    /// Cover node producing each original node's value.
    value_of_orig: Vec<Option<CnId>>,
    /// Values that must stay live (in a register) at block end, with the
    /// original node they implement.
    live_out: Vec<(NodeId, Operand)>,
    /// Alive consumers of each node's value; rebuilt on demand after
    /// mutation.
    uses: Edges,
    /// Packed reachability: row `i` holds the ancestors of node `i`. A
    /// single allocation probed on every pair the parallelism matrix
    /// builds, so it lives in one cache-friendly [`BitMatrix`] rather
    /// than a `Vec` of heap-allocated sets.
    desc: BitMatrix,
    levels_top: Vec<u32>,
    levels_bottom: Vec<u32>,
    /// Per-bus usage counts (for the §IV-B path-choice heuristic).
    bus_usage: Vec<usize>,
}

/// Per-node lists in one flat buffer: node `i`'s entries are
/// `list[start[i]..start[i + 1]]`.
#[derive(Debug, Clone, Default)]
struct Edges {
    start: Vec<u32>,
    list: Vec<CnId>,
}

impl Edges {
    fn of(&self, i: usize) -> &[CnId] {
        &self.list[self.start[i] as usize..self.start[i + 1] as usize]
    }

    /// Refill, reusing the buffers, from the `(node, entry)` pairs that
    /// `pairs` yields; each node's entries keep their yield order.
    /// `pairs` is called twice: once to count, once to place.
    fn rebuild<I>(&mut self, n: usize, pairs: impl Fn() -> I)
    where
        I: Iterator<Item = (usize, CnId)>,
    {
        let start = &mut self.start;
        start.clear();
        start.resize(n + 1, 0);
        for (i, _) in pairs() {
            start[i + 1] += 1;
        }
        for i in 0..n {
            start[i + 1] += start[i];
        }
        self.list.clear();
        self.list.resize(start[n] as usize, CnId(0));
        // Place each entry at its node's cursor, `start[i]`, which then
        // ends at `i + 1`'s start; shifting right restores the starts.
        for (i, entry) in pairs() {
            self.list[start[i] as usize] = entry;
            start[i] += 1;
        }
        start.copy_within(0..n, 1);
        start[0] = 0;
    }
}

/// Buffers reused by every graph built or re-indexed on a thread, so
/// that doing either allocates only when a graph is larger than any seen
/// before.
#[derive(Default)]
struct Scratch {
    /// The builder's transfer caches and memory bookkeeping.
    build: BuildScratch,
    /// Per node, its count of unprocessed predecessors (Kahn's
    /// algorithm).
    indeg: Vec<u32>,
    /// Per node, the alive nodes it precedes.
    succs: Edges,
    /// Alive nodes in topological order.
    order: Vec<u32>,
    /// Kahn's ready nodes, kept sorted by descending id.
    queue: Vec<u32>,
}

thread_local! {
    static SCRATCH: RefCell<Scratch> = RefCell::new(Scratch::default());
}

impl Scratch {
    /// Reserve for the largest cover graph any assignment of `dag` can
    /// have on `target`, so that the scratch grows at most on a block's
    /// first build, whichever of its assignments are built after it.
    /// Each operation, memory access and write-back is one node, and
    /// each operand, write-back route and live-out adds at most one
    /// node per hop of the longest transfer path; a node's operand
    /// edges come from the DAG's or are a transfer's single operand,
    /// and a write-back's ordering deps are at most one load per bank
    /// of its variable plus the DAG's memory deps.
    fn reserve_for(&mut self, dag: &BlockDag, target: &Target) {
        let hops = target.xfers.max_hops();
        let n_banks = target.machine.banks().len();
        let mut nodes = dag.live_outs().len() * hops;
        let mut edges = dag.mem_deps().len();
        let (mut syms, mut stores) = (0, 0usize);
        for (_, n) in dag.iter() {
            match n.op {
                Op::Const => {}
                Op::Input => syms = syms.max(n.sym.map_or(0, |s| s.index() + 1)),
                Op::StoreVar => {
                    stores += 1;
                    nodes += 2 * hops;
                    edges += 1 + n_banks;
                }
                _ => {
                    nodes += 1 + n.args.len() * hops;
                    edges += n.args.len();
                }
            }
        }
        edges += nodes;
        reserve(&mut self.indeg, nodes);
        reserve(&mut self.order, nodes);
        reserve(&mut self.queue, nodes);
        reserve(&mut self.succs.start, nodes + 1);
        reserve(&mut self.succs.list, edges);
        let build = &mut self.build;
        reserve(&mut build.move_cache, nodes * n_banks);
        reserve(&mut build.loadvar_cache, syms * n_banks);
        reserve(&mut build.loads, syms * n_banks);
        reserve(&mut build.stores, stores);
    }
}

/// Make room for `len` entries in `v`.
fn reserve<T>(v: &mut Vec<T>, len: usize) {
    v.reserve(len.saturating_sub(v.len()));
}

impl CoverGraph {
    /// [`CoverGraph::build`] with the builder's input preconditions
    /// checked up front: every constant carries an immediate, every
    /// variable node a symbol, every operation a chosen alternative on a
    /// capable resource, and every register bank a transfer path to and
    /// from memory. Malformed input yields a structured `C003`
    /// diagnostic instead of a panic deep inside construction, which is
    /// what lets the compilation driver degrade gracefully.
    ///
    /// # Errors
    ///
    /// A [`Diagnostic`] with code `C003` describing the first violated
    /// precondition.
    pub fn try_build(
        dag: &BlockDag,
        sndag: &SplitNodeDag,
        target: &Target,
        assignment: &Assignment,
    ) -> Result<CoverGraph, Diagnostic> {
        let mut graph = CoverGraph::default();
        graph.try_rebuild(dag, sndag, target, assignment)?;
        Ok(graph)
    }

    /// [`CoverGraph::try_build`] in place: make this graph the cover
    /// graph of `assignment`, equal to a fresh one, reusing its storage.
    /// Covering one assignment after another into one graph allocates
    /// only when a graph outgrows every earlier one. On error the graph
    /// is left unchanged.
    ///
    /// # Errors
    ///
    /// As [`CoverGraph::try_build`].
    pub fn try_rebuild(
        &mut self,
        dag: &BlockDag,
        sndag: &SplitNodeDag,
        target: &Target,
        assignment: &Assignment,
    ) -> Result<(), Diagnostic> {
        validate_build_inputs(dag, sndag, target, assignment)?;
        self.rebuild(dag, sndag, target, assignment);
        Ok(())
    }

    /// Build the cover graph of `assignment` for `dag` on `target`.
    pub fn build(
        dag: &BlockDag,
        sndag: &SplitNodeDag,
        target: &Target,
        assignment: &Assignment,
    ) -> CoverGraph {
        let mut graph = CoverGraph::default();
        graph.rebuild(dag, sndag, target, assignment);
        graph
    }

    /// [`CoverGraph::build`] in place.
    fn rebuild(
        &mut self,
        dag: &BlockDag,
        sndag: &SplitNodeDag,
        target: &Target,
        assignment: &Assignment,
    ) {
        self.nodes.clear();
        self.value_of_orig.clear();
        self.value_of_orig.resize(dag.len(), None);
        self.live_out.clear();
        self.bus_usage.clear();
        self.bus_usage.resize(target.machine.buses().len(), 0);
        SCRATCH.with(|scratch| {
            let scratch = &mut *scratch.borrow_mut();
            scratch.reserve_for(dag, target);
            let scratch = &mut scratch.build;
            scratch.reset(dag.len());
            let mut b = GraphBuilder {
                dag,
                sndag,
                target,
                assignment,
                graph: self,
                scratch,
                n_banks: target.machine.banks().len(),
            };
            b.run();

            // Live-outs: branch conditions / return values must sit in a
            // register (or be immediates) at block end. A live-out that
            // is a plain input leaf gets loaded into the bank nearest
            // memory.
            for &(_, orig) in dag.live_outs() {
                let operand = match dag.node(orig).op {
                    Op::Const => {
                        Operand::Imm(dag.node(orig).imm.expect("validated: const has imm"))
                    }
                    Op::Input => {
                        let bank = target.load_bank.expect("machine has banks");
                        b.resolve(orig, bank)
                    }
                    _ => Operand::Cn(
                        b.graph.value_of_orig[orig.index()]
                            .expect("live-out value was materialized"),
                    ),
                };
                b.graph.live_out.push((orig, operand));
            }
        });
        self.dead.reset(self.nodes.len());
        self.rebuild_indexes();
        #[cfg(test)]
        tests::BUILDS.with(|b| b.set(b.get() + 1));
    }

    /// Decompose into the essential fields the snapshot codec
    /// ([`crate::persist`]) writes to disk. The derived indexes (uses,
    /// reachability, levels) are *not* part of the wire format —
    /// [`CoverGraph::from_wire_parts`] recomputes them, which keeps the
    /// format small and makes a decoded graph self-consistent by
    /// construction.
    #[allow(clippy::type_complexity)]
    pub(crate) fn wire_parts(
        &self,
    ) -> (
        &[CoverNode],
        &BitSet,
        &[Option<CnId>],
        &[(NodeId, Operand)],
        &[usize],
    ) {
        (
            &self.nodes,
            &self.dead,
            &self.value_of_orig,
            &self.live_out,
            &self.bus_usage,
        )
    }

    /// Reassemble a graph from decoded snapshot parts, rebuilding every
    /// derived index. See [`CoverGraph::wire_parts`].
    pub(crate) fn from_wire_parts(
        nodes: Vec<CoverNode>,
        dead: BitSet,
        value_of_orig: Vec<Option<CnId>>,
        live_out: Vec<(NodeId, Operand)>,
        bus_usage: Vec<usize>,
    ) -> CoverGraph {
        let mut g = CoverGraph {
            nodes,
            dead,
            value_of_orig,
            live_out,
            bus_usage,
            ..CoverGraph::default()
        };
        g.rebuild_indexes();
        g
    }

    /// All nodes, including dead ones — check [`CoverGraph::is_dead`].
    pub fn nodes(&self) -> &[CoverNode] {
        &self.nodes
    }

    /// Access a node.
    pub fn node(&self, id: CnId) -> &CoverNode {
        &self.nodes[id.index()]
    }

    /// Total node slots (including dead).
    pub fn len(&self) -> usize {
        self.nodes.len()
    }

    /// True when the graph has no nodes at all.
    pub fn is_empty(&self) -> bool {
        self.nodes.is_empty()
    }

    /// Number of live (non-dead) nodes — the cost-relevant size.
    pub fn live_len(&self) -> usize {
        self.nodes.len() - self.dead.count()
    }

    /// Whether a node has been removed by spill rewiring.
    pub fn is_dead(&self, id: CnId) -> bool {
        self.dead.contains(id.index())
    }

    /// The cover node producing each original node's value.
    pub fn value_of_orig(&self, orig: NodeId) -> Option<CnId> {
        self.value_of_orig[orig.index()]
    }

    /// Values that must remain in registers at block end.
    pub fn live_out(&self) -> &[(NodeId, Operand)] {
        &self.live_out
    }

    /// Consumers of each node's value (alive consumers only).
    pub fn uses(&self, id: CnId) -> &[CnId] {
        self.uses.of(id.index())
    }

    /// Dependency test: is there a directed path between `a` and `b`?
    pub fn dependent(&self, a: CnId, b: CnId) -> bool {
        self.desc.contains(a.index(), b.index()) || self.desc.contains(b.index(), a.index())
    }

    /// All predecessors of `id`: its register operands in argument
    /// order, then its ordering deps.
    pub fn preds(&self, id: CnId) -> impl Iterator<Item = CnId> + '_ {
        self.nodes[id.index()].preds()
    }

    /// Level from the top (roots = consumers-of-nothing have 0).
    pub fn level_top(&self, id: CnId) -> u32 {
        self.levels_top[id.index()]
    }

    /// Level from the bottom (nodes with no predecessors have 0).
    pub fn level_bottom(&self, id: CnId) -> u32 {
        self.levels_bottom[id.index()]
    }

    /// Recompute uses, reachability, and levels after mutation.
    ///
    /// Spill rewiring can point old nodes at newly appended loads, so ids
    /// are no longer topological; a Kahn ordering over the alive subgraph
    /// drives the dataflow computations.
    pub fn rebuild_indexes(&mut self) {
        SCRATCH.with(|scratch| self.index(&mut scratch.borrow_mut()));
        #[cfg(test)]
        tests::oracle::check_indexes(self);
    }

    fn index(&mut self, scratch: &mut Scratch) {
        let n = self.nodes.len();
        let (nodes, dead) = (&self.nodes, &self.dead);
        let alive = move || (0..n).filter(move |&i| !dead.contains(i));
        self.uses.rebuild(n, || {
            alive().flat_map(move |i| {
                nodes[i].args.iter().filter_map(move |a| match a {
                    Operand::Cn(c) => Some((c.index(), CnId(i as u32))),
                    Operand::Imm(_) => None,
                })
            })
        });

        // Kahn topological order over alive nodes.
        let Scratch {
            indeg,
            succs,
            order,
            queue,
            ..
        } = scratch;
        indeg.clear();
        indeg.resize(n, 0);
        for i in alive() {
            for p in nodes[i].preds() {
                debug_assert!(
                    !dead.contains(p.index()),
                    "dead predecessor {p} of c{i}: {:?} <- {:?}",
                    nodes[p.index()].kind,
                    nodes[i].kind
                );
                indeg[i] += 1;
            }
        }
        succs.rebuild(n, || {
            alive().flat_map(move |i| nodes[i].preds().map(move |p| (p.index(), CnId(i as u32))))
        });
        order.clear();
        queue.clear();
        // Deterministic: process smallest id first.
        queue.extend(alive().filter(|&i| indeg[i] == 0).map(|i| i as u32).rev());
        while let Some(i) = queue.pop() {
            order.push(i);
            for &s in succs.of(i as usize) {
                let d = &mut indeg[s.index()];
                *d -= 1;
                if *d == 0 {
                    // Insert keeping the stack sorted by descending id.
                    let pos = queue.binary_search_by(|q| s.0.cmp(q)).unwrap_or_else(|p| p);
                    queue.insert(pos, s.0);
                }
            }
        }
        debug_assert_eq!(
            order.len(),
            n - dead.count(),
            "cover graph must stay acyclic"
        );

        self.desc.reset(n, n);
        for &i in order.iter() {
            // Predecessors come earlier in `order`, so their rows are
            // final; accumulate them into row `i` in place.
            let i = i as usize;
            for p in nodes[i].preds() {
                self.desc.set(i, p.index());
                self.desc.or_row_from(i, p.index());
            }
        }
        self.levels_bottom.clear();
        self.levels_bottom.resize(n, 0);
        for &i in order.iter() {
            let i = i as usize;
            let l = nodes[i]
                .preds()
                .map(|p| self.levels_bottom[p.index()] + 1)
                .max()
                .unwrap_or(0);
            self.levels_bottom[i] = l;
        }
        self.levels_top.clear();
        self.levels_top.resize(n, 0);
        for &i in order.iter().rev() {
            let i = i as usize;
            let l = self.levels_top[i];
            for p in nodes[i].preds() {
                let pl = &mut self.levels_top[p.index()];
                *pl = (*pl).max(l + 1);
            }
        }
    }

    /// Relieve register pressure by evicting `victim`: either a true
    /// spill (store to a fresh slot + reloads, Fig. 9) or — when the
    /// victim is itself a load whose memory source is still intact — a
    /// *rematerialization*: unscheduled consumers simply reload the
    /// original location, no store needed. Rematerialization is what
    /// keeps the spill loop convergent: evicting a reload never creates
    /// new slots.
    ///
    /// # Errors
    ///
    /// A structured `C004` diagnostic when `victim` produces no value (a
    /// store), or `C003` when its bank has no path to memory — defects
    /// of the covering engine's victim selection, reported instead of
    /// panicking so the driver can degrade.
    pub fn relieve_pressure(
        &mut self,
        target: &Target,
        syms: &mut SymbolTable,
        victim: CnId,
        covered: &BitSet,
    ) -> Result<(Sym, SpillOutcome), Diagnostic> {
        if let CnKind::LoadVar { sym, .. } = self.nodes[victim.index()].kind {
            // The variable's memory cell is intact unless a write-back of
            // the same variable has already executed.
            let overwritten = (0..self.nodes.len()).any(|i| {
                !self.dead.contains(i)
                    && covered.contains(i)
                    && matches!(self.nodes[i].kind, CnKind::StoreVar { sym: s, .. } if s == sym)
            });
            if !overwritten {
                return Ok((sym, self.remat_load(target, victim, sym, covered)));
            }
        }
        self.spill_value(target, syms, victim, covered)
    }

    /// Spill `victim`'s value to `slot`: appends the spill store, replaces
    /// every *unscheduled* use with loads from the slot, and removes
    /// transfers that only existed to ferry the victim (Fig. 9).
    ///
    /// `covered` marks already-scheduled nodes; their operands are left
    /// untouched. The victim must produce a register value.
    ///
    /// # Errors
    ///
    /// A structured `C004` diagnostic when `victim` produces no value (a
    /// store), or `C003` when its bank has no path to memory.
    pub fn spill_value(
        &mut self,
        target: &Target,
        syms: &mut SymbolTable,
        victim: CnId,
        covered: &BitSet,
    ) -> Result<(Sym, SpillOutcome), Diagnostic> {
        let Some(vbank) = self.nodes[victim.index()].dest_bank(target) else {
            return Err(Diagnostic::new(
                Code::C004,
                format!("node {victim}"),
                "spill victim produces no register value",
            ));
        };
        let Some(path) = target
            .xfers
            .paths(Location::Bank(vbank), Location::Mem)
            .first()
        else {
            return Err(Diagnostic::new(
                Code::C003,
                format!("bank {}", target.machine.bank(vbank).name),
                "no transfer path from the victim's bank to memory",
            ));
        };
        let slot = syms.fresh("__spill");

        let mut new_nodes = Vec::new();
        let mut removed = Vec::new();
        let mut cur = Operand::Cn(victim);
        for (hi, hop) in path.hops.iter().enumerate() {
            let is_last = hi + 1 == path.hops.len();
            let kind = if is_last {
                let from = match hop.from {
                    Location::Bank(b) => b,
                    Location::Mem => unreachable!("store hop starts in a bank"),
                };
                CnKind::StoreVar {
                    sym: slot,
                    bus: hop.bus,
                    from: Some(from),
                }
            } else {
                let (Location::Bank(from), Location::Bank(to)) = (hop.from, hop.to) else {
                    unreachable!("memory is never an intermediate hop")
                };
                CnKind::Move {
                    bus: hop.bus,
                    from,
                    to,
                }
            };
            let id = CnId(self.nodes.len() as u32);
            self.nodes.push(CoverNode {
                kind,
                args: Args::from_iter([cur]),
                deps: Vec::new(),
            });
            self.dead.grow(self.nodes.len());
            new_nodes.push(id);
            cur = Operand::Cn(id);
        }
        let spill = *new_nodes.last().expect("path has at least one hop");

        // 2. Redirect unscheduled consumers to loads from the slot. The
        //    spill chain itself (the nodes just appended) must keep
        //    reading the victim, so it is protected from redirection.
        let protected = new_nodes[0].index()..self.nodes.len();
        let jit = self.redirect_to_reloads(
            target,
            victim,
            covered,
            protected,
            slot,
            Some(spill),
            &mut new_nodes,
            &mut removed,
        );
        self.prune_dead_deps();
        self.add_jit_deps(&jit, covered);

        self.rebuild_indexes();
        Ok((
            slot,
            SpillOutcome {
                spill: Some(spill),
                new_nodes,
                removed,
            },
        ))
    }

    /// Rematerialize a load victim: unscheduled consumers get fresh loads
    /// of the same memory location; no store, no new slot. Write-backs of
    /// the variable that are still pending gain ordering edges after the
    /// new loads (the entry value must be read first).
    fn remat_load(
        &mut self,
        target: &Target,
        victim: CnId,
        sym: Sym,
        covered: &BitSet,
    ) -> SpillOutcome {
        let mut new_nodes = Vec::new();
        let mut removed = Vec::new();
        let jit = self.redirect_to_reloads(
            target,
            victim,
            covered,
            0..0,
            sym,
            None,
            &mut new_nodes,
            &mut removed,
        );
        self.prune_dead_deps();
        self.add_jit_deps(&jit, covered);
        // Write-after-read: pending write-backs of `sym` wait for the new
        // loads (fresh loads have no predecessors, so no cycles).
        let loads: Vec<CnId> = new_nodes
            .iter()
            .copied()
            .filter(|&n| matches!(self.nodes[n.index()].kind, CnKind::LoadVar { .. }))
            .collect();
        for i in 0..self.nodes.len() {
            if self.dead.contains(i) || covered.contains(i) {
                continue;
            }
            if matches!(self.nodes[i].kind, CnKind::StoreVar { sym: s, .. } if s == sym) {
                for &l in &loads {
                    if !self.nodes[i].deps.contains(&l) {
                        self.nodes[i].deps.push(l);
                    }
                }
            }
        }
        self.rebuild_indexes();
        SpillOutcome {
            spill: None,
            new_nodes,
            removed,
        }
    }

    /// Shared spill/remat rewiring: every unscheduled consumer of
    /// `victim` outside the `protected` ids is redirected to a reload
    /// chain of `slot_sym` into the bank it needs; pending moves that
    /// only ferried the victim die and their consumers chase the
    /// replacement transitively. Returns `(chain head, consumer)` pairs
    /// for the just-in-time ordering pass.
    #[allow(clippy::too_many_arguments)]
    fn redirect_to_reloads(
        &mut self,
        target: &Target,
        victim: CnId,
        covered: &BitSet,
        protected: Range<usize>,
        slot_sym: Sym,
        after: Option<CnId>,
        new_nodes: &mut Vec<CnId>,
        removed: &mut Vec<CnId>,
    ) -> Vec<(CnId, CnId)> {
        let mut jit: Vec<(CnId, CnId)> = Vec::new();
        let mut worklist: Vec<(CnId, CnId)> = Vec::new(); // (value node, consumer)
        for i in 0..self.nodes.len() {
            if self.dead.contains(i) || covered.contains(i) || protected.contains(&i) {
                continue;
            }
            if self.nodes[i].args.contains(&Operand::Cn(victim)) {
                worklist.push((victim, CnId(i as u32)));
            }
        }
        while let Some((value, consumer)) = worklist.pop() {
            let c = consumer.index();
            if self.dead.contains(c) || covered.contains(c) || protected.contains(&c) {
                continue;
            }
            // A pending move that only ferried this value dies; its
            // consumers chase the replacement instead.
            let is_ferry_move = matches!(self.nodes[c].kind, CnKind::Move { .. })
                && self.nodes[c].args[..] == [Operand::Cn(value)];
            if is_ferry_move {
                self.dead.insert(c);
                removed.push(consumer);
                for i in 0..self.nodes.len() {
                    if self.dead.contains(i) || covered.contains(i) {
                        continue;
                    }
                    if self.nodes[i].args.contains(&Operand::Cn(consumer)) {
                        worklist.push((consumer, CnId(i as u32)));
                    }
                }
                continue;
            }
            // Replace the operand with a load chain into the bank the
            // consumer needs. Each consumer gets its *own* reload (the
            // paper counts "the number of parent nodes that would later
            // require the spilled value to be reloaded"): sharing one
            // reload across consumers would recreate the long live range
            // the spill was meant to break.
            let need_bank = self.operand_bank(target, consumer);
            let (head, tail) = {
                let first_new = new_nodes.len();
                let t = self.build_load_chain(target, slot_sym, need_bank, after, new_nodes);
                (new_nodes[first_new], t)
            };
            for a in &mut self.nodes[c].args {
                if *a == Operand::Cn(value) {
                    *a = Operand::Cn(tail);
                }
            }
            jit.push((head, consumer));
        }
        jit
    }

    /// Drop ordering edges that point at killed nodes. Only *advisory*
    /// deps (just-in-time reload ordering) can reference transfer moves —
    /// the correctness-bearing deps (memory serialization, write-after-
    /// read, spill-store ordering) all point at loads/stores, which are
    /// never killed — so dropping them is sound.
    pub(crate) fn prune_dead_deps(&mut self) {
        let dead = &self.dead;
        for (i, node) in self.nodes.iter_mut().enumerate() {
            if !dead.contains(i) {
                node.deps.retain(|d| !dead.contains(d.index()));
            }
        }
    }

    /// Just-in-time ordering for reload chains: a reload may only be
    /// scheduled once its consumer's *other* predecessors are done, so the
    /// reloaded register is consumed immediately instead of parking in a
    /// scarce bank (where the next pressure crisis would evict it again —
    /// the livelock this pass prevents). Each edge is checked against the
    /// current graph to keep it acyclic.
    fn add_jit_deps(&mut self, jit: &[(CnId, CnId)], covered: &BitSet) {
        for &(head, consumer) in jit {
            if self.dead.contains(head.index()) || self.dead.contains(consumer.index()) {
                continue;
            }
            let preds: Vec<CnId> = self.preds(consumer).collect();
            for p in preds {
                if p == head
                    || self.dead.contains(p.index())
                    || covered.contains(p.index())
                    || self.nodes[head.index()].deps.contains(&p)
                {
                    continue;
                }
                // Safe only if p does not (now) depend on head.
                if self.reaches_via_preds(p, head) {
                    continue;
                }
                self.nodes[head.index()].deps.push(p);
            }
        }
    }

    /// Whether `to` is in `from`'s predecessor closure (on the current,
    /// possibly unindexed graph).
    fn reaches_via_preds(&self, from: CnId, to: CnId) -> bool {
        let mut seen = std::collections::HashSet::new();
        let mut stack = vec![from];
        while let Some(n) = stack.pop() {
            if n == to {
                return true;
            }
            if !seen.insert(n) {
                continue;
            }
            for p in self.preds(n) {
                stack.push(p);
            }
        }
        false
    }

    /// The bank a consumer reads its register operands from.
    fn operand_bank(&self, target: &Target, consumer: CnId) -> BankId {
        match self.nodes[consumer.index()].kind {
            CnKind::Op { unit, .. } | CnKind::Complex { unit, .. } => target.machine.bank_of(unit),
            CnKind::Move { from, .. } => from,
            CnKind::StoreVar { from, .. } => from.expect("store of a register value"),
            CnKind::LoadDyn { bank, .. } | CnKind::StoreDyn { bank, .. } => bank,
            CnKind::LoadVar { .. } => unreachable!("loads have no register operands"),
        }
    }

    /// Build a load chain `slot`(memory) → `bank`, optionally ordered
    /// after a spill store.
    fn build_load_chain(
        &mut self,
        target: &Target,
        slot: Sym,
        bank: BankId,
        after: Option<CnId>,
        new_nodes: &mut Vec<CnId>,
    ) -> CnId {
        let path = target
            .xfers
            .paths(Location::Mem, Location::Bank(bank))
            .first()
            .expect("validated machines reach every bank from memory");
        let mut cur: Option<CnId> = None;
        for hop in &path.hops {
            let kind = match (hop.from, hop.to) {
                (Location::Mem, Location::Bank(t)) => CnKind::LoadVar {
                    sym: slot,
                    bus: hop.bus,
                    to: t,
                },
                (Location::Bank(f), Location::Bank(t)) => CnKind::Move {
                    bus: hop.bus,
                    from: f,
                    to: t,
                },
                _ => unreachable!("memory is never an intermediate hop"),
            };
            let id = CnId(self.nodes.len() as u32);
            let (args, deps) = match cur {
                None => (Args::new(), after.into_iter().collect()),
                Some(prev) => (Args::from_iter([Operand::Cn(prev)]), Vec::new()),
            };
            self.nodes.push(CoverNode { kind, args, deps });
            self.dead.grow(self.nodes.len());
            new_nodes.push(id);
            cur = Some(id);
        }
        cur.expect("path has at least one hop")
    }

    /// Current per-bus usage counts (path-choice heuristic state).
    pub fn bus_usage(&self) -> &[usize] {
        &self.bus_usage
    }

    /// Replace every alive reference to `from` with `to` (peephole spill
    /// undo). Call [`CoverGraph::rebuild_indexes`] when done mutating.
    pub fn rewire_all(&mut self, from: CnId, to: CnId) {
        for i in 0..self.nodes.len() {
            if self.dead.contains(i) {
                continue;
            }
            for a in &mut self.nodes[i].args {
                if *a == Operand::Cn(from) {
                    *a = Operand::Cn(to);
                }
            }
            for d in &mut self.nodes[i].deps {
                if *d == from {
                    *d = to;
                }
            }
        }
        for (_, op) in &mut self.live_out {
            if *op == Operand::Cn(from) {
                *op = Operand::Cn(to);
            }
        }
    }

    /// Mark a node dead (peephole removal). The caller must have rewired
    /// or removed all its consumers first; call
    /// [`CoverGraph::rebuild_indexes`] when done mutating.
    pub fn kill(&mut self, id: CnId) {
        self.dead.insert(id.index());
    }

    /// Structural invariants; used by tests and debug assertions.
    pub fn verify(&self, target: &Target) -> Result<(), String> {
        for (i, n) in self.nodes.iter().enumerate() {
            if self.dead.contains(i) {
                continue;
            }
            let id = CnId(i as u32);
            for a in &n.args {
                if let Operand::Cn(c) = a {
                    if c.index() >= self.nodes.len() {
                        return Err(format!("{id}: operand {c} out of range"));
                    }
                    if self.dead.contains(c.index()) {
                        return Err(format!("{id}: operand {c} is dead"));
                    }
                    let pb = self.nodes[c.index()].dest_bank(target);
                    if pb.is_none() {
                        return Err(format!("{id}: operand {c} produces no value"));
                    }
                    // Register operands must reside in the consumer bank
                    // (loads take no register operand).
                    if !matches!(n.kind, CnKind::LoadVar { .. }) {
                        let need = self.operand_bank(target, id);
                        if pb != Some(need) {
                            return Err(format!("{id}: operand {c} in {pb:?}, needs {need:?}"));
                        }
                    }
                }
            }
        }
        Ok(())
    }

    /// Alive node ids in topological (ascending) order.
    pub fn alive(&self) -> impl Iterator<Item = CnId> + '_ {
        (0..self.nodes.len())
            .filter(|&i| !self.dead.contains(i))
            .map(|i| CnId(i as u32))
    }

    /// Rewrite every variable reference according to `map` (symbols not
    /// in the map are untouched). Used by the merge stage of parallel
    /// compilation: a block planned against a symbol-table snapshot names
    /// its spill slots locally, and the merge renames them to their final
    /// function-wide symbols before emission.
    pub fn remap_syms(&mut self, map: &HashMap<Sym, Sym>) {
        for n in &mut self.nodes {
            match &mut n.kind {
                CnKind::LoadVar { sym, .. } | CnKind::StoreVar { sym, .. } => {
                    if let Some(&m) = map.get(sym) {
                        *sym = m;
                    }
                }
                _ => {}
            }
        }
    }
}

/// The builder's temporaries, reused across builds (see [`Scratch`]).
#[derive(Default)]
struct BuildScratch {
    /// `producer.index() * n_banks + bank.index()` → chain tail. Flat and
    /// index-keyed: the builder probes it once per operand it resolves,
    /// so it must be a plain array lookup, not a hash probe. Grown on
    /// demand as nodes are appended.
    move_cache: Vec<Option<CnId>>,
    /// `sym.index() * n_banks + bank.index()` → chain tail; grown on
    /// demand (the builder never sees the symbol table's size).
    loadvar_cache: Vec<Option<CnId>>,
    /// Original memory node → cover node (for serialization edges),
    /// indexed by `NodeId`.
    mem_cn: Vec<Option<CnId>>,
    /// Entry-value loads (LoadVar nodes only, not the moves behind them)
    /// in creation order — write-backs of the same variable must follow
    /// them.
    loads: Vec<(Sym, CnId)>,
    /// Write-backs in creation order.
    stores: Vec<(Sym, CnId)>,
}

impl BuildScratch {
    /// Empty every table for a DAG of `n` nodes.
    fn reset(&mut self, n: usize) {
        self.move_cache.clear();
        self.loadvar_cache.clear();
        self.mem_cn.clear();
        self.mem_cn.resize(n, None);
        self.loads.clear();
        self.stores.clear();
    }
}

struct GraphBuilder<'a> {
    dag: &'a BlockDag,
    sndag: &'a SplitNodeDag,
    target: &'a Target,
    assignment: &'a Assignment,
    /// The graph under construction: nodes, `value_of_orig` and
    /// `bus_usage` are written here directly.
    graph: &'a mut CoverGraph,
    scratch: &'a mut BuildScratch,
    /// Bank count — the row stride of the two flat transfer caches.
    n_banks: usize,
}

impl<'a> GraphBuilder<'a> {
    /// Cached transfer-chain tail ferrying `producer` into `bank`.
    fn move_cached(&self, producer: CnId, bank: BankId) -> Option<CnId> {
        let idx = producer.index() * self.n_banks + bank.index();
        self.scratch.move_cache.get(idx).copied().flatten()
    }

    fn cache_move(&mut self, producer: CnId, bank: BankId, tail: CnId) {
        let idx = producer.index() * self.n_banks + bank.index();
        let cache = &mut self.scratch.move_cache;
        if idx >= cache.len() {
            cache.resize(idx + 1, None);
        }
        cache[idx] = Some(tail);
    }

    /// Cached load-chain tail delivering `sym`'s entry value into `bank`.
    fn loadvar_cached(&self, sym: Sym, bank: BankId) -> Option<CnId> {
        let idx = sym.index() * self.n_banks + bank.index();
        self.scratch.loadvar_cache.get(idx).copied().flatten()
    }

    fn cache_loadvar(&mut self, sym: Sym, bank: BankId, tail: CnId) {
        let idx = sym.index() * self.n_banks + bank.index();
        let cache = &mut self.scratch.loadvar_cache;
        if idx >= cache.len() {
            cache.resize(idx + 1, None);
        }
        cache[idx] = Some(tail);
    }

    fn push(&mut self, kind: CnKind, args: Args) -> CnId {
        if let Resource::Bus(b) = kind.resource() {
            self.graph.bus_usage[b.index()] += 1;
        }
        let id = CnId(self.graph.nodes.len() as u32);
        self.graph.nodes.push(CoverNode {
            kind,
            args,
            deps: Vec::new(),
        });
        id
    }

    /// The bank `producer`'s value lands in.
    fn bank_of(&self, producer: CnId) -> BankId {
        self.graph.nodes[producer.index()]
            .dest_bank(self.target)
            .expect("value-producing node")
    }

    /// Choose among equal-cost transfer paths by current bus pressure
    /// (§IV-B: "the cost function is based solely on parallelism").
    fn choose_path(&self, from: Location, to: Location) -> &'a TransferPath {
        let target: &'a Target = self.target;
        let paths = target.xfers.paths(from, to);
        assert!(!paths.is_empty(), "no transfer path {from} -> {to}");
        let bus_usage = &self.graph.bus_usage;
        paths
            .iter()
            .min_by_key(|p| {
                (
                    p.hops
                        .iter()
                        .map(|h| bus_usage[h.bus.index()])
                        .sum::<usize>(),
                    p.hops.first().map_or(0, |h| h.bus.0),
                )
            })
            .expect("nonempty")
    }

    /// Produce `orig`'s value in `bank`, inserting transfer chains.
    fn resolve(&mut self, orig: NodeId, bank: BankId) -> Operand {
        let n = self.dag.node(orig);
        match n.op {
            Op::Const => Operand::Imm(n.imm.expect("validated: const has imm")),
            Op::Input => {
                let sym = n.sym.expect("validated: input has sym");
                if let Some(t) = self.loadvar_cached(sym, bank) {
                    return Operand::Cn(t);
                }
                let path = self.choose_path(Location::Mem, Location::Bank(bank));
                let mut cur: Option<CnId> = None;
                for hop in &path.hops {
                    let id = match (hop.from, hop.to) {
                        (Location::Mem, Location::Bank(t)) => {
                            // Intermediate banks are cacheable too.
                            if let Some(c) = self.loadvar_cached(sym, t) {
                                c
                            } else {
                                let c = self.push(
                                    CnKind::LoadVar {
                                        sym,
                                        bus: hop.bus,
                                        to: t,
                                    },
                                    Args::new(),
                                );
                                self.cache_loadvar(sym, t, c);
                                self.scratch.loads.push((sym, c));
                                c
                            }
                        }
                        (Location::Bank(f), Location::Bank(t)) => {
                            let prev = cur.expect("bank hop follows the memory hop");
                            if let Some(c) = self.loadvar_cached(sym, t) {
                                c
                            } else {
                                let c = self.push(
                                    CnKind::Move {
                                        bus: hop.bus,
                                        from: f,
                                        to: t,
                                    },
                                    Args::from_iter([Operand::Cn(prev)]),
                                );
                                self.cache_loadvar(sym, t, c);
                                c
                            }
                        }
                        _ => unreachable!("memory is never an intermediate hop"),
                    };
                    cur = Some(id);
                }
                Operand::Cn(cur.expect("path nonempty"))
            }
            _ => {
                let producer = self.graph.value_of_orig[orig.index()]
                    .expect("operands are materialized before consumers");
                let pbank = self.bank_of(producer);
                if pbank == bank {
                    return Operand::Cn(producer);
                }
                if let Some(t) = self.move_cached(producer, bank) {
                    return Operand::Cn(t);
                }
                let path = self.choose_path(Location::Bank(pbank), Location::Bank(bank));
                let mut cur = producer;
                for hop in &path.hops {
                    let (Location::Bank(f), Location::Bank(t)) = (hop.from, hop.to) else {
                        unreachable!("memory is never an intermediate hop")
                    };
                    cur = if let Some(c) = self.move_cached(producer, t) {
                        c
                    } else {
                        let c = self.push(
                            CnKind::Move {
                                bus: hop.bus,
                                from: f,
                                to: t,
                            },
                            Args::from_iter([Operand::Cn(cur)]),
                        );
                        self.cache_move(producer, t, c);
                        c
                    };
                }
                Operand::Cn(cur)
            }
        }
    }

    fn run(&mut self) {
        let (dag, sndag) = (self.dag, self.sndag);
        for (orig, n) in dag.iter() {
            // Skipped: leaves (lazy), and nodes swallowed by a chosen
            // complex (their value comes from the complex node, assigned
            // when the root is processed — roots have larger ids).
            if n.op.is_leaf() || self.assignment.complex_covered[orig.index()] {
                continue;
            }
            match n.op {
                Op::StoreVar => {
                    let sym = n.sym.expect("validated: store-var has sym");
                    let vnode = n.args[0];
                    let vop = dag.node(vnode).op;
                    if vop == Op::Const {
                        // Immediate store straight to memory.
                        let path = self.choose_path(
                            // Any bank with a memory bus works; route from
                            // the first bank on a memory path. Immediates
                            // ride the bus directly.
                            Location::Bank(BankId(0)),
                            Location::Mem,
                        );
                        let bus = path.hops.last().expect("nonempty").bus;
                        let cn = self.push(
                            CnKind::StoreVar {
                                sym,
                                bus,
                                from: None,
                            },
                            Args::from_iter([Operand::Imm(
                                dag.node(vnode).imm.expect("validated: const has imm"),
                            )]),
                        );
                        self.scratch.mem_cn[orig.index()] = Some(cn);
                        self.scratch.stores.push((sym, cn));
                        continue;
                    }
                    // Route the value to memory: intermediate hops are
                    // moves, the final hop is the store itself.
                    let src_bank = if vop == Op::Input {
                        // Storing an unmodified input: load it somewhere
                        // first (degenerate but legal).
                        self.target.round_trip_bank.expect("machine has banks")
                    } else {
                        let p =
                            self.graph.value_of_orig[vnode.index()].expect("value materialized");
                        self.bank_of(p)
                    };
                    let value = self.resolve(vnode, src_bank);
                    let path = self.choose_path(Location::Bank(src_bank), Location::Mem);
                    let mut cur = value;
                    let mut store_cn = None;
                    for (hi, hop) in path.hops.iter().enumerate() {
                        let is_last = hi + 1 == path.hops.len();
                        if is_last {
                            let from = match hop.from {
                                Location::Bank(b) => b,
                                Location::Mem => unreachable!(),
                            };
                            let cn = self.push(
                                CnKind::StoreVar {
                                    sym,
                                    bus: hop.bus,
                                    from: Some(from),
                                },
                                Args::from_iter([cur]),
                            );
                            self.scratch.stores.push((sym, cn));
                            store_cn = Some(cn);
                        } else {
                            let (Location::Bank(f), Location::Bank(t)) = (hop.from, hop.to) else {
                                unreachable!()
                            };
                            let cn = self.push(
                                CnKind::Move {
                                    bus: hop.bus,
                                    from: f,
                                    to: t,
                                },
                                Args::from_iter([cur]),
                            );
                            cur = Operand::Cn(cn);
                        }
                    }
                    self.scratch.mem_cn[orig.index()] =
                        Some(store_cn.expect("store path nonempty"));
                }
                Op::Store | Op::Load => {
                    let ai = self.assignment.choice[orig.index()]
                        .expect("memory ops have chosen alternatives");
                    let alt = &sndag.alts(orig)[ai];
                    let (bus, bank) = match alt.exec {
                        aviv_splitdag::Exec::MemPort { bus, bank } => (bus, bank),
                        aviv_splitdag::Exec::Unit(_) => {
                            unreachable!("memory ops use memory ports")
                        }
                    };
                    if n.op == Op::Load {
                        let addr = self.resolve(n.args[0], bank);
                        let cn =
                            self.push(CnKind::LoadDyn { orig, bus, bank }, Args::from_iter([addr]));
                        self.graph.value_of_orig[orig.index()] = Some(cn);
                        self.scratch.mem_cn[orig.index()] = Some(cn);
                    } else {
                        let addr = self.resolve(n.args[0], bank);
                        let val = self.resolve(n.args[1], bank);
                        let cn = self.push(
                            CnKind::StoreDyn { orig, bus, bank },
                            Args::from_iter([addr, val]),
                        );
                        self.scratch.mem_cn[orig.index()] = Some(cn);
                    }
                }
                _ => {
                    let ai = self.assignment.choice[orig.index()]
                        .expect("operations have chosen alternatives");
                    let alt = &sndag.alts(orig)[ai];
                    let unit = match alt.exec {
                        aviv_splitdag::Exec::Unit(u) => u,
                        aviv_splitdag::Exec::MemPort { .. } => {
                            unreachable!("pure ops execute on units")
                        }
                    };
                    let bank = self.target.machine.bank_of(unit);
                    match &alt.kind {
                        AltKind::Simple(op) => {
                            let args = n.args.iter().map(|&a| self.resolve(a, bank)).collect();
                            let cn = self.push(
                                CnKind::Op {
                                    orig,
                                    unit,
                                    op: *op,
                                },
                                args,
                            );
                            self.graph.value_of_orig[orig.index()] = Some(cn);
                        }
                        AltKind::Complex { index, .. } => {
                            let sndag = self.sndag;
                            let operands = sndag.complex_operands(alt).unwrap_or_default();
                            let args = operands.iter().map(|&a| self.resolve(a, bank)).collect();
                            let cn = self.push(
                                CnKind::Complex {
                                    orig,
                                    index: *index,
                                    unit,
                                },
                                args,
                            );
                            for &c in sndag.covers(alt) {
                                self.graph.value_of_orig[c.index()] = Some(cn);
                            }
                        }
                        AltKind::DynLoad | AltKind::DynStore => {
                            unreachable!("handled above")
                        }
                    }
                }
            }
        }
        let nodes = &mut self.graph.nodes;
        // A variable's write-back must not overtake any same-block read
        // of its entry value (write-after-read on the variable's memory
        // cell). Loads have no inputs, so these edges cannot form cycles.
        for &(sym, store_cn) in &self.scratch.stores {
            for &(_, load_cn) in self.scratch.loads.iter().filter(|&&(s, _)| s == sym) {
                let deps = &mut nodes[store_cn.index()].deps;
                if !deps.contains(&load_cn) {
                    deps.push(load_cn);
                }
            }
        }
        // Memory serialization edges.
        let mem_cn = &self.scratch.mem_cn;
        for &(earlier, later) in dag.mem_deps() {
            if let (Some(a), Some(b)) = (mem_cn[earlier.index()], mem_cn[later.index()]) {
                let deps = &mut nodes[b.index()].deps;
                if a != b && !deps.contains(&a) {
                    deps.push(a);
                }
            }
        }
    }
}

/// Check every precondition the graph builder otherwise only `expect`s:
/// the exact set of properties whose violation would panic inside
/// [`CoverGraph::build`]. Kept in sync with the builder by construction —
/// each check cites the builder expectation it discharges.
fn validate_build_inputs(
    dag: &BlockDag,
    sndag: &SplitNodeDag,
    target: &Target,
    assignment: &Assignment,
) -> Result<(), Diagnostic> {
    let c003 = |element: String, message: String| Diagnostic::new(Code::C003, element, message);
    if assignment.choice.len() != dag.len() || assignment.complex_covered.len() != dag.len() {
        return Err(c003(
            "assignment".to_string(),
            format!(
                "assignment covers {} nodes but the DAG has {}",
                assignment.choice.len(),
                dag.len()
            ),
        ));
    }
    // "machine has banks" / "validated machines reach memory from every
    // bank" (spill stores, input loads, round trips).
    if target.load_bank.is_none() || target.round_trip_bank.is_none() {
        return Err(c003(
            "machine".to_string(),
            "machine has no register bank connected to memory".to_string(),
        ));
    }
    for (bi, bank) in target.machine.banks().iter().enumerate() {
        let b = BankId(bi as u32);
        if target
            .xfers
            .paths(Location::Bank(b), Location::Mem)
            .is_empty()
            || target
                .xfers
                .paths(Location::Mem, Location::Bank(b))
                .is_empty()
        {
            return Err(c003(
                format!("bank {}", bank.name),
                "no transfer path between this bank and memory".to_string(),
            ));
        }
    }
    for (orig, n) in dag.iter() {
        // Leaves are resolved lazily; `resolve` unwraps their payloads.
        match n.op {
            Op::Const if n.imm.is_none() => {
                return Err(c003(
                    format!("node {orig}"),
                    "constant node carries no immediate".to_string(),
                ));
            }
            Op::Input if n.sym.is_none() => {
                return Err(c003(
                    format!("node {orig}"),
                    "input node names no variable".to_string(),
                ));
            }
            _ => {}
        }
        if n.op.is_leaf() || assignment.complex_covered[orig.index()] {
            continue;
        }
        match n.op {
            Op::StoreVar => {
                // Needs a symbol; takes no alternative.
                if n.sym.is_none() {
                    return Err(c003(
                        format!("node {orig}"),
                        "variable store names no variable".to_string(),
                    ));
                }
            }
            Op::Store | Op::Load => {
                // "memory ops have chosen alternatives" on a memory port.
                let Some(ai) = assignment.choice[orig.index()] else {
                    return Err(c003(
                        format!("node {orig}"),
                        "memory operation has no chosen alternative".to_string(),
                    ));
                };
                match sndag.alts(orig).get(ai).map(|a| a.exec) {
                    Some(Exec::MemPort { .. }) => {}
                    Some(Exec::Unit(_)) | None => {
                        return Err(c003(
                            format!("node {orig}"),
                            format!("alternative {ai} is not a memory port"),
                        ));
                    }
                }
            }
            _ => {
                // "operations have chosen alternatives" on a functional
                // unit, and never a dynamic-memory alternative kind.
                let Some(ai) = assignment.choice[orig.index()] else {
                    return Err(c003(
                        format!("node {orig}"),
                        "operation has no chosen alternative".to_string(),
                    ));
                };
                match sndag.alts(orig).get(ai) {
                    Some(alt) => {
                        if !matches!(alt.exec, Exec::Unit(_))
                            || matches!(alt.kind, AltKind::DynLoad | AltKind::DynStore)
                        {
                            return Err(c003(
                                format!("node {orig}"),
                                format!("alternative {ai} cannot execute a pure operation"),
                            ));
                        }
                    }
                    None => {
                        return Err(c003(
                            format!("node {orig}"),
                            format!("alternative {ai} is out of range"),
                        ));
                    }
                }
            }
        }
    }
    Ok(())
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use crate::assign::explore;
    use crate::budget::Budget;
    use crate::cover::cover_sequential_budgeted;
    use crate::options::CodegenOptions;
    use aviv_ir::randdag::{random_block, RandDagConfig};
    use aviv_ir::{parse_function, Function};
    use aviv_isdl::archs;
    use std::cell::Cell;

    thread_local! {
        /// Cover graphs built on this thread, fresh or in place.
        pub(crate) static BUILDS: Cell<usize> = const { Cell::new(0) };
    }

    /// The graph builder and index rebuild as they were before the graph
    /// was built into reused storage: one `Vec` per node's operands and
    /// per node's consumer list, fresh temporaries per build. The oracle
    /// requires the same graph from both.
    pub(super) mod reference {
        use super::super::*;

        /// A cover node with its operands in a `Vec`.
        #[derive(Debug, Clone)]
        pub struct RefNode {
            pub kind: CnKind,
            pub args: Vec<Operand>,
            pub deps: Vec<CnId>,
        }

        impl RefNode {
            pub fn preds(&self) -> impl Iterator<Item = CnId> + '_ {
                self.args
                    .iter()
                    .filter_map(|a| match a {
                        Operand::Cn(c) => Some(*c),
                        Operand::Imm(_) => None,
                    })
                    .chain(self.deps.iter().copied())
            }

            fn resource(&self) -> Resource {
                self.kind.resource()
            }

            fn dest_bank(&self, target: &Target) -> Option<BankId> {
                match self.kind {
                    CnKind::Op { unit, .. } | CnKind::Complex { unit, .. } => {
                        Some(target.machine.bank_of(unit))
                    }
                    CnKind::Move { to, .. } | CnKind::LoadVar { to, .. } => Some(to),
                    CnKind::LoadDyn { bank, .. } => Some(bank),
                    CnKind::StoreVar { .. } | CnKind::StoreDyn { .. } => None,
                }
            }
        }

        /// The derived indexes, each node's consumers in its own `Vec`.
        #[derive(Debug, Default)]
        pub struct Indexes {
            pub uses: Vec<Vec<CnId>>,
            pub desc: BitMatrix,
            pub levels_top: Vec<u32>,
            pub levels_bottom: Vec<u32>,
        }

        impl Indexes {
            pub(super) fn of(nodes: &[RefNode], dead: &BitSet) -> Indexes {
                let mut this = Indexes::default();
                let n = nodes.len();
                this.uses = vec![Vec::new(); n];
                for (i, node) in nodes.iter().enumerate() {
                    if dead.contains(i) {
                        continue;
                    }
                    for a in &node.args {
                        if let Operand::Cn(c) = a {
                            this.uses[c.index()].push(CnId(i as u32));
                        }
                    }
                }
                // Kahn topological order over alive nodes.
                let mut indeg = vec![0usize; n];
                let mut succs: Vec<Vec<usize>> = vec![Vec::new(); n];
                for (i, d) in indeg.iter_mut().enumerate() {
                    if dead.contains(i) {
                        continue;
                    }
                    for p in nodes[i].preds() {
                        debug_assert!(
                            !dead.contains(p.index()),
                            "dead predecessor {p} of c{i}: {:?} <- {:?}",
                            nodes[p.index()].kind,
                            nodes[i].kind
                        );
                        *d += 1;
                        succs[p.index()].push(i);
                    }
                }
                let mut order: Vec<usize> = Vec::with_capacity(n);
                let mut queue: Vec<usize> = (0..n)
                    .filter(|&i| !dead.contains(i) && indeg[i] == 0)
                    .collect();
                // Deterministic: process smallest id first.
                queue.sort_unstable_by(|a, b| b.cmp(a));
                while let Some(i) = queue.pop() {
                    order.push(i);
                    for &s in &succs[i] {
                        indeg[s] -= 1;
                        if indeg[s] == 0 {
                            // Insert keeping the stack roughly id-sorted.
                            let pos = queue.binary_search_by(|&q| s.cmp(&q)).unwrap_or_else(|p| p);
                            queue.insert(pos, s);
                        }
                    }
                }
                debug_assert_eq!(
                    order.len(),
                    n - dead.count(),
                    "cover graph must stay acyclic"
                );

                this.desc = BitMatrix::new(n, n);
                for &i in &order {
                    // Predecessors come earlier in `order`, so their rows are
                    // final; accumulate them into row `i` in place.
                    for p in nodes[i].preds() {
                        this.desc.set(i, p.index());
                        this.desc.or_row_from(i, p.index());
                    }
                }
                this.levels_bottom = vec![0; n];
                for &i in &order {
                    let l = nodes[i]
                        .preds()
                        .map(|p| this.levels_bottom[p.index()] + 1)
                        .max()
                        .unwrap_or(0);
                    this.levels_bottom[i] = l;
                }
                this.levels_top = vec![0; n];
                for &i in order.iter().rev() {
                    let l = this.levels_top[i];
                    for p in nodes[i].preds() {
                        let pl = &mut this.levels_top[p.index()];
                        *pl = (*pl).max(l + 1);
                    }
                }
                this
            }
        }

        /// A cover graph as the reference builds it.
        pub struct RefGraph {
            pub nodes: Vec<RefNode>,
            pub dead: BitSet,
            pub value_of_orig: Vec<Option<CnId>>,
            pub live_out: Vec<(NodeId, Operand)>,
            pub bus_usage: Vec<usize>,
            pub indexes: Indexes,
        }

        impl RefGraph {
            pub(super) fn build(
                dag: &BlockDag,
                sndag: &SplitNodeDag,
                target: &Target,
                assignment: &Assignment,
            ) -> RefGraph {
                let mut b = GraphBuilder {
                    dag,
                    sndag,
                    target,
                    assignment,
                    nodes: Vec::new(),
                    value_of_orig: vec![None; dag.len()],
                    n_banks: target.machine.banks().len(),
                    move_cache: Vec::new(),
                    loadvar_cache: Vec::new(),
                    mem_cn: vec![None; dag.len()],
                    loads_by_sym: Vec::new(),
                    stores_by_sym: Vec::new(),
                    bus_usage: vec![0; target.machine.buses().len()],
                };
                b.run();

                // Live-outs: branch conditions / return values must sit in a
                // register (or be immediates) at block end. A live-out that is a
                // plain input leaf gets loaded into the bank nearest memory.
                let mut live_out = Vec::new();
                for &(_, orig) in dag.live_outs() {
                    let operand = match dag.node(orig).op {
                        Op::Const => {
                            Operand::Imm(dag.node(orig).imm.expect("validated: const has imm"))
                        }
                        Op::Input => {
                            let bank = target.load_bank.expect("machine has banks");
                            b.resolve(orig, bank)
                        }
                        _ => Operand::Cn(
                            b.value_of_orig[orig.index()].expect("live-out value was materialized"),
                        ),
                    };
                    live_out.push((orig, operand));
                }

                let n = b.nodes.len();
                let dead = BitSet::new(n);
                let indexes = Indexes::of(&b.nodes, &dead);
                RefGraph {
                    nodes: b.nodes,
                    dead,
                    value_of_orig: b.value_of_orig,
                    live_out,
                    bus_usage: b.bus_usage,
                    indexes,
                }
            }
        }

        struct GraphBuilder<'a> {
            dag: &'a BlockDag,
            sndag: &'a SplitNodeDag,
            target: &'a Target,
            assignment: &'a Assignment,
            nodes: Vec<RefNode>,
            value_of_orig: Vec<Option<CnId>>,
            /// Bank count — the row stride of the two flat transfer caches.
            n_banks: usize,
            /// `producer.index() * n_banks + bank.index()` → chain tail. Flat and
            /// index-keyed: the builder probes it once per operand it resolves,
            /// so it must be a plain array lookup, not a hash probe. Grown on
            /// demand as nodes are appended.
            move_cache: Vec<Option<CnId>>,
            /// `sym.index() * n_banks + bank.index()` → chain tail; grown on
            /// demand (the builder never sees the symbol table's size).
            loadvar_cache: Vec<Option<CnId>>,
            /// Original memory node → cover node (for serialization edges),
            /// indexed by `NodeId`.
            mem_cn: Vec<Option<CnId>>,
            /// Entry-value loads per variable (LoadVar nodes only, not the moves
            /// behind them) — write-backs of the same variable must follow them.
            /// Indexed by `Sym`, grown on demand.
            loads_by_sym: Vec<Vec<CnId>>,
            /// Write-backs per variable.
            stores_by_sym: Vec<(Sym, CnId)>,
            bus_usage: Vec<usize>,
        }

        impl<'a> GraphBuilder<'a> {
            /// Cached transfer-chain tail ferrying `producer` into `bank`.
            fn move_cached(&self, producer: CnId, bank: BankId) -> Option<CnId> {
                let idx = producer.index() * self.n_banks + bank.index();
                self.move_cache.get(idx).copied().flatten()
            }

            fn cache_move(&mut self, producer: CnId, bank: BankId, tail: CnId) {
                let idx = producer.index() * self.n_banks + bank.index();
                if idx >= self.move_cache.len() {
                    self.move_cache.resize(idx + 1, None);
                }
                self.move_cache[idx] = Some(tail);
            }

            /// Cached load-chain tail delivering `sym`'s entry value into `bank`.
            fn loadvar_cached(&self, sym: Sym, bank: BankId) -> Option<CnId> {
                let idx = sym.index() * self.n_banks + bank.index();
                self.loadvar_cache.get(idx).copied().flatten()
            }

            fn cache_loadvar(&mut self, sym: Sym, bank: BankId, tail: CnId) {
                let idx = sym.index() * self.n_banks + bank.index();
                if idx >= self.loadvar_cache.len() {
                    self.loadvar_cache.resize(idx + 1, None);
                }
                self.loadvar_cache[idx] = Some(tail);
            }

            fn record_load(&mut self, sym: Sym, load: CnId) {
                if sym.index() >= self.loads_by_sym.len() {
                    self.loads_by_sym.resize(sym.index() + 1, Vec::new());
                }
                self.loads_by_sym[sym.index()].push(load);
            }

            fn push(&mut self, kind: CnKind, args: Vec<Operand>) -> CnId {
                if let Resource::Bus(b) = (RefNode {
                    kind: kind.clone(),
                    args: vec![],
                    deps: vec![],
                })
                .resource()
                {
                    self.bus_usage[b.index()] += 1;
                }
                let id = CnId(self.nodes.len() as u32);
                self.nodes.push(RefNode {
                    kind,
                    args,
                    deps: Vec::new(),
                });
                id
            }

            /// Choose among equal-cost transfer paths by current bus pressure
            /// (§IV-B: "the cost function is based solely on parallelism").
            fn choose_path(&self, from: Location, to: Location) -> TransferPath {
                let paths = self.target.xfers.paths(from, to);
                assert!(!paths.is_empty(), "no transfer path {from} -> {to}");
                paths
                    .iter()
                    .min_by_key(|p| {
                        (
                            p.hops
                                .iter()
                                .map(|h| self.bus_usage[h.bus.index()])
                                .sum::<usize>(),
                            p.hops.first().map_or(0, |h| h.bus.0),
                        )
                    })
                    .expect("nonempty")
                    .clone()
            }

            /// Produce `orig`'s value in `bank`, inserting transfer chains.
            fn resolve(&mut self, orig: NodeId, bank: BankId) -> Operand {
                let n = self.dag.node(orig);
                match n.op {
                    Op::Const => Operand::Imm(n.imm.expect("validated: const has imm")),
                    Op::Input => {
                        let sym = n.sym.expect("validated: input has sym");
                        if let Some(t) = self.loadvar_cached(sym, bank) {
                            return Operand::Cn(t);
                        }
                        let path = self.choose_path(Location::Mem, Location::Bank(bank));
                        let mut cur: Option<CnId> = None;
                        for hop in &path.hops {
                            let id = match (hop.from, hop.to) {
                                (Location::Mem, Location::Bank(t)) => {
                                    // Intermediate banks are cacheable too.
                                    if let Some(c) = self.loadvar_cached(sym, t) {
                                        c
                                    } else {
                                        let c = self.push(
                                            CnKind::LoadVar {
                                                sym,
                                                bus: hop.bus,
                                                to: t,
                                            },
                                            Vec::new(),
                                        );
                                        self.cache_loadvar(sym, t, c);
                                        self.record_load(sym, c);
                                        c
                                    }
                                }
                                (Location::Bank(f), Location::Bank(t)) => {
                                    let prev = cur.expect("bank hop follows the memory hop");
                                    if let Some(c) = self.loadvar_cached(sym, t) {
                                        c
                                    } else {
                                        let c = self.push(
                                            CnKind::Move {
                                                bus: hop.bus,
                                                from: f,
                                                to: t,
                                            },
                                            vec![Operand::Cn(prev)],
                                        );
                                        self.cache_loadvar(sym, t, c);
                                        c
                                    }
                                }
                                _ => unreachable!("memory is never an intermediate hop"),
                            };
                            cur = Some(id);
                        }
                        Operand::Cn(cur.expect("path nonempty"))
                    }
                    _ => {
                        let producer = self.value_of_orig[orig.index()]
                            .expect("operands are materialized before consumers");
                        let pbank = self.nodes[producer.index()]
                            .dest_bank(self.target)
                            .expect("value-producing node");
                        if pbank == bank {
                            return Operand::Cn(producer);
                        }
                        if let Some(t) = self.move_cached(producer, bank) {
                            return Operand::Cn(t);
                        }
                        let path = self.choose_path(Location::Bank(pbank), Location::Bank(bank));
                        let mut cur = producer;
                        for hop in &path.hops {
                            let (Location::Bank(f), Location::Bank(t)) = (hop.from, hop.to) else {
                                unreachable!("memory is never an intermediate hop")
                            };
                            cur = if let Some(c) = self.move_cached(producer, t) {
                                c
                            } else {
                                let c = self.push(
                                    CnKind::Move {
                                        bus: hop.bus,
                                        from: f,
                                        to: t,
                                    },
                                    vec![Operand::Cn(cur)],
                                );
                                self.cache_move(producer, t, c);
                                c
                            };
                        }
                        Operand::Cn(cur)
                    }
                }
            }

            fn run(&mut self) {
                for (orig, n) in self.dag.iter() {
                    // Skipped: leaves (lazy), and nodes swallowed by a chosen
                    // complex (their value comes from the complex node, assigned
                    // when the root is processed — roots have larger ids).
                    if n.op.is_leaf() || self.assignment.complex_covered[orig.index()] {
                        continue;
                    }
                    match n.op {
                        Op::StoreVar => {
                            let sym = n.sym.expect("validated: store-var has sym");
                            let vnode = n.args[0];
                            let vop = self.dag.node(vnode).op;
                            if vop == Op::Const {
                                // Immediate store straight to memory.
                                let path = self.choose_path(
                                    // Any bank with a memory bus works; route from
                                    // the first bank on a memory path. Immediates
                                    // ride the bus directly.
                                    Location::Bank(BankId(0)),
                                    Location::Mem,
                                );
                                let bus = path.hops.last().expect("nonempty").bus;
                                let cn = self.push(
                                    CnKind::StoreVar {
                                        sym,
                                        bus,
                                        from: None,
                                    },
                                    vec![Operand::Imm(
                                        self.dag.node(vnode).imm.expect("validated: const has imm"),
                                    )],
                                );
                                self.mem_cn[orig.index()] = Some(cn);
                                self.stores_by_sym.push((sym, cn));
                                continue;
                            }
                            // Route the value to memory: intermediate hops are
                            // moves, the final hop is the store itself.
                            let producer_bank = if vop == Op::Input {
                                // Storing an unmodified input: load it somewhere
                                // first (degenerate but legal).
                                None
                            } else {
                                let p =
                                    self.value_of_orig[vnode.index()].expect("value materialized");
                                Some(
                                    self.nodes[p.index()]
                                        .dest_bank(self.target)
                                        .expect("value-producing node"),
                                )
                            };
                            let src_bank = match producer_bank {
                                Some(b) => b,
                                None => self.target.round_trip_bank.expect("machine has banks"),
                            };
                            let value = self.resolve(vnode, src_bank);
                            let path = self.choose_path(Location::Bank(src_bank), Location::Mem);
                            let mut cur = value;
                            let mut store_cn = None;
                            for (hi, hop) in path.hops.iter().enumerate() {
                                let is_last = hi + 1 == path.hops.len();
                                if is_last {
                                    let from = match hop.from {
                                        Location::Bank(b) => b,
                                        Location::Mem => unreachable!(),
                                    };
                                    let cn = self.push(
                                        CnKind::StoreVar {
                                            sym,
                                            bus: hop.bus,
                                            from: Some(from),
                                        },
                                        vec![cur],
                                    );
                                    self.stores_by_sym.push((sym, cn));
                                    store_cn = Some(cn);
                                } else {
                                    let (Location::Bank(f), Location::Bank(t)) = (hop.from, hop.to)
                                    else {
                                        unreachable!()
                                    };
                                    let cn = self.push(
                                        CnKind::Move {
                                            bus: hop.bus,
                                            from: f,
                                            to: t,
                                        },
                                        vec![cur],
                                    );
                                    cur = Operand::Cn(cn);
                                }
                            }
                            self.mem_cn[orig.index()] =
                                Some(store_cn.expect("store path nonempty"));
                        }
                        Op::Store | Op::Load => {
                            let ai = self.assignment.choice[orig.index()]
                                .expect("memory ops have chosen alternatives");
                            let alt = &self.sndag.alts(orig)[ai];
                            let (bus, bank) = match alt.exec {
                                aviv_splitdag::Exec::MemPort { bus, bank } => (bus, bank),
                                aviv_splitdag::Exec::Unit(_) => {
                                    unreachable!("memory ops use memory ports")
                                }
                            };
                            if n.op == Op::Load {
                                let addr = self.resolve(n.args[0], bank);
                                let cn = self.push(CnKind::LoadDyn { orig, bus, bank }, vec![addr]);
                                self.value_of_orig[orig.index()] = Some(cn);
                                self.mem_cn[orig.index()] = Some(cn);
                            } else {
                                let addr = self.resolve(n.args[0], bank);
                                let val = self.resolve(n.args[1], bank);
                                let cn = self
                                    .push(CnKind::StoreDyn { orig, bus, bank }, vec![addr, val]);
                                self.mem_cn[orig.index()] = Some(cn);
                            }
                        }
                        _ => {
                            let ai = self.assignment.choice[orig.index()]
                                .expect("operations have chosen alternatives");
                            let alt = &self.sndag.alts(orig)[ai];
                            let unit = match alt.exec {
                                aviv_splitdag::Exec::Unit(u) => u,
                                aviv_splitdag::Exec::MemPort { .. } => {
                                    unreachable!("pure ops execute on units")
                                }
                            };
                            let bank = self.target.machine.bank_of(unit);
                            match &alt.kind {
                                AltKind::Simple(op) => {
                                    let args: Vec<Operand> = n
                                        .args
                                        .clone()
                                        .into_iter()
                                        .map(|a| self.resolve(a, bank))
                                        .collect();
                                    let cn = self.push(
                                        CnKind::Op {
                                            orig,
                                            unit,
                                            op: *op,
                                        },
                                        args,
                                    );
                                    self.value_of_orig[orig.index()] = Some(cn);
                                }
                                AltKind::Complex { index, .. } => {
                                    let operands =
                                        self.sndag.complex_operands(alt).unwrap_or_default();
                                    let args: Vec<Operand> =
                                        operands.iter().map(|&a| self.resolve(a, bank)).collect();
                                    let cn = self.push(
                                        CnKind::Complex {
                                            orig,
                                            index: *index,
                                            unit,
                                        },
                                        args,
                                    );
                                    for &c in self.sndag.covers(alt) {
                                        self.value_of_orig[c.index()] = Some(cn);
                                    }
                                }
                                AltKind::DynLoad | AltKind::DynStore => {
                                    unreachable!("handled above")
                                }
                            }
                        }
                    }
                }
                // A variable's write-back must not overtake any same-block read
                // of its entry value (write-after-read on the variable's memory
                // cell). Loads have no inputs, so these edges cannot form cycles.
                for (sym, store_cn) in self.stores_by_sym.clone() {
                    for &load_cn in self.loads_by_sym.get(sym.index()).into_iter().flatten() {
                        if !self.nodes[store_cn.index()].deps.contains(&load_cn) {
                            self.nodes[store_cn.index()].deps.push(load_cn);
                        }
                    }
                }
                // Memory serialization edges.
                for &(earlier, later) in self.dag.mem_deps() {
                    if let (Some(a), Some(b)) =
                        (self.mem_cn[earlier.index()], self.mem_cn[later.index()])
                    {
                        if a != b && !self.nodes[b.index()].deps.contains(&a) {
                            self.nodes[b.index()].deps.push(a);
                        }
                    }
                }
            }
        }
    }

    /// The armed index check: while armed on a thread, every
    /// [`CoverGraph::rebuild_indexes`] compares the flat indexes with the
    /// reference's, computed from the same nodes. Mismatches are
    /// counted, not raised: the degradation ladder would catch a panic.
    pub(super) mod oracle {
        use super::super::*;
        use super::reference::{Indexes, RefNode};
        use std::cell::Cell;

        thread_local! {
            static ARMED: Cell<bool> = const { Cell::new(false) };
            /// Index rebuilds checked, and how many differed.
            static TALLY: Cell<(usize, usize)> = const { Cell::new((0, 0)) };
        }

        /// Run `f` with the check armed; returns the rebuilds it checked
        /// and how many differed.
        pub fn armed(f: impl FnOnce()) -> (usize, usize) {
            ARMED.with(|a| a.set(true));
            TALLY.with(|t| t.set((0, 0)));
            f();
            ARMED.with(|a| a.set(false));
            TALLY.with(Cell::get)
        }

        pub fn check_indexes(graph: &CoverGraph) {
            if !ARMED.with(Cell::get) {
                return;
            }
            let nodes: Vec<RefNode> = graph
                .nodes
                .iter()
                .map(|n| RefNode {
                    kind: n.kind.clone(),
                    args: n.args.to_vec(),
                    deps: n.deps.clone(),
                })
                .collect();
            let want = Indexes::of(&nodes, &graph.dead);
            let same = same_indexes(graph, &want).is_ok();
            TALLY.with(|t| {
                let (checked, differed) = t.get();
                t.set((checked + 1, differed + usize::from(!same)));
            });
        }

        /// The first way `graph`'s indexes differ from `want`: consumer
        /// lists, both level arrays, and the ancestor matrix behind
        /// [`CoverGraph::dependent`].
        pub fn same_indexes(graph: &CoverGraph, want: &Indexes) -> Result<(), String> {
            for i in 0..graph.len() {
                let id = CnId(i as u32);
                if graph.uses(id) != want.uses[i] {
                    return Err(format!("uses of {id}"));
                }
                if graph.level_top(id) != want.levels_top[i]
                    || graph.level_bottom(id) != want.levels_bottom[i]
                {
                    return Err(format!("levels of {id}"));
                }
            }
            if graph.desc != want.desc {
                return Err("ancestor matrix".into());
            }
            Ok(())
        }
    }

    /// The first way `graph` differs from the reference's `want`.
    fn same_graph(graph: &CoverGraph, want: &reference::RefGraph) -> Result<(), String> {
        if graph.len() != want.nodes.len() {
            return Err(format!("{} nodes, want {}", graph.len(), want.nodes.len()));
        }
        for (i, (got, want)) in graph.nodes().iter().zip(&want.nodes).enumerate() {
            if got.kind != want.kind || got.args[..] != want.args[..] || got.deps != want.deps {
                return Err(format!("node c{i}: {got:?}, want {want:?}"));
            }
        }
        if graph.dead != want.dead {
            return Err("dead set".into());
        }
        if graph.value_of_orig != want.value_of_orig {
            return Err("value_of_orig".into());
        }
        if graph.live_out != want.live_out {
            return Err("live-outs".into());
        }
        if graph.bus_usage != want.bus_usage {
            return Err("bus usage".into());
        }
        oracle::same_indexes(graph, &want.indexes)?;
        let n = graph.len();
        for i in 0..n {
            for j in 0..n {
                let desc = &want.indexes.desc;
                let dependent = desc.contains(i, j) || desc.contains(j, i);
                if graph.dependent(CnId(i as u32), CnId(j as u32)) != dependent {
                    return Err(format!("dependent(c{i}, c{j})"));
                }
            }
        }
        Ok(())
    }

    /// Seeded random blocks, plus two with variable write-backs,
    /// immediates and dynamic memory, so that every node kind and every
    /// ordering edge the builder adds is exercised.
    pub(crate) fn blocks() -> Vec<Function> {
        let mut blocks: Vec<Function> = [4, 6, 10]
            .into_iter()
            .flat_map(|n_ops| {
                let cfg = RandDagConfig {
                    n_ops,
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

    /// Every machine of `archs` that takes a register count, at two to
    /// four registers per bank, plus the accumulator DSP. `chained_arch`
    /// has multi-hop paths, `quad_vliw` two paths between any two places,
    /// `dsp_arch` carries ISDL constraints and the `mac` complex, and
    /// Wide a 2-wide bus.
    pub(crate) fn machines() -> impl Iterator<Item = aviv_isdl::Machine> {
        let makers = [
            archs::example_arch as fn(u32) -> _,
            archs::arch_two,
            archs::dsp_arch,
            archs::chained_arch,
            archs::single_alu,
            archs::wide_arch,
            archs::quad_vliw,
        ];
        (2..=4)
            .flat_map(move |regs| makers.map(|make| make(regs)))
            .chain([archs::accumulator_dsp()])
    }

    /// Steps a sequential cover may take in the oracle: one that spills
    /// without end on chained banks (see [`crate::cover_sequential`])
    /// stops here instead of re-indexing a graph of thousands of nodes.
    const SEQUENTIAL_FUEL: u64 = 200;

    /// Assignments per block, machine and preset covered sequentially
    /// with the index check armed: the first ones explored. Wide with the
    /// heuristics off explores tens of thousands per 10-op block, and
    /// every one of them is still built and compared.
    const SEQUENTIAL_COVERS: usize = 8;

    /// The builder against the [`reference`]: for every explored
    /// assignment, a fresh graph and one rebuilt in place over the
    /// previous assignment's graph both equal the reference's in every
    /// node, the builder's outputs and every index; and after every
    /// spill of a sequential cover of the fresh graph, the re-index
    /// equals the reference's on the same nodes.
    #[test]
    fn graphs_build_like_the_reference() {
        let blocks = blocks();
        let (mut graphs, mut spills, mut reindexed, mut differed) = (0, 0, 0, 0);
        for machine in machines() {
            let target = Target::new(machine);
            for (b, f) in blocks.iter().enumerate() {
                let dag = &f.blocks[0].dag;
                let Ok(sndag) = SplitNodeDag::build(dag, &target) else {
                    continue;
                };
                for options in [
                    CodegenOptions::heuristics_on(),
                    CodegenOptions::heuristics_off(),
                ] {
                    let mut reused = CoverGraph::default();
                    for (a, assignment) in explore(dag, &sndag, &target, &options)
                        .assignments
                        .iter()
                        .enumerate()
                    {
                        let what = format!("{} block {b} assignment {a}", target.machine.name);
                        let want = reference::RefGraph::build(dag, &sndag, &target, assignment);
                        let fresh = CoverGraph::try_build(dag, &sndag, &target, assignment)
                            .expect("explored assignments build");
                        reused
                            .try_rebuild(dag, &sndag, &target, assignment)
                            .expect("explored assignments build");
                        for graph in [&fresh, &reused] {
                            if let Err(e) = same_graph(graph, &want) {
                                panic!("{what}: {e}");
                            }
                        }
                        graphs += 1;
                        if a >= SEQUENTIAL_COVERS {
                            continue;
                        }

                        let mut graph = fresh;
                        let mut syms = f.syms.clone();
                        let (checked, bad) = oracle::armed(|| {
                            if let Ok(schedule) = cover_sequential_budgeted(
                                &mut graph,
                                &target,
                                &mut syms,
                                &Budget::new(Some(SEQUENTIAL_FUEL), None),
                            ) {
                                spills += schedule.spills.len();
                            }
                        });
                        reindexed += checked;
                        differed += bad;
                    }
                }
            }
        }
        assert_eq!(differed, 0, "{differed} of {reindexed} re-indexes differ");
        assert!(graphs > 500_000, "{graphs} graphs compared");
        assert!(
            spills > 5_000 && reindexed > 5_000,
            "{spills} spills, {reindexed} re-indexes checked"
        );
    }

    #[test]
    fn args_past_the_inline_capacity_move_to_the_heap() {
        let ops: Vec<Operand> = (0..7).map(Operand::Imm).collect();
        for len in 0..ops.len() {
            let mut args: Args = ops[..len].iter().copied().collect();
            assert_eq!(args[..], ops[..len]);
            assert_eq!(args, ops[..len].iter().copied().collect::<Args>());
            args.push(Operand::Cn(CnId(9)));
            assert_eq!(args.len(), len + 1);
            assert_eq!(args.last(), Some(&Operand::Cn(CnId(9))));
            args[0] = Operand::Imm(-1);
            assert_eq!(args[0], Operand::Imm(-1));
        }
    }
}
