//! The Split-Node DAG (paper §III).
//!
//! "The Split-Node DAG representation contains all the necessary
//! information to generate code that will perform the operations of the
//! original basic block DAG on the target processor." For every operation
//! node of the original DAG it holds a *split node* whose children are the
//! alternative implementations (one per capable functional unit, plus any
//! matched complex instructions), and on every producer→consumer path that
//! crosses storage locations it holds explicit *data transfer nodes* —
//! including multi-hop chains when no direct path exists.
//!
//! Value residence model (matching the paper's cost examples in §IV-A,
//! where an ADD pays "2 for the two transfers required to load its
//! operands"):
//!
//! * named-variable leaves live in data memory — consuming them costs a
//!   memory→bank transfer;
//! * constants are instruction immediates — free everywhere, no register;
//! * an operation's operands must reside in the executing unit's own
//!   register file, and its result lands there;
//! * store roots move a value from its bank to memory;
//! * dynamic loads/stores are bus operations: a dynamic load picks a
//!   destination bank (a real alternative); its address — and a dynamic
//!   store's address and value — must reside in that bank.

use crate::patterns::{match_into, ComplexMatch};
use aviv_ir::{BlockDag, NodeId, Op};
use aviv_isdl::{BankId, BusId, Hop, Location, Target, UnitId};
use std::cell::RefCell;
use std::error::Error;
use std::fmt;

/// Index of a node in a [`SplitNodeDag`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct SnId(pub u32);

impl SnId {
    /// Raw vector index.
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Display for SnId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "s{}", self.0)
    }
}

/// What a Split-Node-DAG node is.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SnKind {
    /// The split node of an original operation node.
    Split {
        /// The original node.
        orig: NodeId,
    },
    /// An implementation alternative: `orig` executed on `unit`.
    Alt {
        /// The original node.
        orig: NodeId,
        /// The executing unit.
        unit: UnitId,
        /// The operation performed.
        op: Op,
    },
    /// A complex-instruction alternative rooted at `orig`.
    ComplexAlt {
        /// The original root node.
        orig: NodeId,
        /// Index into the machine's complex-instruction list.
        complex: usize,
        /// The executing unit.
        unit: UnitId,
    },
    /// A dynamic-load alternative: bus `bus` reads memory into `bank`.
    MemAlt {
        /// The original `Load` node.
        orig: NodeId,
        /// The bus performing the access.
        bus: BusId,
        /// The destination register bank.
        bank: BankId,
    },
    /// A data transfer over `bus` from `from` to `to`.
    Transfer {
        /// Bus carrying the transfer.
        bus: BusId,
        /// Source location.
        from: Location,
        /// Destination location.
        to: Location,
    },
    /// A named-variable input leaf (resident in memory).
    Leaf {
        /// The original node.
        orig: NodeId,
    },
    /// A constant leaf (an instruction immediate).
    Imm {
        /// The original node.
        orig: NodeId,
    },
    /// A store root (named or dynamic) moving a value to memory over
    /// `bus`.
    StoreNode {
        /// The original store node.
        orig: NodeId,
        /// The bus performing the store.
        bus: BusId,
        /// The bank the stored value (and dynamic address) must be in.
        bank: BankId,
    },
}

/// One node of the Split-Node DAG. Its downward edges are read through
/// [`SplitNodeDag::ports`], grouped by input port:
/// * `Split` — port 0 lists the alternatives;
/// * `Alt`/`ComplexAlt` — port `k` lists the possible suppliers of
///   operand `k` (producer alternatives, transfer-chain tails, leaves,
///   immediates);
/// * `MemAlt` — port 0 the suppliers of the address;
/// * `Transfer` — port 0 the single supplier it forwards;
/// * `StoreNode` — suppliers of the stored value (and for dynamic
///   stores, port 0 the address, port 1 the value);
/// * `Leaf`/`Imm` — no ports.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SnNode {
    /// The node kind.
    pub kind: SnKind,
    /// Half-open range of this node's ports in the DAG's port table.
    ports: (u32, u32),
}

/// How an alternative executes: the resource it occupies.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Exec {
    /// A functional-unit slot.
    Unit(UnitId),
    /// A bus slot reading/writing memory into/from `bank`.
    MemPort {
        /// The bus used.
        bus: BusId,
        /// The register bank accessed.
        bank: BankId,
    },
}

/// What an alternative computes.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum AltKind {
    /// A single machine operation.
    Simple(Op),
    /// A complex instruction covering several original nodes.
    Complex {
        /// Index into the machine's complex list.
        index: usize,
        /// Index of its match in [`SplitNodeDag::matches`], which holds
        /// the nodes it covers and its operands
        /// ([`SplitNodeDag::covers`], [`SplitNodeDag::complex_operands`]).
        matched: usize,
    },
    /// A dynamic memory load (operand = address).
    DynLoad,
    /// A dynamic memory store (operands = address, value); produces no
    /// value.
    DynStore,
}

/// Compact description of one implementation alternative, used by the
/// covering engine.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct AltInfo {
    /// The Split-Node-DAG node of this alternative.
    pub sn: SnId,
    /// The execution resource.
    pub exec: Exec,
    /// What it computes.
    pub kind: AltKind,
}

impl AltInfo {
    /// The register bank where operands must reside and the result lands.
    pub fn home_bank(&self, target: &Target) -> BankId {
        match self.exec {
            Exec::Unit(u) => target.machine.bank_of(u),
            Exec::MemPort { bank, .. } => bank,
        }
    }
}

/// Error from Split-Node-DAG construction.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SplitDagError {
    /// An operation has no capable unit and is not covered by any complex
    /// instruction: the block cannot be implemented on this machine.
    UnsupportedOp {
        /// The impossible operation.
        op: Op,
        /// The node carrying it.
        node: NodeId,
    },
    /// A dynamic memory operation found no bus connecting a bank to
    /// memory (cannot occur on a validated machine, kept for robustness).
    NoMemoryPath {
        /// The node needing the access.
        node: NodeId,
    },
}

impl fmt::Display for SplitDagError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SplitDagError::UnsupportedOp { op, node } => {
                write!(
                    f,
                    "operation {op} at {node} has no implementation on this machine"
                )
            }
            SplitDagError::NoMemoryPath { node } => {
                write!(f, "no bus reaches memory for node {node}")
            }
        }
    }
}

impl Error for SplitDagError {}

/// Statistics reported in the paper's tables and figures.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SplitDagStats {
    /// Nodes in the original basic-block DAG.
    pub orig_nodes: usize,
    /// Total Split-Node DAG nodes (the tables' "Split-Node DAG #Nodes").
    pub sn_nodes: usize,
    /// Split nodes.
    pub split_nodes: usize,
    /// Implementation alternatives (unit + memport).
    pub alt_nodes: usize,
    /// Complex-instruction alternatives.
    pub complex_alts: usize,
    /// Data-transfer nodes.
    pub transfer_nodes: usize,
    /// Leaf + immediate nodes.
    pub leaf_nodes: usize,
    /// Store nodes.
    pub store_nodes: usize,
    /// Size of the functional-unit assignment space (product of per-node
    /// alternative counts, as in §IV-A's `2 × 2 × 3`), saturating.
    pub assignment_space: u128,
}

/// The Split-Node DAG for one basic block on one target.
///
/// Every list lives in one flat arena with per-owner ranges instead of
/// a heap vector per node: building a block's DAG allocates a fixed
/// number of buffers (plus its complex matches), whatever its size.
#[derive(Debug, Clone)]
pub struct SplitNodeDag {
    nodes: Vec<SnNode>,
    /// Half-open range into `suppliers` of every port, grouped by node
    /// in node order: [`SnNode::ports`] slices this table.
    ports: Vec<(u32, u32)>,
    /// The downward edges of every port, port after port.
    suppliers: Vec<SnId>,
    /// Split node of each original node (ops only).
    split_of: Vec<Option<SnId>>,
    /// Alternatives of all original nodes (ops and dynamic loads),
    /// arena-flattened: `alt_ranges[orig]` slices this one allocation.
    /// Assignment exploration walks these lists for every enumerated
    /// assignment, so they are contiguous instead of one heap vector per
    /// node.
    alts: Vec<AltInfo>,
    /// Half-open `(start, end)` range into `alts` per original node.
    alt_ranges: Vec<(u32, u32)>,
    /// Complex matches found on the block.
    matches: Vec<ComplexMatch>,
    /// The matches covering each original node as an interior, flattened
    /// like `alts`; both are empty when the block has no match.
    covered_by: Vec<usize>,
    /// Half-open `(start, end)` range into `covered_by` per node.
    covered_by_ranges: Vec<(u32, u32)>,
    /// Store-node alternatives of all original store nodes, flattened
    /// like `alts`.
    store_alts: Vec<SnId>,
    /// Half-open `(start, end)` range into `store_alts` per node.
    store_alt_ranges: Vec<(u32, u32)>,
}

/// The `(start, end)` slice of `arena`.
fn slice<T>(arena: &[T], (start, end): (u32, u32)) -> &[T] {
    &arena[start as usize..end as usize]
}

impl SplitNodeDag {
    /// Build the Split-Node DAG of `dag` for `target`.
    ///
    /// The builder works in buffers kept per thread, so once they have
    /// grown to the largest block built on the thread, a build allocates
    /// only the DAG it returns.
    ///
    /// # Errors
    ///
    /// Returns [`SplitDagError::UnsupportedOp`] when some operation can be
    /// implemented neither directly nor through a complex instruction.
    pub fn build(dag: &BlockDag, target: &Target) -> Result<SplitNodeDag, SplitDagError> {
        SCRATCH.with_borrow_mut(|scratch| {
            Builder {
                dag,
                target,
                s: scratch,
            }
            .run()
        })
    }

    /// All nodes.
    pub fn nodes(&self) -> &[SnNode] {
        &self.nodes
    }

    /// Access one node.
    pub fn node(&self, id: SnId) -> &SnNode {
        &self.nodes[id.index()]
    }

    /// The input ports of node `id`, in port order, each listing its
    /// possible suppliers (see [`SnNode`] for what each kind's ports
    /// hold).
    pub fn ports(&self, id: SnId) -> impl ExactSizeIterator<Item = &[SnId]> + '_ {
        slice(&self.ports, self.nodes[id.index()].ports)
            .iter()
            .map(|&range| slice(&self.suppliers, range))
    }

    /// Number of Split-Node-DAG nodes.
    pub fn len(&self) -> usize {
        self.nodes.len()
    }

    /// True when empty (an empty block).
    pub fn is_empty(&self) -> bool {
        self.nodes.is_empty()
    }

    /// Implementation alternatives of an original node (empty for leaves
    /// and stores).
    pub fn alts(&self, orig: NodeId) -> &[AltInfo] {
        slice(&self.alts, self.alt_ranges[orig.index()])
    }

    /// The split node of an original operation node.
    pub fn split_of(&self, orig: NodeId) -> Option<SnId> {
        self.split_of[orig.index()]
    }

    /// All complex matches found on the block.
    pub fn matches(&self) -> &[ComplexMatch] {
        &self.matches
    }

    /// The original nodes `alt` covers, root first, for a complex
    /// alternative of this DAG; empty for any other alternative.
    pub fn covers(&self, alt: &AltInfo) -> &[NodeId] {
        match alt.kind {
            AltKind::Complex { matched, .. } => &self.matches[matched].covers,
            _ => &[],
        }
    }

    /// The original nodes feeding the pattern operands of `alt`, a
    /// complex alternative of this DAG; `None` for any other alternative.
    pub fn complex_operands(&self, alt: &AltInfo) -> Option<&[NodeId]> {
        match alt.kind {
            AltKind::Complex { matched, .. } => Some(&self.matches[matched].operands),
            _ => None,
        }
    }

    /// Matches covering `orig` as a swallowed interior node.
    pub fn covering_matches(&self, orig: NodeId) -> &[usize] {
        match self.covered_by_ranges.get(orig.index()) {
            Some(&range) => slice(&self.covered_by, range),
            None => &[],
        }
    }

    /// Statistics for the paper's table columns.
    pub fn stats(&self, dag: &BlockDag) -> SplitDagStats {
        let mut s = SplitDagStats {
            orig_nodes: dag.len(),
            sn_nodes: self.nodes.len(),
            split_nodes: 0,
            alt_nodes: 0,
            complex_alts: 0,
            transfer_nodes: 0,
            leaf_nodes: 0,
            store_nodes: 0,
            assignment_space: 1,
        };
        for n in &self.nodes {
            match n.kind {
                SnKind::Split { .. } => s.split_nodes += 1,
                SnKind::Alt { .. } | SnKind::MemAlt { .. } => s.alt_nodes += 1,
                SnKind::ComplexAlt { .. } => s.complex_alts += 1,
                SnKind::Transfer { .. } => s.transfer_nodes += 1,
                SnKind::Leaf { .. } | SnKind::Imm { .. } => s.leaf_nodes += 1,
                SnKind::StoreNode { .. } => s.store_nodes += 1,
            }
        }
        for &(start, end) in &self.alt_ranges {
            if end > start {
                s.assignment_space = s.assignment_space.saturating_mul(u128::from(end - start));
            }
        }
        s
    }

    /// Render the Split-Node DAG as indented text (the figures binary uses
    /// this to regenerate the paper's Fig. 4).
    pub fn render(&self, dag: &BlockDag, target: &Target) -> String {
        let mut out = String::new();
        for (i, n) in self.nodes.iter().enumerate() {
            let id = SnId(i as u32);
            let desc = match &n.kind {
                SnKind::Split { orig } => {
                    format!("split[{orig}:{}]", dag.node(*orig).op)
                }
                SnKind::Alt { orig, unit, op } => {
                    format!("alt[{orig}] {} on {}", op, target.machine.unit(*unit).name)
                }
                SnKind::ComplexAlt {
                    orig,
                    complex,
                    unit,
                } => format!(
                    "complex[{orig}] {} on {}",
                    target.machine.complexes()[*complex].name,
                    target.machine.unit(*unit).name
                ),
                SnKind::MemAlt { orig, bus, bank } => format!(
                    "dynload[{orig}] via {} into {}",
                    target.machine.bus(*bus).name,
                    target.machine.bank(*bank).name
                ),
                SnKind::Transfer { bus, from, to } => format!(
                    "xfer {} -> {} via {}",
                    loc_name(target, *from),
                    loc_name(target, *to),
                    target.machine.bus(*bus).name
                ),
                SnKind::Leaf { orig } => format!("leaf[{orig}] (in DM)"),
                SnKind::Imm { orig } => {
                    format!("imm[{orig}] = {}", dag.node(*orig).imm.unwrap())
                }
                SnKind::StoreNode { orig, bus, bank } => format!(
                    "store[{orig}] from {} via {}",
                    target.machine.bank(*bank).name,
                    target.machine.bus(*bus).name
                ),
            };
            let ports: Vec<String> = self
                .ports(id)
                .map(|p| {
                    let items: Vec<String> =
                        p.iter().map(std::string::ToString::to_string).collect();
                    format!("[{}]", items.join(" "))
                })
                .collect();
            out.push_str(&format!("{id}: {desc} {}\n", ports.join(" ")));
        }
        out
    }

    /// Store alternatives (one per usable memory bus) of a store node.
    pub fn store_alts(&self, orig: NodeId) -> &[SnId] {
        slice(&self.store_alts, self.store_alt_ranges[orig.index()])
    }
}

fn loc_name(target: &Target, loc: Location) -> String {
    match loc {
        Location::Bank(b) => target.machine.bank(b).name.clone(),
        Location::Mem => "DM".to_string(),
    }
}

/// No node: the end of a transfer-sharing list.
const NO_SN: u32 = u32::MAX;

/// Buffers reused by every Split-Node DAG built on a thread: the DAG
/// under construction (copied out at exactly its size) and the
/// builder's own bookkeeping.
#[derive(Debug, Default)]
struct Scratch {
    matches: Vec<ComplexMatch>,
    nodes: Vec<SnNode>,
    ports: Vec<(u32, u32)>,
    suppliers: Vec<SnId>,
    alts: Vec<AltInfo>,
    /// Buses that touch memory, with the banks they serve.
    mem_ports: Vec<(BusId, BankId)>,
    /// The ports of the node being built, which transfer nodes pushed
    /// while they are gathered would otherwise interleave with:
    /// `pending` holds their suppliers and `pending_ends` each port's
    /// end in it.
    pending: Vec<SnId>,
    pending_ends: Vec<u32>,
    /// Supplier list per original value node, `where_from[orig]` slicing
    /// `sources`: (sn node, where the value is). `None` location means
    /// instruction immediate. A node's suppliers are all created while
    /// the node is built, so each list is contiguous.
    sources: Vec<(SnId, Option<Location>)>,
    where_from: Vec<(u32, u32)>,
    /// Transfer-node sharing, parallel to `nodes`: the last transfer
    /// created out of each node, and for a transfer the one created out
    /// of the same supplier before it. A supplier's transfers differ in
    /// `(bus, to)`, and its location fixes their `from`.
    xfer_head: Vec<u32>,
    xfer_next: Vec<u32>,
}

thread_local! {
    static SCRATCH: RefCell<Scratch> = RefCell::new(Scratch::default());
}

struct Builder<'a> {
    dag: &'a BlockDag,
    target: &'a Target,
    s: &'a mut Scratch,
}

impl Builder<'_> {
    /// Push a node whose ports are the pending ones.
    fn push(&mut self, kind: SnKind) -> SnId {
        let s = &mut *self.s;
        let id = SnId(s.nodes.len() as u32);
        let first = s.ports.len() as u32;
        let mut start = 0;
        for &end in &s.pending_ends {
            let at = s.suppliers.len() as u32;
            s.suppliers
                .extend_from_slice(&s.pending[start as usize..end as usize]);
            s.ports.push((at, s.suppliers.len() as u32));
            start = end;
        }
        s.pending.clear();
        s.pending_ends.clear();
        s.nodes.push(SnNode {
            kind,
            ports: (first, s.ports.len() as u32),
        });
        s.xfer_head.push(NO_SN);
        s.xfer_next.push(NO_SN);
        id
    }

    /// The transfer over `hop` out of `from`, shared by every port that
    /// routes `from`'s value along it.
    fn transfer(&mut self, from: SnId, hop: Hop) -> SnId {
        let s = &*self.s;
        let mut t = s.xfer_head[from.index()];
        while t != NO_SN {
            if let SnKind::Transfer { bus, to, .. } = s.nodes[t as usize].kind {
                if (bus, to) == (hop.bus, hop.to) {
                    return SnId(t);
                }
            }
            t = s.xfer_next[t as usize];
        }
        // A new transfer goes straight into the tables with its single
        // port, forwarding `from`; the pending ports stay pending.
        let s = &mut *self.s;
        let id = SnId(s.nodes.len() as u32);
        let at = s.suppliers.len() as u32;
        s.suppliers.push(from);
        let first = s.ports.len() as u32;
        s.ports.push((at, at + 1));
        s.nodes.push(SnNode {
            kind: SnKind::Transfer {
                bus: hop.bus,
                from: hop.from,
                to: hop.to,
            },
            ports: (first, first + 1),
        });
        s.xfer_head.push(NO_SN);
        s.xfer_next.push(s.xfer_head[from.index()]);
        s.xfer_head[from.index()] = id.0;
        id
    }

    /// Append to the pending ports one port holding the suppliers of
    /// `orig`'s value into `dest`: direct when already there (or an
    /// immediate), otherwise through shared transfer chains along every
    /// stored shortest path.
    fn port_into(&mut self, orig: NodeId, dest: Location) {
        let (start, end) = self.s.where_from[orig.index()];
        for k in start..end {
            let (sup, loc) = self.s.sources[k as usize];
            match loc {
                None => self.s.pending.push(sup), // immediate: free anywhere
                Some(l) if l == dest => self.s.pending.push(sup),
                Some(l) => {
                    for path in self.target.xfers.paths(l, dest) {
                        let mut cur = sup;
                        for &hop in &path.hops {
                            cur = self.transfer(cur, hop);
                        }
                        self.s.pending.push(cur);
                    }
                }
            }
        }
        let end = self.s.pending.len() as u32;
        self.s.pending_ends.push(end);
    }

    /// Record `sn` as a supplier of `orig`'s value at `loc`.
    fn supply(&mut self, orig: NodeId, sn: SnId, loc: Option<Location>) {
        let s = &mut *self.s;
        let range = &mut s.where_from[orig.index()];
        if range.0 == range.1 {
            let at = s.sources.len() as u32;
            *range = (at, at);
        }
        s.sources.push((sn, loc));
        range.1 += 1;
    }

    fn run(mut self) -> Result<SplitNodeDag, SplitDagError> {
        let (dag, target) = (self.dag, self.target);
        let machine = &target.machine;
        let n = dag.len();
        let s = &mut *self.s;
        s.matches.clear();
        match_into(dag, target, &mut s.matches);
        s.nodes.clear();
        s.ports.clear();
        s.suppliers.clear();
        s.alts.clear();
        s.pending.clear();
        s.pending_ends.clear();
        s.sources.clear();
        s.where_from.clear();
        s.where_from.resize(n, (0, 0));
        s.xfer_head.clear();
        s.xfer_next.clear();
        s.mem_ports.clear();
        for (bi, bus) in machine.buses().iter().enumerate() {
            if bus.endpoints.contains(&Location::Mem) {
                s.mem_ports
                    .extend(bus.endpoints.iter().filter_map(|&e| match e {
                        Location::Bank(b) => Some((BusId(bi as u32), b)),
                        Location::Mem => None,
                    }));
            }
        }
        let mut covered_by_ranges = Vec::new();
        let mut covered_by = Vec::new();
        if !s.matches.is_empty() {
            // Counting sort of the interiors by node, in match order.
            covered_by_ranges.resize(n, (0, 0));
            for m in &s.matches {
                for &c in m.covers.iter().filter(|&&c| c != m.root) {
                    covered_by_ranges[c.index()].1 += 1;
                }
            }
            let mut at = 0;
            for range in &mut covered_by_ranges {
                let count = range.1;
                *range = (at, at);
                at += count;
            }
            covered_by.resize(at as usize, 0);
            for (mi, m) in s.matches.iter().enumerate() {
                for &c in m.covers.iter().filter(|&&c| c != m.root) {
                    let range = &mut covered_by_ranges[c.index()];
                    covered_by[range.1 as usize] = mi;
                    range.1 += 1;
                }
            }
        }

        let mut split_of = vec![None; n];
        let mut alt_ranges = Vec::with_capacity(n);
        let mut store_alts = Vec::new();
        let mut store_alt_ranges = Vec::with_capacity(n);
        // The first match not rooted before the current node.
        let mut next_match = 0;
        for (id, node) in dag.iter() {
            let alts_start = self.s.alts.len() as u32;
            let stores_start = store_alts.len() as u32;
            match node.op {
                Op::Const => {
                    let sn = self.push(SnKind::Imm { orig: id });
                    self.supply(id, sn, None);
                }
                Op::Input => {
                    let sn = self.push(SnKind::Leaf { orig: id });
                    self.supply(id, sn, Some(Location::Mem));
                }
                Op::Load => {
                    // Dynamic load: one alternative per (bus, bank) memory
                    // port; the address must be in the destination bank.
                    if self.s.mem_ports.is_empty() {
                        return Err(SplitDagError::NoMemoryPath { node: id });
                    }
                    for k in 0..self.s.mem_ports.len() {
                        let (bus, bank) = self.s.mem_ports[k];
                        self.port_into(node.args[0], Location::Bank(bank));
                        let sn = self.push(SnKind::MemAlt {
                            orig: id,
                            bus,
                            bank,
                        });
                        self.s.alts.push(AltInfo {
                            sn,
                            exec: Exec::MemPort { bus, bank },
                            kind: AltKind::DynLoad,
                        });
                        self.supply(id, sn, Some(Location::Bank(bank)));
                    }
                    split_of[id.index()] = Some(self.split(id, alts_start));
                }
                Op::Store => {
                    // Dynamic store: address and value must both sit in
                    // the bank whose memory port performs the store.
                    if self.s.mem_ports.is_empty() {
                        return Err(SplitDagError::NoMemoryPath { node: id });
                    }
                    for k in 0..self.s.mem_ports.len() {
                        let (bus, bank) = self.s.mem_ports[k];
                        self.port_into(node.args[0], Location::Bank(bank));
                        self.port_into(node.args[1], Location::Bank(bank));
                        let sn = self.push(SnKind::StoreNode {
                            orig: id,
                            bus,
                            bank,
                        });
                        store_alts.push(sn);
                        // A dynamic store chooses its memory port: that is
                        // a real assignment decision, so it participates
                        // in the alternatives table.
                        self.s.alts.push(AltInfo {
                            sn,
                            exec: Exec::MemPort { bus, bank },
                            kind: AltKind::DynStore,
                        });
                    }
                }
                Op::StoreVar => {
                    // The stored value travels bank→memory; the transfer
                    // machinery handles path choice, so a single store
                    // node per memory bus suffices (value port already
                    // fans over producer alternatives). We anchor it on
                    // the value's possible final hop into memory.
                    self.port_into(node.args[0], Location::Mem);
                    // Use the first memory bus for bookkeeping; the actual
                    // bus is determined by the chosen transfer path.
                    let (bus, bank) = self
                        .s
                        .mem_ports
                        .first()
                        .copied()
                        .unwrap_or((BusId(0), BankId(0)));
                    let sn = self.push(SnKind::StoreNode {
                        orig: id,
                        bus,
                        bank,
                    });
                    store_alts.push(sn);
                }
                op => {
                    // Regular operation: one alternative per capable unit
                    // plus complex alternatives rooted here.
                    for &unit in target.ops.units_for(op) {
                        let bank = machine.bank_of(unit);
                        for &a in &node.args {
                            self.port_into(a, Location::Bank(bank));
                        }
                        let sn = self.push(SnKind::Alt { orig: id, unit, op });
                        self.s.alts.push(AltInfo {
                            sn,
                            exec: Exec::Unit(unit),
                            kind: AltKind::Simple(op),
                        });
                        self.supply(id, sn, Some(Location::Bank(bank)));
                    }
                    // Complex alternatives rooted at this node. Matches come
                    // grouped by root in node order; any rooted at a dynamic
                    // load is skipped, as loads take no complex alternative.
                    while self.s.matches.get(next_match).is_some_and(|m| m.root < id) {
                        next_match += 1;
                    }
                    while let Some(m) = self.s.matches.get(next_match).filter(|m| m.root == id) {
                        let (complex, unit) = (m.complex, machine.complexes()[m.complex].unit);
                        let kind = AltKind::Complex {
                            index: complex,
                            matched: next_match,
                        };
                        let bank = machine.bank_of(unit);
                        for k in 0..self.s.matches[next_match].operands.len() {
                            let a = self.s.matches[next_match].operands[k];
                            self.port_into(a, Location::Bank(bank));
                        }
                        let sn = self.push(SnKind::ComplexAlt {
                            orig: id,
                            complex,
                            unit,
                        });
                        self.s.alts.push(AltInfo {
                            sn,
                            exec: Exec::Unit(unit),
                            kind,
                        });
                        self.supply(id, sn, Some(Location::Bank(bank)));
                        next_match += 1;
                    }
                    if self.s.alts.len() as u32 == alts_start {
                        // No direct implementation. Acceptable only when
                        // some complex covers this node as an interior.
                        if covered_by_ranges
                            .get(id.index())
                            .is_none_or(|&(start, end)| start == end)
                        {
                            return Err(SplitDagError::UnsupportedOp { op, node: id });
                        }
                    } else {
                        split_of[id.index()] = Some(self.split(id, alts_start));
                    }
                }
            }
            alt_ranges.push((alts_start, self.s.alts.len() as u32));
            store_alt_ranges.push((stores_start, store_alts.len() as u32));
        }
        let s = &mut *self.s;
        Ok(SplitNodeDag {
            nodes: s.nodes.drain(..).collect(),
            ports: s.ports.drain(..).collect(),
            suppliers: s.suppliers.drain(..).collect(),
            split_of,
            alts: s.alts.drain(..).collect(),
            alt_ranges,
            matches: s.matches.drain(..).collect(),
            covered_by,
            covered_by_ranges,
            store_alts,
            store_alt_ranges,
        })
    }

    /// Push the split node of `orig` over its alternatives from
    /// `alts_start` on.
    fn split(&mut self, orig: NodeId, alts_start: u32) -> SnId {
        let s = &mut *self.s;
        s.pending
            .extend(s.alts[alts_start as usize..].iter().map(|a| a.sn));
        s.pending_ends.push(s.pending.len() as u32);
        self.push(SnKind::Split { orig })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use aviv_ir::parse_function;
    use aviv_isdl::archs;

    fn build(src: &str, machine: aviv_isdl::Machine) -> (aviv_ir::Function, Target, SplitNodeDag) {
        let f = parse_function(src).unwrap();
        let target = Target::new(machine);
        let sn = SplitNodeDag::build(&f.blocks[0].dag, &target).unwrap();
        (f, target, sn)
    }

    /// The builder the flat one replaced, kept as the oracle's
    /// reference: a port vector per node, a supplier vector per original
    /// node, a hash map sharing transfers, and each path list copied
    /// before it is walked.
    mod reference {
        use crate::patterns::tests::reference::match_complexes;
        use crate::patterns::ComplexMatch;
        use crate::sndag::{AltInfo, AltKind, Exec, SnId, SnKind, SplitDagError};
        use aviv_ir::{BlockDag, NodeId, Op};
        use aviv_isdl::{BankId, BusId, Location, Target};
        use std::collections::HashMap;

        /// A Split-Node DAG in the per-node layout.
        pub(super) struct Reference {
            pub(super) nodes: Vec<(SnKind, Vec<Vec<SnId>>)>,
            pub(super) split_of: Vec<Option<SnId>>,
            pub(super) alts: Vec<Vec<AltInfo>>,
            pub(super) matches: Vec<ComplexMatch>,
            pub(super) covered_by: Vec<Vec<usize>>,
            pub(super) store_alts: Vec<Vec<SnId>>,
        }

        struct Builder<'a> {
            dag: &'a BlockDag,
            target: &'a Target,
            out: Reference,
            suppliers: Vec<Vec<(SnId, Option<Location>)>>,
            xfer_cache: HashMap<(SnId, BusId, Location), SnId>,
        }

        pub(super) fn build(dag: &BlockDag, target: &Target) -> Result<Reference, SplitDagError> {
            let matches = match_complexes(dag, target);
            let mut covered_by = vec![Vec::new(); dag.len()];
            for (mi, m) in matches.iter().enumerate() {
                for &c in &m.covers {
                    if c != m.root {
                        covered_by[c.index()].push(mi);
                    }
                }
            }
            Builder {
                dag,
                target,
                out: Reference {
                    nodes: Vec::new(),
                    split_of: vec![None; dag.len()],
                    alts: vec![Vec::new(); dag.len()],
                    matches,
                    covered_by,
                    store_alts: vec![Vec::new(); dag.len()],
                },
                suppliers: vec![Vec::new(); dag.len()],
                xfer_cache: HashMap::new(),
            }
            .run()
        }

        impl Builder<'_> {
            fn push(&mut self, kind: SnKind, ports: Vec<Vec<SnId>>) -> SnId {
                let id = SnId(self.out.nodes.len() as u32);
                self.out.nodes.push((kind, ports));
                id
            }

            fn port_into(&mut self, orig: NodeId, dest: Location) -> Vec<SnId> {
                let suppliers = self.suppliers[orig.index()].clone();
                let mut port = Vec::new();
                for (sup, loc) in suppliers {
                    match loc {
                        None => port.push(sup),
                        Some(l) if l == dest => port.push(sup),
                        Some(l) => {
                            let paths: Vec<_> = self.target.xfers.paths(l, dest).to_vec();
                            for path in paths {
                                let mut cur = sup;
                                for hop in &path.hops {
                                    let key = (cur, hop.bus, hop.to);
                                    cur = match self.xfer_cache.get(&key) {
                                        Some(&t) => t,
                                        None => {
                                            let t = self.push(
                                                SnKind::Transfer {
                                                    bus: hop.bus,
                                                    from: hop.from,
                                                    to: hop.to,
                                                },
                                                vec![vec![cur]],
                                            );
                                            self.xfer_cache.insert(key, t);
                                            t
                                        }
                                    };
                                }
                                port.push(cur);
                            }
                        }
                    }
                }
                port
            }

            fn run(mut self) -> Result<Reference, SplitDagError> {
                let machine = &self.target.machine;
                let mem_ports: Vec<(BusId, BankId)> = machine
                    .buses()
                    .iter()
                    .enumerate()
                    .flat_map(|(bi, bus)| {
                        if !bus.endpoints.contains(&Location::Mem) {
                            return Vec::new();
                        }
                        bus.endpoints
                            .iter()
                            .filter_map(|&e| match e {
                                Location::Bank(b) => Some((BusId(bi as u32), b)),
                                Location::Mem => None,
                            })
                            .collect::<Vec<_>>()
                    })
                    .collect();

                for (id, node) in self.dag.iter() {
                    let i = id.index();
                    match node.op {
                        Op::Const => {
                            let sn = self.push(SnKind::Imm { orig: id }, vec![]);
                            self.suppliers[i].push((sn, None));
                        }
                        Op::Input => {
                            let sn = self.push(SnKind::Leaf { orig: id }, vec![]);
                            self.suppliers[i].push((sn, Some(Location::Mem)));
                        }
                        Op::Load => {
                            if mem_ports.is_empty() {
                                return Err(SplitDagError::NoMemoryPath { node: id });
                            }
                            let mut alt_sns = Vec::new();
                            for &(bus, bank) in &mem_ports {
                                let addr = self.port_into(node.args[0], Location::Bank(bank));
                                let kind = SnKind::MemAlt {
                                    orig: id,
                                    bus,
                                    bank,
                                };
                                let sn = self.push(kind, vec![addr]);
                                alt_sns.push(sn);
                                self.out.alts[i].push(AltInfo {
                                    sn,
                                    exec: Exec::MemPort { bus, bank },
                                    kind: AltKind::DynLoad,
                                });
                                self.suppliers[i].push((sn, Some(Location::Bank(bank))));
                            }
                            let split = self.push(SnKind::Split { orig: id }, vec![alt_sns]);
                            self.out.split_of[i] = Some(split);
                        }
                        Op::Store => {
                            if mem_ports.is_empty() {
                                return Err(SplitDagError::NoMemoryPath { node: id });
                            }
                            for &(bus, bank) in &mem_ports {
                                let addr = self.port_into(node.args[0], Location::Bank(bank));
                                let val = self.port_into(node.args[1], Location::Bank(bank));
                                let kind = SnKind::StoreNode {
                                    orig: id,
                                    bus,
                                    bank,
                                };
                                let sn = self.push(kind, vec![addr, val]);
                                self.out.store_alts[i].push(sn);
                                self.out.alts[i].push(AltInfo {
                                    sn,
                                    exec: Exec::MemPort { bus, bank },
                                    kind: AltKind::DynStore,
                                });
                            }
                        }
                        Op::StoreVar => {
                            let val = self.port_into(node.args[0], Location::Mem);
                            let (bus, bank) =
                                mem_ports.first().copied().unwrap_or((BusId(0), BankId(0)));
                            let kind = SnKind::StoreNode {
                                orig: id,
                                bus,
                                bank,
                            };
                            let sn = self.push(kind, vec![val]);
                            self.out.store_alts[i].push(sn);
                        }
                        op => {
                            let units = self.target.ops.units_for(op).to_vec();
                            let mut alt_sns = Vec::new();
                            for unit in units {
                                let bank = machine.bank_of(unit);
                                let ports: Vec<Vec<SnId>> = node
                                    .args
                                    .iter()
                                    .map(|&a| self.port_into(a, Location::Bank(bank)))
                                    .collect();
                                let sn = self.push(SnKind::Alt { orig: id, unit, op }, ports);
                                alt_sns.push(sn);
                                self.out.alts[i].push(AltInfo {
                                    sn,
                                    exec: Exec::Unit(unit),
                                    kind: AltKind::Simple(op),
                                });
                                self.suppliers[i].push((sn, Some(Location::Bank(bank))));
                            }
                            let rooted: Vec<usize> = self
                                .out
                                .matches
                                .iter()
                                .enumerate()
                                .filter(|(_, m)| m.root == id)
                                .map(|(mi, _)| mi)
                                .collect();
                            for mi in rooted {
                                let m = self.out.matches[mi].clone();
                                let unit = machine.complexes()[m.complex].unit;
                                let bank = machine.bank_of(unit);
                                let ports: Vec<Vec<SnId>> = m
                                    .operands
                                    .iter()
                                    .map(|&a| self.port_into(a, Location::Bank(bank)))
                                    .collect();
                                let kind = SnKind::ComplexAlt {
                                    orig: id,
                                    complex: m.complex,
                                    unit,
                                };
                                let sn = self.push(kind, ports);
                                alt_sns.push(sn);
                                self.out.alts[i].push(AltInfo {
                                    sn,
                                    exec: Exec::Unit(unit),
                                    kind: AltKind::Complex {
                                        index: m.complex,
                                        matched: mi,
                                    },
                                });
                                self.suppliers[i].push((sn, Some(Location::Bank(bank))));
                            }
                            if self.out.alts[i].is_empty() {
                                if self.out.covered_by[i].is_empty() {
                                    return Err(SplitDagError::UnsupportedOp { op, node: id });
                                }
                            } else {
                                let split = self.push(SnKind::Split { orig: id }, vec![alt_sns]);
                                self.out.split_of[i] = Some(split);
                            }
                        }
                    }
                }
                Ok(self.out)
            }
        }
    }

    /// Check that the flat build of `dag` equals the reference build:
    /// the same outcome, nodes in the same order with the same ports,
    /// and the same split nodes, alternatives, matches, interiors and
    /// store alternatives. Returns the nodes compared.
    fn check_against_reference(dag: &BlockDag, target: &Target, what: &str) -> usize {
        let (flat, reference) = match (
            SplitNodeDag::build(dag, target),
            reference::build(dag, target),
        ) {
            (Ok(flat), Ok(reference)) => (flat, reference),
            (Err(flat), Err(reference)) => {
                assert_eq!(flat, reference, "{what}");
                return 0;
            }
            (flat, reference) => panic!(
                "{what}: flat {:?}, reference {:?}",
                flat.err(),
                reference.err()
            ),
        };
        assert_eq!(flat.len(), reference.nodes.len(), "{what}");
        for (i, (kind, ports)) in reference.nodes.iter().enumerate() {
            let id = SnId(i as u32);
            assert_eq!(&flat.node(id).kind, kind, "{what} {id}");
            let got: Vec<&[SnId]> = flat.ports(id).collect();
            assert_eq!(got, *ports, "{what} {id}");
        }
        assert_eq!(flat.matches(), reference.matches.as_slice(), "{what}");
        for (id, _) in dag.iter() {
            let i = id.index();
            assert_eq!(flat.split_of(id), reference.split_of[i], "{what} {id}");
            assert_eq!(flat.alts(id), reference.alts[i].as_slice(), "{what} {id}");
            assert_eq!(
                flat.covering_matches(id),
                reference.covered_by[i].as_slice(),
                "{what} {id}"
            );
            assert_eq!(
                flat.store_alts(id),
                reference.store_alts[i].as_slice(),
                "{what} {id}"
            );
        }
        // `stats` reads the nodes and the alternative ranges alone.
        let stats = flat.stats(dag);
        assert_eq!(stats.sn_nodes, reference.nodes.len(), "{what}");
        let space = reference
            .alts
            .iter()
            .filter(|a| !a.is_empty())
            .fold(1u128, |p, a| p.saturating_mul(a.len() as u128));
        assert_eq!(stats.assignment_space, space, "{what}");
        reference.nodes.len()
    }

    /// Every `archs` machine that takes a register count, at two to four
    /// registers per bank, plus the accumulator DSP: `chained_arch` has
    /// multi-hop paths, `quad_vliw` two paths between any two places, and
    /// `dsp_arch` the `mac` complex.
    fn machines() -> impl Iterator<Item = aviv_isdl::Machine> {
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

    /// The six DSP kernels of the bench crate, read from its source: that
    /// crate depends on this one, so it cannot be a dependency here.
    fn kernels() -> Vec<aviv_ir::Function> {
        let source = include_str!("../../bench/src/kernels.rs");
        let kernels: Vec<_> = source
            .split("source: \"")
            .skip(1)
            .map(|rest| {
                let text = &rest[..rest.find('"').expect("a kernel's source ends")];
                parse_function(text).expect("kernels parse")
            })
            .collect();
        assert_eq!(kernels.len(), 6, "the bench crate's kernels");
        kernels
    }

    /// The flat builder against the per-node reference on seeded random
    /// blocks (with constants, and with the multiply-adds the `mac`
    /// complex matches), two blocks with dynamic memory and write-backs,
    /// the six DSP kernels, and blocks no machine can implement.
    #[test]
    fn flat_builds_match_the_reference() {
        let mut functions: Vec<aviv_ir::Function> = [3, 6, 10, 16]
            .into_iter()
            .flat_map(|n_ops| {
                let cfg = aviv_ir::randdag::RandDagConfig {
                    n_ops,
                    const_prob: 0.2,
                    ..Default::default()
                };
                (0..4).map(move |seed| aviv_ir::randdag::random_block(&cfg, seed))
            })
            .collect();
        for src in [
            "func f(a, b) { a = a + b; b = a * 3; c = a - b; return c; }",
            "func f(p, q, x) { mem[p] = x * x; y = mem[q] + x; mem[q + 1] = 7; x = y; return y; }",
            "func f(a, b, c, d) { x = a * b + c; y = c + a * d; z = x * y + x; return z; }",
            "func f(a, b) { x = a / b; y = min(a, b); return x + y; }",
        ] {
            functions.push(parse_function(src).expect("oracle block parses"));
        }
        functions.extend(kernels());
        let (mut built, mut failed, mut nodes, mut matched) = (0, 0, 0, 0);
        for machine in machines() {
            let target = Target::new(machine);
            for (fi, f) in functions.iter().enumerate() {
                for (bi, block) in f.blocks.iter().enumerate() {
                    let what = format!("{} function {fi} bb{bi}", target.machine.name);
                    let n = check_against_reference(&block.dag, &target, &what);
                    if n == 0 {
                        failed += 1;
                    } else {
                        built += 1;
                        nodes += n;
                    }
                    matched += crate::match_complexes(&block.dag, &target).len();
                }
            }
        }
        eprintln!("{built} blocks built ({nodes} nodes, {matched} matches), {failed} refused");
        assert!(
            built > 300 && failed > 100 && matched > 40,
            "{built} {failed} {matched}"
        );
    }

    /// The paper's §IV-A worked example: the Fig. 2 block has a SUB fed by
    /// a MUL and an ADD; alternatives on Fig. 3's architecture multiply to
    /// 2 × 2 × 3 possible assignments.
    #[test]
    fn fig4_alternative_counts() {
        let (f, _t, sn) = build(
            "func f(a, b, c, d, e) { out = (d * e) - (a + b); }",
            archs::example_arch(4),
        );
        let dag = &f.blocks[0].dag;
        let mut counts: Vec<usize> = Vec::new();
        for (id, n) in dag.iter() {
            if !n.op.is_leaf() && !n.op.is_store() {
                counts.push(sn.alts(id).len());
            }
        }
        counts.sort_unstable();
        assert_eq!(counts, vec![2, 2, 3], "SUB:2, MUL:2, ADD:3");
        let stats = sn.stats(dag);
        assert_eq!(stats.assignment_space, 12);
        assert!(stats.transfer_nodes > 0);
        assert_eq!(stats.split_nodes, 3);
    }

    #[test]
    fn sndag_is_larger_than_original() {
        let (f, _t, sn) = build(
            "func f(a, b, c) { t = a + b; u = t * c; v = u - t; out = v; }",
            archs::example_arch(4),
        );
        let dag = &f.blocks[0].dag;
        let stats = sn.stats(dag);
        assert!(stats.sn_nodes > stats.orig_nodes, "{stats:?}");
        assert_eq!(stats.orig_nodes, dag.len());
    }

    #[test]
    fn reduced_arch_gives_smaller_sndag() {
        let src = "func f(a, b, c) { t = a + b; u = t * c; v = u - t; out = v; }";
        let (f1, _t1, sn1) = build(src, archs::example_arch(4));
        let (_f2, _t2, sn2) = build(src, archs::arch_two(4));
        // Table II: the same blocks produce far fewer split-node-DAG nodes
        // on the reduced architecture.
        assert!(sn2.len() < sn1.len());
        let s1 = sn1.stats(&f1.blocks[0].dag);
        let _ = s1;
    }

    #[test]
    fn unsupported_op_is_reported() {
        let f = parse_function("func f(a, b) { x = a / b; }").unwrap();
        let target = Target::new(archs::example_arch(4));
        let err = SplitNodeDag::build(&f.blocks[0].dag, &target).unwrap_err();
        assert!(matches!(
            err,
            SplitDagError::UnsupportedOp { op: Op::Div, .. }
        ));
    }

    #[test]
    fn constants_are_immediates_with_no_transfers() {
        let (f, _t, sn) = build("func f(a) { x = a + 1; }", archs::example_arch(4));
        let dag = &f.blocks[0].dag;
        // The const leaf becomes an Imm node; the input leaf needs
        // transfers (one per consuming bank).
        let stats = sn.stats(dag);
        let imm_nodes = sn
            .nodes()
            .iter()
            .filter(|n| matches!(n.kind, SnKind::Imm { .. }))
            .count();
        assert_eq!(imm_nodes, 1);
        // `a` feeds adds on three different banks: three leaf transfers.
        assert!(stats.transfer_nodes >= 3);
    }

    #[test]
    fn transfer_nodes_are_shared_across_consumers() {
        // Both the SUB and the second ADD on the same unit consume `t`;
        // the memory→bank transfer of `a` into each bank exists once.
        let (f, target, sn) = build(
            "func f(a) { x = a + a; y = a - a; }",
            archs::example_arch(4),
        );
        let dag = &f.blocks[0].dag;
        let _ = dag;
        // Count transfers out of the leaf: at most one per (bank) even
        // though multiple alternatives consume it.
        let n_banks = target.machine.banks().len();
        let leaf_xfers = sn
            .nodes()
            .iter()
            .filter(|n| {
                matches!(
                    n.kind,
                    SnKind::Transfer {
                        from: Location::Mem,
                        ..
                    }
                )
            })
            .count();
        assert!(leaf_xfers <= n_banks, "{leaf_xfers} > {n_banks}");
    }

    #[test]
    fn complex_alt_appears_in_table() {
        let (f, _t, sn) = build("func f(a, b, c) { y = a * b + c; }", archs::dsp_arch(4));
        let dag = &f.blocks[0].dag;
        let add = dag
            .iter()
            .find(|(_, n)| n.op == Op::Add)
            .map(|(id, _)| id)
            .unwrap();
        let alts = sn.alts(add);
        // U1.add, U2.add, and the MAC complex on U2.
        assert_eq!(alts.len(), 3);
        assert!(alts
            .iter()
            .any(|a| matches!(a.kind, AltKind::Complex { .. })));
        let mul = dag
            .iter()
            .find(|(_, n)| n.op == Op::Mul)
            .map(|(id, _)| id)
            .unwrap();
        assert_eq!(sn.covering_matches(mul).len(), 1);
    }

    #[test]
    fn dynamic_memory_ops_get_memport_alts() {
        let (f, target, sn) = build(
            "func f(p) { x = mem[p]; mem[p + 1] = x * 2; }",
            archs::example_arch(4),
        );
        let dag = &f.blocks[0].dag;
        let load = dag
            .iter()
            .find(|(_, n)| n.op == Op::Load)
            .map(|(id, _)| id)
            .unwrap();
        // One destination-bank alternative per bank on the memory bus.
        assert_eq!(sn.alts(load).len(), target.machine.banks().len());
        assert!(sn
            .alts(load)
            .iter()
            .all(|a| matches!(a.kind, AltKind::DynLoad)));
        let store = dag
            .iter()
            .find(|(_, n)| n.op == Op::Store)
            .map(|(id, _)| id)
            .unwrap();
        assert_eq!(sn.store_alts(store).len(), target.machine.banks().len());
    }

    #[test]
    fn render_names_units_and_transfers() {
        let (f, target, sn) = build("func f(a, b) { x = a * b; }", archs::example_arch(4));
        let text = sn.render(&f.blocks[0].dag, &target);
        assert!(text.contains("U2") && text.contains("U3"));
        assert!(text.contains("xfer"));
        assert!(text.contains("split"));
    }
}
