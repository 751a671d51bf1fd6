//! Basic-block expression DAGs.
//!
//! This is the structure the AVIV back end starts from: "the starting point
//! of the AVIV compiler is a number of basic block DAGs connected through
//! control flow information" (paper, §II). Nodes are operations; an edge
//! from a node to its operands points *downward*, matching the paper's
//! drawings where a node's operands are its descendants and leaves sit at
//! the bottom.
//!
//! Construction is value-numbered: inserting a structurally identical pure
//! node twice yields the same [`NodeId`], which gives common-subexpression
//! elimination for free (SUIF's expression-DAG behavior).

use crate::bitset::BitSet;
use crate::op::Op;
use crate::symbols::{Sym, SymbolTable};
use std::collections::HashMap;
use std::fmt;

/// Index of a node within one [`BlockDag`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct NodeId(pub u32);

impl NodeId {
    /// Raw vector index.
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Display for NodeId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "n{}", self.0)
    }
}

/// One operation node of a basic-block DAG.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DagNode {
    /// The machine-independent operation.
    pub op: Op,
    /// Operand nodes, in operation order.
    pub args: Vec<NodeId>,
    /// Constant value for [`Op::Const`] leaves.
    pub imm: Option<i64>,
    /// Variable name for [`Op::Input`] leaves and [`Op::StoreVar`] roots.
    pub sym: Option<Sym>,
}

/// An expression DAG for one basic block.
///
/// Roots are the nodes whose values escape the block: explicit stores plus
/// any values registered live-out via [`BlockDag::mark_live_out`].
#[derive(Debug, Clone, Default)]
pub struct BlockDag {
    nodes: Vec<DagNode>,
    /// Store roots, in program order (order matters for memory semantics).
    stores: Vec<NodeId>,
    /// Non-store nodes whose value must survive the block, with the
    /// variable each one defines.
    live_outs: Vec<(Sym, NodeId)>,
    /// Memory serialization edges `(earlier, later)`: the later node must
    /// not be scheduled before the earlier one. The front end adds these
    /// conservatively between dynamic memory operations in program order.
    mem_deps: Vec<(NodeId, NodeId)>,
    /// Value-numbering table for pure nodes.
    vn: HashMap<VnKey, NodeId>,
}

/// The consumers of every node of a [`BlockDag`] in one flat list.
/// [`Consumers::rebuild`] reuses the storage, so a scratch index grows
/// only when a block is larger than any indexed before.
#[derive(Debug, Clone, Default)]
pub struct Consumers {
    /// Node `n`'s consumers are `list[start[n]..start[n + 1]]`.
    start: Vec<u32>,
    list: Vec<NodeId>,
}

impl Consumers {
    /// The consumer index of `dag`.
    pub fn new(dag: &BlockDag) -> Self {
        let mut c = Consumers::default();
        c.rebuild(dag);
        c
    }

    /// Make this the consumer index of `dag`, reusing its storage.
    pub fn rebuild(&mut self, dag: &BlockDag) {
        let n = dag.len();
        let start = &mut self.start;
        start.clear();
        start.resize(n + 1, 0);
        for (_, node) in dag.iter() {
            for a in &node.args {
                start[a.index() + 1] += 1;
            }
        }
        for i in 0..n {
            start[i + 1] += start[i];
        }
        self.list.clear();
        self.list.resize(start[n] as usize, NodeId(0));
        // Place each consumer at its operand's cursor, `start[a]`, which
        // then ends at `a + 1`'s start; shifting right restores the
        // starts. Consumers are visited in id order.
        for (id, node) in dag.iter() {
            for a in &node.args {
                self.list[start[a.index()] as usize] = id;
                start[a.index()] += 1;
            }
        }
        start.copy_within(0..n, 1);
        start[0] = 0;
    }

    /// The nodes having `id` as an operand, in id order, once per edge
    /// position.
    pub fn of(&self, id: NodeId) -> &[NodeId] {
        &self.list[self.start[id.index()] as usize..self.start[id.index() + 1] as usize]
    }
}

/// Value-numbering key: operation, canonicalized operands, immediate,
/// and symbol. Operands sit in a fixed array of [`MAX_ARITY`] slots,
/// unused ones [`NO_NODE`]; the operation fixes how many are used, so the
/// padding never makes two keys equal.
type VnKey = (Op, [NodeId; MAX_ARITY], Option<i64>, Option<Sym>);

/// The largest [`Op::arity`].
const MAX_ARITY: usize = 3;

/// Padding for the unused operand slots of a [`VnKey`].
const NO_NODE: NodeId = NodeId(u32::MAX);

fn vn_key(op: Op, args: &[NodeId], imm: Option<i64>, sym: Option<Sym>) -> VnKey {
    let mut slots = [NO_NODE; MAX_ARITY];
    slots[..args.len()].copy_from_slice(args);
    (op, slots, imm, sym)
}

impl BlockDag {
    /// Create an empty DAG.
    pub fn new() -> Self {
        Self::default()
    }

    /// Number of nodes (the paper's "Original DAG #Nodes" column counts
    /// exactly this).
    pub fn len(&self) -> usize {
        self.nodes.len()
    }

    /// True when the DAG has no nodes.
    pub fn is_empty(&self) -> bool {
        self.nodes.is_empty()
    }

    /// Access a node.
    pub fn node(&self, id: NodeId) -> &DagNode {
        &self.nodes[id.index()]
    }

    /// Iterate over `(NodeId, &DagNode)` in id order.
    pub fn iter(&self) -> impl Iterator<Item = (NodeId, &DagNode)> {
        self.nodes
            .iter()
            .enumerate()
            .map(|(i, n)| (NodeId(i as u32), n))
    }

    /// The store roots in program order.
    pub fn stores(&self) -> &[NodeId] {
        &self.stores
    }

    /// Values that must survive the block as `(variable, defining node)`.
    pub fn live_outs(&self) -> &[(Sym, NodeId)] {
        &self.live_outs
    }

    /// All roots: stores then live-outs.
    pub fn roots(&self) -> Vec<NodeId> {
        let mut r = self.stores.clone();
        r.extend(self.live_outs.iter().map(|&(_, n)| n));
        r
    }

    fn push(&mut self, node: DagNode) -> NodeId {
        let id = NodeId(self.nodes.len() as u32);
        self.nodes.push(node);
        id
    }

    /// Insert a constant leaf (value-numbered).
    pub fn add_const(&mut self, value: i64) -> NodeId {
        self.add_node(Op::Const, &[], Some(value), None)
    }

    /// Insert a named input leaf (value-numbered).
    pub fn add_input(&mut self, sym: Sym) -> NodeId {
        self.add_node(Op::Input, &[], None, Some(sym))
    }

    /// Insert a pure operation node (value-numbered: structurally identical
    /// pure nodes share one id — this is the front end's CSE).
    ///
    /// # Panics
    ///
    /// Panics if `args.len()` does not match the operation arity.
    pub fn add_op(&mut self, op: Op, args: &[NodeId]) -> NodeId {
        assert!(!op.is_store(), "use add_store/add_store_var for stores");
        self.add_node(op, args, None, None)
    }

    fn add_node(&mut self, op: Op, args: &[NodeId], imm: Option<i64>, sym: Option<Sym>) -> NodeId {
        assert_eq!(args.len(), op.arity(), "arity mismatch for {op}");
        for a in args {
            assert!(a.index() < self.nodes.len(), "operand {a} out of range");
        }
        // Canonicalize commutative operand order so `a+b` and `b+a` hit the
        // same value number.
        let mut key = vn_key(op, args, imm, sym);
        if op.is_commutative() && args.len() >= 2 && args[0] > args[1] {
            key.1.swap(0, 1);
        }
        if let Some(&id) = self.vn.get(&key) {
            return id;
        }
        let id = self.push(DagNode {
            op,
            args: key.1[..args.len()].to_vec(),
            imm,
            sym,
        });
        self.vn.insert(key, id);
        id
    }

    /// True when no two pure nodes share a value number, so a rebuild
    /// would merge nothing. Only [`BlockDag::set_const_value`] can break
    /// this, by giving a constant the value of another constant. The
    /// table never keeps a key no node has, so an entry per pure node
    /// proves the keys distinct; a `false` may be conservative.
    pub(crate) fn value_numbers_unique(&self) -> bool {
        self.vn.len() == self.nodes.iter().filter(|n| !n.op.is_store()).count()
    }

    /// Insert a store to a dynamically addressed location. Stores are never
    /// value-numbered (two stores are two effects).
    pub fn add_store(&mut self, addr: NodeId, value: NodeId) -> NodeId {
        let id = self.push(DagNode {
            op: Op::Store,
            args: vec![addr, value],
            imm: None,
            sym: None,
        });
        self.stores.push(id);
        id
    }

    /// Insert a store of `value` to the named variable `sym`.
    pub fn add_store_var(&mut self, sym: Sym, value: NodeId) -> NodeId {
        let id = self.push(DagNode {
            op: Op::StoreVar,
            args: vec![value],
            imm: None,
            sym: Some(sym),
        });
        self.stores.push(id);
        id
    }

    /// Record that `node`'s value defines variable `sym` past the end of
    /// the block (e.g. the condition consumed by the block terminator).
    pub fn mark_live_out(&mut self, sym: Sym, node: NodeId) {
        self.live_outs.push((sym, node));
    }

    /// Add a memory serialization edge: `later` must execute after
    /// `earlier`. Both should be memory operations ([`Op::Load`] /
    /// [`Op::Store`]).
    ///
    /// # Panics
    ///
    /// Panics unless `earlier < later` (insertion order is program order).
    pub fn add_mem_dep(&mut self, earlier: NodeId, later: NodeId) {
        assert!(earlier < later, "mem dep must follow insertion order");
        self.mem_deps.push((earlier, later));
    }

    /// Memory serialization edges as `(earlier, later)` pairs.
    pub fn mem_deps(&self) -> &[(NodeId, NodeId)] {
        &self.mem_deps
    }

    /// Drop all live-out registrations (used by loop unrolling to discard
    /// an intermediate iteration's exit condition).
    pub fn clear_live_outs(&mut self) {
        self.live_outs.clear();
    }

    /// Rewrite the value of an existing [`Op::Const`] leaf in place,
    /// keeping the value-numbering table consistent. Returns `false`
    /// (and changes nothing) when `id` is not a constant node.
    ///
    /// This is the one sanctioned structural edit on a built DAG; the
    /// incremental-compilation tests use it to model "the user changed a
    /// literal in one block" without rebuilding the whole function.
    pub fn set_const_value(&mut self, id: NodeId, value: i64) -> bool {
        let Some(node) = self.nodes.get_mut(id.index()) else {
            return false;
        };
        if node.op != Op::Const {
            return false;
        }
        let old = node.imm;
        node.imm = Some(value);
        let old_key = vn_key(Op::Const, &[], old, None);
        if self.vn.get(&old_key) == Some(&id) {
            self.vn.remove(&old_key);
        }
        self.vn
            .entry(vn_key(Op::Const, &[], Some(value), None))
            .or_insert(id);
        true
    }

    /// Nodes in a topological order with operands before consumers
    /// (ascending ids already satisfy this because operands must exist
    /// before insertion, but this is the explicit contract).
    pub fn topo_order(&self) -> Vec<NodeId> {
        (0..self.nodes.len() as u32).map(NodeId).collect()
    }

    /// Longest-path level of each node measured from the *top* (roots have
    /// level 0; an operand's level exceeds every consumer's).
    ///
    /// Nodes unreachable from any root get the level they would have if
    /// they were roots themselves.
    pub fn levels_from_top(&self) -> Vec<u32> {
        let mut level = vec![0u32; self.nodes.len()];
        // Iterate ids descending: consumers have larger ids than operands
        // never holds in general? It does: operands are inserted first, so
        // consumer id > operand id. Walk consumers first (descending).
        for i in (0..self.nodes.len()).rev() {
            let l = level[i];
            for &a in &self.nodes[i].args {
                level[a.index()] = level[a.index()].max(l + 1);
            }
        }
        level
    }

    /// Longest-path level of each node measured from the *bottom* (leaves
    /// have level 0).
    pub fn levels_from_bottom(&self) -> Vec<u32> {
        let mut level = vec![0u32; self.nodes.len()];
        for i in 0..self.nodes.len() {
            let l = self.nodes[i]
                .args
                .iter()
                .map(|a| level[a.index()] + 1)
                .max()
                .unwrap_or(0);
            level[i] = l;
        }
        level
    }

    /// Per-node descendant sets: `desc[n]` contains every node that must
    /// execute before `n` — everything reachable through operand edges plus
    /// memory serialization edges (excluding `n` itself). Two nodes have a
    /// directed path between them iff one is in the other's set.
    pub fn descendants(&self) -> Vec<BitSet> {
        let n = self.nodes.len();
        // Group serialization predecessors by the later node.
        let mut extra: Vec<Vec<NodeId>> = vec![Vec::new(); n];
        for &(earlier, later) in &self.mem_deps {
            extra[later.index()].push(earlier);
        }
        let mut desc = vec![BitSet::new(n); n];
        for i in 0..n {
            // Operands and serialization predecessors have smaller ids, so
            // their sets are already complete.
            let mut acc = BitSet::new(n);
            for a in self.nodes[i].args.iter().chain(extra[i].iter()) {
                acc.insert(a.index());
                acc.union_with(&desc[a.index()]);
            }
            desc[i] = acc;
        }
        desc
    }

    /// True if there is a directed dependency path between `a` and `b`
    /// (in either direction).
    pub fn dependent(&self, desc: &[BitSet], a: NodeId, b: NodeId) -> bool {
        desc[a.index()].contains(b.index()) || desc[b.index()].contains(a.index())
    }

    /// Structural validation: arities, operand ranges, acyclicity (implied
    /// by id ordering), store bookkeeping.
    pub fn validate(&self) -> Result<(), String> {
        for (id, n) in self.iter() {
            if n.args.len() != n.op.arity() {
                return Err(format!("{id}: {} has {} args", n.op, n.args.len()));
            }
            for &a in &n.args {
                if a.index() >= self.nodes.len() {
                    return Err(format!("{id}: operand {a} out of range"));
                }
                if a >= id {
                    return Err(format!("{id}: operand {a} does not precede node"));
                }
                if self.nodes[a.index()].op.is_store() {
                    return Err(format!("{id}: operand {a} is a store"));
                }
            }
            match n.op {
                Op::Const if n.imm.is_none() => return Err(format!("{id}: const without imm")),
                Op::Input | Op::StoreVar if n.sym.is_none() => {
                    return Err(format!("{id}: {} without sym", n.op))
                }
                _ => {}
            }
        }
        for &s in &self.stores {
            if !self.nodes[s.index()].op.is_store() {
                return Err(format!("store list entry {s} is not a store"));
            }
        }
        for &(_, n) in &self.live_outs {
            if self.nodes[n.index()].op.is_store() {
                return Err(format!("live-out {n} is a store"));
            }
        }
        for &(a, b) in &self.mem_deps {
            if a >= b || b.index() >= self.nodes.len() {
                return Err(format!("invalid mem dep {a} -> {b}"));
            }
        }
        Ok(())
    }

    /// Count of operation (non-leaf) nodes.
    pub fn op_node_count(&self) -> usize {
        self.nodes.iter().filter(|n| !n.op.is_leaf()).count()
    }

    /// Render the DAG as indented text (used by the figures binary to
    /// regenerate the paper's Fig. 2).
    pub fn render(&self, syms: &SymbolTable) -> String {
        let mut out = String::new();
        let consumers = Consumers::new(self);
        for (id, n) in self.iter() {
            let desc = match n.op {
                Op::Const => format!("const {}", n.imm.unwrap()),
                Op::Input => format!("input {}", syms.name(n.sym.unwrap())),
                Op::StoreVar => format!("storev {} <- {}", syms.name(n.sym.unwrap()), n.args[0]),
                _ => {
                    let args: Vec<String> = n
                        .args
                        .iter()
                        .map(std::string::ToString::to_string)
                        .collect();
                    format!("{} {}", n.op, args.join(", "))
                }
            };
            let role = if self.stores.contains(&id) {
                " [root:store]"
            } else if self.live_outs.iter().any(|&(_, r)| r == id) {
                " [root:live-out]"
            } else if consumers.of(id).is_empty() {
                " [dead]"
            } else {
                ""
            };
            out.push_str(&format!("{id}: {desc}{role}\n"));
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> (BlockDag, SymbolTable) {
        // The paper's Fig. 2-style block:  out = (a + b) * c - (a + b)
        let mut syms = SymbolTable::new();
        let (a, b, c, out) = (
            syms.intern("a"),
            syms.intern("b"),
            syms.intern("c"),
            syms.intern("out"),
        );
        let mut dag = BlockDag::new();
        let na = dag.add_input(a);
        let nb = dag.add_input(b);
        let nc = dag.add_input(c);
        let sum = dag.add_op(Op::Add, &[na, nb]);
        let prod = dag.add_op(Op::Mul, &[sum, nc]);
        let diff = dag.add_op(Op::Sub, &[prod, sum]);
        dag.add_store_var(out, diff);
        (dag, syms)
    }

    #[test]
    fn consumer_index_lists_every_edge_in_id_order() {
        let (dag, _) = sample();
        let mut index = Consumers::new(&BlockDag::new());
        let random = crate::randdag::random_block(&crate::randdag::RandDagConfig::default(), 7);
        for dag in [dag, random.blocks[0].dag.clone()] {
            index.rebuild(&dag);
            for (id, _) in dag.iter() {
                let want: Vec<NodeId> = dag
                    .iter()
                    .flat_map(|(c, n)| n.args.iter().filter(move |&&a| a == id).map(move |_| c))
                    .collect();
                assert_eq!(index.of(id), want.as_slice(), "{id}");
            }
        }
    }

    #[test]
    fn value_numbering_dedups_pure_nodes() {
        let (mut dag, mut syms) = sample();
        let a = syms.intern("a");
        let b = syms.intern("b");
        let na = dag.add_input(a);
        let nb = dag.add_input(b);
        let len_before = dag.len();
        let sum_again = dag.add_op(Op::Add, &[na, nb]);
        assert_eq!(dag.len(), len_before, "duplicate add must be CSE'd");
        // Commutative canonicalization: b + a hits the same node.
        let sum_swapped = dag.add_op(Op::Add, &[nb, na]);
        assert_eq!(sum_again, sum_swapped);
    }

    #[test]
    fn value_number_keys_hold_every_arity() {
        let leaves_and_memory = [Op::Const, Op::Input, Op::Load, Op::Store, Op::StoreVar];
        for &op in Op::all_computational().iter().chain(&leaves_and_memory) {
            assert!(op.arity() <= MAX_ARITY, "{op} has arity {}", op.arity());
        }
    }

    #[test]
    fn stores_are_never_merged() {
        let (mut dag, mut syms) = sample();
        let out2 = syms.intern("out2");
        let v = dag.add_const(1);
        let s1 = dag.add_store_var(out2, v);
        let s2 = dag.add_store_var(out2, v);
        assert_ne!(s1, s2);
        assert_eq!(dag.stores().len(), 3);
    }

    #[test]
    fn levels_match_structure() {
        let (dag, _) = sample();
        let top = dag.levels_from_top();
        let bot = dag.levels_from_bottom();
        // storev root: top level 0; inputs have bottom level 0.
        let store = *dag.stores().first().unwrap();
        assert_eq!(top[store.index()], 0);
        for (id, n) in dag.iter() {
            if n.op.is_leaf() {
                assert_eq!(bot[id.index()], 0, "{id} is a leaf");
                assert!(top[id.index()] > 0);
            }
        }
        // a is used by add (depth 3 from store) — its top level is the
        // longest path: store(0) -> sub(1) -> mul(2) -> add(3) -> a(4).
        assert_eq!(top.iter().copied().max(), Some(4));
    }

    #[test]
    fn descendants_capture_paths() {
        let (dag, _) = sample();
        let desc = dag.descendants();
        let store = *dag.stores().first().unwrap();
        // The store reaches everything.
        assert_eq!(desc[store.index()].count(), dag.len() - 1);
        // Leaves reach nothing.
        for (id, n) in dag.iter() {
            if n.op.is_leaf() {
                assert!(desc[id.index()].is_empty());
            }
        }
    }

    #[test]
    fn validate_accepts_wellformed() {
        let (dag, _) = sample();
        dag.validate().unwrap();
        assert_eq!(dag.op_node_count(), 4); // add, mul, sub, storev
    }

    #[test]
    fn render_mentions_all_nodes() {
        let (dag, syms) = sample();
        let text = dag.render(&syms);
        for (id, _) in dag.iter() {
            assert!(text.contains(&id.to_string()));
        }
        assert!(text.contains("[root:store]"));
    }
}
