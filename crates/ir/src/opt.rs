//! Machine-independent optimizations.
//!
//! The paper's front end "performs machine independent optimizations such
//! as loop unrolling and other transformations that extract machine
//! independent parallelism" (§II). This module provides the equivalents:
//!
//! * [`fold_constants`] — constant folding + dead-node elimination,
//! * [`prune_dead_stores`] — global dead variable-store elimination,
//! * [`eliminate_dead_code`] — the fixpoint of store + node elimination
//!   driven by the [`crate::dataflow`] liveness solver,
//! * [`dead_code_free`] — whether that fixpoint would change anything,
//!   answered without rebuilding,
//! * [`unroll_self_loop`] — merges `k` iterations of a do-while self-loop
//!   into one bigger basic block (the transformation behind the paper's
//!   "loops that have been unrolled twice" examples),
//! * [`merge_sequential`] — the block-DAG concatenation primitive used by
//!   unrolling.

use crate::bitset::BitSet;
use crate::dag::{BlockDag, NodeId};
use crate::op::Op;
use crate::program::{BlockId, Function, Terminator};
use crate::symbols::Sym;
use std::collections::{HashMap, HashSet};

/// Rebuild every block with constant folding and dead-node elimination;
/// terminator node references are remapped. Returns the number of nodes
/// removed across the function.
pub fn fold_constants(f: &mut Function) -> usize {
    let mut removed = 0usize;
    for block in &mut f.blocks {
        let (new_dag, map) = rebuild(&block.dag, true);
        removed += block.dag.len().saturating_sub(new_dag.len());
        remap_terminator(&mut block.term, &map);
        block.dag = new_dag;
    }
    removed
}

/// Remove `StoreVar` roots whose variable is never read afterwards on any
/// path and is not in `observable` (variables whose final value the caller
/// inspects — typically the function outputs). Returns the number of
/// stores removed.
///
/// Liveness comes from the global solver ([`crate::dataflow::liveness`])
/// with `observable` as the exit-live seed. This is one round of
/// [`eliminate_dead_code`]; call that instead to also clean up the value
/// nodes the removed stores kept alive.
pub fn prune_dead_stores(f: &mut Function, observable: &[Sym]) -> usize {
    dead_code_round(f, observable).0
}

/// Global dead-code elimination to a fixpoint: drops `StoreVar` roots of
/// variables that are rewritten on every path before any read (and are
/// not in `observable`), plus every node no surviving root reaches.
/// Returns the total number of DAG nodes removed.
///
/// Semantics-preserving whenever `observable` lists every variable whose
/// final memory value the caller may inspect: only *shadowed* stores are
/// removed, so the data-memory image at exit is unchanged. The codegen
/// pipeline calls this with the full symbol table.
pub fn eliminate_dead_code(f: &mut Function, observable: &[Sym]) -> usize {
    let mut total = 0usize;
    loop {
        // Removing a store can kill the last read of another variable, so
        // iterate until the liveness solution stops shrinking.
        let (_, nodes) = dead_code_round(f, observable);
        if nodes == 0 {
            return total;
        }
        total += nodes;
    }
}

/// Whether [`eliminate_dead_code`] would leave `f` unchanged, answered
/// without cloning or rebuilding anything: every block keeps all its
/// stores, its roots reach every node, and no two of its nodes share a
/// value number (which a rebuild would merge). A `false` may still be a
/// no-op; a `true` never hides a removal.
///
/// Liveness is solved in flat bit rows kept per thread (the ones the
/// elimination reads), so once they have grown to the largest function
/// seen, the answer allocates nothing.
pub fn dead_code_free(f: &Function, observable: &[Sym]) -> bool {
    LIVE.with_borrow_mut(|lv| {
        lv.solve(f, observable);
        f.blocks.iter().enumerate().all(|(b, block)| {
            let dag = &block.dag;
            dag.stores().iter().all(|&s| lv.keeps(b, dag.node(s)))
                && dag.value_numbers_unique()
                && lv.all_reachable(dag)
        })
    })
}

/// Store liveness in buffers reused by every dead-code pass on a
/// thread: per block, `words` words each of the variables it reads,
/// writes, and that are live at its entry and exit; the variables live
/// after a `return`; and the reachability walk's marks and stack.
#[derive(Debug, Default)]
struct Liveness {
    words: usize,
    reads: Vec<u64>,
    writes: Vec<u64>,
    live_in: Vec<u64>,
    live_out: Vec<u64>,
    exit_live: Vec<u64>,
    seen: Vec<bool>,
    stack: Vec<NodeId>,
}

thread_local! {
    static LIVE: std::cell::RefCell<Liveness> = std::cell::RefCell::new(Liveness::default());
}

impl Liveness {
    /// Solve global liveness of `f` with every variable of `observable`
    /// live at exit: the least fixpoint the generic solver
    /// ([`crate::dataflow::liveness`]) reaches.
    fn solve(&mut self, f: &Function, observable: &[Sym]) {
        let words = f.syms.len().div_ceil(64);
        let n = f.blocks.len();
        self.words = words;
        for rows in [
            &mut self.reads,
            &mut self.writes,
            &mut self.live_in,
            &mut self.live_out,
        ] {
            rows.clear();
            rows.resize(n * words, 0);
        }
        self.exit_live.clear();
        self.exit_live.resize(words, 0);
        for s in observable {
            set(&mut self.exit_live, s.index());
        }
        for (b, block) in f.blocks.iter().enumerate() {
            for (_, node) in block.dag.iter() {
                match node.op {
                    Op::Input => set(
                        &mut self.reads[b * words..],
                        node.sym.expect("input names a variable").index(),
                    ),
                    Op::StoreVar => set(
                        &mut self.writes[b * words..],
                        node.sym.expect("store names a variable").index(),
                    ),
                    _ => {}
                }
            }
        }
        // Backward may-liveness by rounds over the blocks in reverse until
        // nothing changes: from empty sets, the least fixpoint of
        // `out = ⋃ succ.in (∪ exit_live at a return)`,
        // `in = reads ∪ (out − writes)`.
        let mut changed = true;
        while changed {
            changed = false;
            for b in (0..n).rev() {
                let term = &f.blocks[b].term;
                for k in b * words..(b + 1) * words {
                    let mut out = 0;
                    if matches!(term, Terminator::Return(_)) {
                        out |= self.exit_live[k - b * words];
                    }
                    for s in term.successors() {
                        out |= self.live_in[s.index() * words + k - b * words];
                    }
                    let live_in = self.reads[k] | (out & !self.writes[k]);
                    if (out, live_in) != (self.live_out[k], self.live_in[k]) {
                        (self.live_out[k], self.live_in[k]) = (out, live_in);
                        changed = true;
                    }
                }
            }
        }
    }

    /// Whether dead-code elimination keeps the store `node` of block `b`:
    /// every store but a `StoreVar` whose variable is dead after the
    /// block.
    fn keeps(&self, b: usize, node: &crate::dag::DagNode) -> bool {
        node.op != Op::StoreVar || {
            let i = node.sym.expect("store names a variable").index();
            self.live_out[b * self.words + i / 64] & (1 << (i % 64)) != 0
        }
    }

    /// Whether the roots of `dag` reach every node, through operands and
    /// memory serialization edges.
    fn all_reachable(&mut self, dag: &BlockDag) -> bool {
        self.seen.clear();
        self.seen.resize(dag.len(), false);
        self.stack.clear();
        self.stack.extend_from_slice(dag.stores());
        self.stack.extend(dag.live_outs().iter().map(|&(_, n)| n));
        let mut reached = 0;
        while let Some(n) = self.stack.pop() {
            if std::mem::replace(&mut self.seen[n.index()], true) {
                continue;
            }
            reached += 1;
            self.stack.extend_from_slice(&dag.node(n).args);
            for &(earlier, later) in dag.mem_deps() {
                if later == n && !self.seen[earlier.index()] {
                    self.stack.push(earlier);
                }
            }
        }
        reached == dag.len()
    }
}

fn set(words: &mut [u64], i: usize) {
    words[i / 64] |= 1 << (i % 64);
}

/// One liveness-then-rebuild round shared by [`prune_dead_stores`] and
/// [`eliminate_dead_code`]. Returns `(stores_removed, nodes_removed)`.
fn dead_code_round(f: &mut Function, observable: &[Sym]) -> (usize, usize) {
    LIVE.with_borrow_mut(|lv| {
        lv.solve(f, observable);
        let mut stores_removed = 0usize;
        let mut nodes_removed = 0usize;
        for (b, block) in f.blocks.iter_mut().enumerate() {
            let (new_dag, map) = rebuild_filtered(&block.dag, false, |node| lv.keeps(b, node));
            if new_dag.len() == block.dag.len() {
                continue;
            }
            stores_removed += block
                .dag
                .stores()
                .len()
                .saturating_sub(new_dag.stores().len());
            nodes_removed += block.dag.len() - new_dag.len();
            remap_terminator(&mut block.term, &map);
            block.dag = new_dag;
        }
        (stores_removed, nodes_removed)
    })
}

/// Unroll the self-loop at `block` by `factor`, merging the copies into a
/// single larger basic block and dropping the intermediate exit tests.
///
/// The block must end in `Branch { if_true == block }` or
/// `Branch { if_false == block }` (a do-while loop). **Caller contract:**
/// the loop's trip count must always be a positive multiple of `factor`,
/// otherwise behavior changes — this matches how unrolling is used to
/// prepare the paper's benchmark blocks.
///
/// # Errors
///
/// Returns `Err` if the block is not a self-loop of the expected shape.
pub fn unroll_self_loop(f: &mut Function, block: BlockId, factor: usize) -> Result<(), String> {
    if factor < 2 {
        return Ok(());
    }
    let b = f.block(block);
    let (cond, back_is_true, exit) = match b.term {
        Terminator::Branch {
            cond,
            if_true,
            if_false,
        } if if_true == block => (cond, true, if_false),
        Terminator::Branch {
            cond,
            if_true,
            if_false,
        } if if_false == block => (cond, false, if_true),
        _ => return Err(format!("{block} is not a self-loop")),
    };
    let body = b.dag.clone();
    let mut merged = body.clone();
    let mut cond_map: Vec<Option<NodeId>> =
        (0..merged.len() as u32).map(|i| Some(NodeId(i))).collect();
    for _ in 1..factor {
        // The accumulated block's live-outs are the previous iteration's
        // exit condition — the whole point of unrolling is to drop those
        // intermediate tests.
        merged.clear_live_outs();
        let map = merge_sequential(&mut merged, &body);
        cond_map = map;
    }
    let new_cond = cond_map[cond.index()]
        .ok_or_else(|| "loop condition eliminated during merge".to_string())?;
    let block_mut = &mut f.blocks[block.index()];
    block_mut.dag = merged;
    block_mut.term = if back_is_true {
        Terminator::Branch {
            cond: new_cond,
            if_true: block,
            if_false: exit,
        }
    } else {
        Terminator::Branch {
            cond: new_cond,
            if_true: exit,
            if_false: block,
        }
    };
    Ok(())
}

/// Append `second`'s computation after `first`'s, resolving `second`'s
/// `Input(v)` leaves to the value `first` stores to `v` (when it does).
/// `first` keeps only the *final* `StoreVar` per variable; memory
/// operations of the two halves are serialized. Returns the node map from
/// `second`'s ids to merged ids (`None` for dropped stores).
///
/// Both DAGs must use the same symbol table — [`Sym`] ids are compared
/// directly (this holds for any two blocks of one [`Function`]).
pub fn merge_sequential(first: &mut BlockDag, second: &BlockDag) -> Vec<Option<NodeId>> {
    // Final binding of each variable stored by `first`.
    let mut binding: HashMap<Sym, NodeId> = HashMap::new();
    for &s in first.stores() {
        let node = first.node(s);
        if node.op == Op::StoreVar {
            binding.insert(node.sym.unwrap(), node.args[0]);
        }
    }
    // Rebuild `first` without StoreVars that `second` overwrites — the
    // merged block stores only final values. A StoreVar survives when
    // `second` does not store the same variable. The dropped stores'
    // values stay alive as extra roots: `second` reads them as its entry
    // bindings.
    let second_stores: HashSet<Sym> = second
        .stores()
        .iter()
        .filter_map(|&s| {
            let n = second.node(s);
            (n.op == Op::StoreVar).then(|| n.sym.unwrap())
        })
        .collect();
    let carried: Vec<NodeId> = binding.values().copied().collect();
    let (mut merged, first_map) = rebuild_filtered_with_roots(
        first,
        false,
        |node| !(node.op == Op::StoreVar && second_stores.contains(&node.sym.unwrap())),
        &carried,
    );
    let binding: HashMap<Sym, NodeId> = binding
        .into_iter()
        .filter_map(|(s, n)| first_map[n.index()].map(|m| (s, m)))
        .collect();

    // Memory chain ends of the rebuilt first half.
    let last_mem_first = (0..merged.len() as u32)
        .map(NodeId)
        .rfind(|&id| matches!(merged.node(id).op, Op::Load | Op::Store));

    // Copy `second`, resolving inputs through `binding`.
    let mut map: Vec<Option<NodeId>> = vec![None; second.len()];
    let mut first_mem_second: Option<NodeId> = None;
    let mut mem_prev: Option<NodeId> = None;
    for (id, node) in second.iter() {
        let new_id = match node.op {
            Op::Input => {
                let sym = node.sym.unwrap();
                match binding.get(&sym) {
                    Some(&n) => n,
                    None => merged.add_input(sym),
                }
            }
            Op::Const => merged.add_const(node.imm.unwrap()),
            Op::Store => {
                let args: Vec<NodeId> = node.args.iter().map(|a| map[a.index()].unwrap()).collect();
                merged.add_store(args[0], args[1])
            }
            Op::StoreVar => {
                let v = map[node.args[0].index()].unwrap();
                merged.add_store_var(node.sym.unwrap(), v)
            }
            op => {
                let args: Vec<NodeId> = node.args.iter().map(|a| map[a.index()].unwrap()).collect();
                merged.add_op(op, &args)
            }
        };
        map[id.index()] = Some(new_id);
        if matches!(node.op, Op::Load | Op::Store) {
            if first_mem_second.is_none() {
                first_mem_second = Some(new_id);
            }
            if let Some(prev) = mem_prev {
                if prev < new_id {
                    merged.add_mem_dep(prev, new_id);
                }
            }
            mem_prev = Some(new_id);
        }
    }
    // Serialize the two halves' memory chains.
    if let (Some(a), Some(b)) = (last_mem_first, first_mem_second) {
        if a < b {
            merged.add_mem_dep(a, b);
        }
    }
    // Live-outs of `second` (e.g. its loop condition) carry over.
    for &(sym, n) in second.live_outs() {
        if let Some(m) = map[n.index()] {
            merged.mark_live_out(sym, m);
        }
    }
    *first = merged;
    map
}

/// Rebuild a DAG keeping only nodes reachable from roots, optionally
/// constant-folding. Returns the new DAG and the old→new node map.
fn rebuild(dag: &BlockDag, fold: bool) -> (BlockDag, Vec<Option<NodeId>>) {
    rebuild_filtered(dag, fold, |_| true)
}

/// Like [`rebuild`] but also dropping any node (and what only it kept
/// alive) for which `keep` returns false. `keep` is consulted for store
/// roots; value nodes are kept by reachability.
fn rebuild_filtered(
    dag: &BlockDag,
    fold: bool,
    keep: impl Fn(&crate::dag::DagNode) -> bool,
) -> (BlockDag, Vec<Option<NodeId>>) {
    rebuild_with(dag, fold, keep, &[], None)
}

/// [`rebuild_filtered`] with additional nodes forced live (used when a
/// removed store's value is still consumed by a following block merge).
fn rebuild_filtered_with_roots(
    dag: &BlockDag,
    fold: bool,
    keep: impl Fn(&crate::dag::DagNode) -> bool,
    extra_roots: &[NodeId],
) -> (BlockDag, Vec<Option<NodeId>>) {
    rebuild_with(dag, fold, keep, extra_roots, None)
}

/// The nodes of `dag` that `roots` reach through operands and memory
/// ordering edges.
fn reachable(dag: &BlockDag, roots: Vec<NodeId>) -> BitSet {
    let mut seen = BitSet::new(dag.len());
    let mut stack = roots;
    while let Some(n) = stack.pop() {
        if seen.contains(n.index()) {
            continue;
        }
        seen.insert(n.index());
        stack.extend(dag.node(n).args.iter().copied());
        for &(earlier, later) in dag.mem_deps() {
            if later == n && !seen.contains(earlier.index()) {
                stack.push(earlier);
            }
        }
    }
    seen
}

/// A peephole rewriter consulted while rebuilding: given the output DAG so
/// far, an operation, and its (already remapped) operands, it may return
/// an existing node to use instead of creating the operation.
pub(crate) type Rewriter<'a> = &'a dyn Fn(&mut BlockDag, Op, &[NodeId]) -> Option<NodeId>;

/// The shared rebuild engine behind every DAG-rewriting pass.
pub(crate) fn rebuild_with(
    dag: &BlockDag,
    fold: bool,
    keep: impl Fn(&crate::dag::DagNode) -> bool,
    extra_roots: &[NodeId],
    rewrite: Option<Rewriter<'_>>,
) -> (BlockDag, Vec<Option<NodeId>>) {
    // Reachability from surviving stores + live-outs + extra roots.
    let mut survivors: Vec<NodeId> = dag
        .stores()
        .iter()
        .copied()
        .filter(|&s| keep(dag.node(s)))
        .collect();
    survivors.extend(dag.live_outs().iter().map(|&(_, n)| n));
    survivors.extend(extra_roots.iter().copied());
    let live = reachable(dag, survivors);

    let mut out = BlockDag::new();
    let mut map: Vec<Option<NodeId>> = vec![None; dag.len()];
    for (id, node) in dag.iter() {
        if !live.contains(id.index()) {
            continue;
        }
        let new_id = match node.op {
            Op::Const => out.add_const(node.imm.unwrap()),
            Op::Input => out.add_input(node.sym.unwrap()),
            Op::Store => {
                let a = map[node.args[0].index()].unwrap();
                let v = map[node.args[1].index()].unwrap();
                out.add_store(a, v)
            }
            Op::StoreVar => {
                let v = map[node.args[0].index()].unwrap();
                out.add_store_var(node.sym.unwrap(), v)
            }
            op => {
                let args: Vec<NodeId> = node.args.iter().map(|a| map[a.index()].unwrap()).collect();
                let rewritten = rewrite.and_then(|r| r(&mut out, op, &args));
                if let Some(n) = rewritten {
                    n
                } else if fold && !matches!(op, Op::Load) {
                    let const_args: Option<Vec<i64>> = args
                        .iter()
                        .map(|&a| {
                            let n = out.node(a);
                            (n.op == Op::Const).then(|| n.imm.unwrap())
                        })
                        .collect();
                    if let Some(cv) = const_args {
                        out.add_const(op.eval(&cv))
                    } else {
                        out.add_op(op, &args)
                    }
                } else {
                    out.add_op(op, &args)
                }
            }
        };
        map[id.index()] = Some(new_id);
    }
    for &(earlier, later) in dag.mem_deps() {
        if let (Some(a), Some(b)) = (map[earlier.index()], map[later.index()]) {
            if a < b {
                out.add_mem_dep(a, b);
            }
        }
    }
    for &(sym, n) in dag.live_outs() {
        if let Some(m) = map[n.index()] {
            out.mark_live_out(sym, m);
        }
    }
    (out, map)
}

fn remap_terminator(term: &mut Terminator, map: &[Option<NodeId>]) {
    match term {
        Terminator::Branch { cond, .. } => {
            *cond = map[cond.index()].expect("branch condition eliminated");
        }
        Terminator::Return(Some(v)) => {
            *v = map[v.index()].expect("return value eliminated");
        }
        _ => {}
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::interp::run_function;
    use crate::parser::parse_function;

    #[test]
    fn constant_folding_shrinks_and_preserves_semantics() {
        let src = "func f(a) { x = (2 + 3) * a; y = 4 * 5; z = x + y; return z; }";
        let mut f = parse_function(src).unwrap();
        let before = run_function(&f, &[7]).unwrap();
        let n_before = f.blocks[0].dag.len();
        let removed = fold_constants(&mut f);
        f.validate().unwrap();
        assert!(removed > 0);
        assert!(f.blocks[0].dag.len() < n_before);
        // y folds entirely to a constant 20.
        assert!(f.blocks[0]
            .dag
            .iter()
            .any(|(_, n)| n.op == Op::Const && n.imm == Some(20)));
        let after = run_function(&f, &[7]).unwrap();
        assert_eq!(before.return_value, after.return_value);
        assert_eq!(before.return_value, Some(5 * 7 + 20));
    }

    #[test]
    fn dead_store_pruning_respects_observability() {
        let src = "func f(a) { t = a * 3; u = t + 1; return u; }";
        let mut f = parse_function(src).unwrap();
        // With everything observable nothing is pruned.
        let all: Vec<Sym> = f.syms.iter().map(|(s, _)| s).collect();
        assert_eq!(prune_dead_stores(&mut f, &all), 0);
        // With only `u` observable, the stores of t (never read later) go.
        let u = f.syms.get("u").unwrap();
        let removed = prune_dead_stores(&mut f, &[u]);
        assert_eq!(removed, 1);
        f.validate().unwrap();
        let r = run_function(&f, &[5]).unwrap();
        assert_eq!(r.return_value, Some(16));
    }

    #[test]
    fn dead_store_pruning_keeps_cross_block_reads() {
        let src = "func f(a) {
            t = a + 1;
            goto next;
        next:
            return t * 2;
        }";
        let mut f = parse_function(src).unwrap();
        let removed = prune_dead_stores(&mut f, &[]);
        assert_eq!(removed, 0, "t is read in the next block");
        assert_eq!(run_function(&f, &[4]).unwrap().return_value, Some(10));
    }

    /// Global liveness from the generic solver with every variable of
    /// `observable` live at exit, as the dead-code passes solved it
    /// before they kept their own rows.
    fn solver_liveness(f: &Function, observable: &[Sym]) -> crate::dataflow::Liveness {
        let mut exit_live = BitSet::new(f.syms.len());
        for s in observable {
            exit_live.insert(s.index());
        }
        crate::dataflow::liveness(f, &exit_live)
    }

    /// The check `dead_code_free` replaced: liveness from the generic
    /// solver, and a fresh bit set per reachability walk.
    fn solver_dead_code_free(f: &Function, observable: &[Sym]) -> bool {
        let lv = solver_liveness(f, observable);
        f.blocks.iter().zip(&lv.live_out).all(|(block, live_out)| {
            let dag = &block.dag;
            dag.stores().iter().all(|&s| {
                let node = dag.node(s);
                node.op != Op::StoreVar || live_out.contains(node.sym.unwrap().index())
            }) && dag.value_numbers_unique()
                && reachable(dag, dag.roots()).count() == dag.len()
        })
    }

    /// `dead_code_free` never hides a removal, recognises clean
    /// functions, and answers as the solver-based check does from the
    /// same live-out sets: over random functions, with every variable or
    /// only the inputs observable, it holds only where
    /// `eliminate_dead_code` removes nothing, and both outcomes occur.
    #[test]
    fn dead_code_free_never_hides_a_removal() {
        use crate::randdag::{random_function, RandDagConfig};
        let cfg = RandDagConfig {
            n_ops: 6,
            n_inputs: 3,
            n_outputs: 2,
            ..Default::default()
        };
        let (mut clean, mut dirty) = (0, 0);
        for seed in 0..40 {
            for n_blocks in [1usize, 3, 6] {
                let f = random_function(&cfg, n_blocks, seed);
                let all: Vec<Sym> = f.syms.iter().map(|(s, _)| s).collect();
                for observable in [&all[..], &all[..cfg.n_inputs]] {
                    let removed = eliminate_dead_code(&mut f.clone(), observable);
                    let free = dead_code_free(&f, observable);
                    assert_eq!(free, solver_dead_code_free(&f, observable), "seed {seed}");
                    let solved = solver_liveness(&f, observable);
                    LIVE.with_borrow(|rows| {
                        for (b, want) in solved.live_out.iter().enumerate() {
                            let got = &rows.live_out[b * rows.words..(b + 1) * rows.words];
                            for i in 0..f.syms.len() {
                                let live = got[i / 64] & (1 << (i % 64)) != 0;
                                assert_eq!(live, want.contains(i), "seed {seed} bb{b}");
                            }
                        }
                    });
                    if free {
                        assert_eq!(removed, 0, "seed {seed}, {n_blocks} blocks");
                        clean += 1;
                    } else if removed > 0 {
                        dirty += 1;
                    }
                }
            }
        }
        assert!(clean > 0 && dirty > 0, "{clean} clean, {dirty} dirty");
    }

    /// Two constants given one value by `set_const_value` are merged by a
    /// rebuild, so the function is not dead-code free.
    #[test]
    fn dead_code_free_sees_constants_a_rebuild_would_merge() {
        let mut f = parse_function("func f(a) { x = a + 1; y = a * 2; return x + y; }").unwrap();
        let all: Vec<Sym> = f.syms.iter().map(|(s, _)| s).collect();
        assert!(dead_code_free(&f, &all));
        let dag = &mut f.blocks[0].dag;
        let two = dag
            .iter()
            .find(|(_, n)| n.op == Op::Const && n.imm == Some(2))
            .map(|(id, _)| id)
            .unwrap();
        assert!(dag.set_const_value(two, 1));
        assert!(!dead_code_free(&f, &all));
        assert!(eliminate_dead_code(&mut f, &all) > 0);
    }

    #[test]
    fn merge_sequential_is_composition() {
        // Two blocks of ONE function share a symbol table, which is the
        // merge_sequential contract.
        let f = parse_function(
            "func a(x) {
                y = x + 1;
                x = y * 2;
                goto second;
            second:
                z = x * x;
                x = z - 1;
            }",
        )
        .unwrap();
        let mut merged = f.blocks[0].dag.clone();
        merge_sequential(&mut merged, &f.blocks[1].dag);
        merged.validate().unwrap();
        // Build a single-block function around the merged DAG.
        let mut mf = f.clone();
        mf.blocks.truncate(1);
        mf.blocks[0].dag = merged;
        mf.blocks[0].term = Terminator::Return(None);
        mf.validate().unwrap();
        // x=3 -> y=4, x=8 -> z=64, x=63.
        let mut i = crate::interp::Interpreter::new(&mf);
        i.args(&[3]);
        i.run().unwrap();
        assert_eq!(i.read_var("y"), Some(4));
        assert_eq!(i.read_var("z"), Some(64));
        assert_eq!(i.read_var("x"), Some(63));
    }

    #[test]
    fn unroll_preserves_semantics_for_divisible_trips() {
        let src = "func sum(n) {
            s = 0;
            i = 0;
        head:
            s = s + i;
            i = i + 1;
            if (i < n) goto head;
            return s;
        }";
        let mut f = parse_function(src).unwrap();
        let before = run_function(&f, &[6]).unwrap();
        // `head` is block 1 and loops on itself.
        unroll_self_loop(&mut f, BlockId(1), 2).unwrap();
        f.validate().unwrap();
        let after = run_function(&f, &[6]).unwrap();
        assert_eq!(before.return_value, after.return_value);
        assert_eq!(after.return_value, Some(15));
        // Half as many loop iterations execute.
        assert!(after.blocks_executed < before.blocks_executed);
        // The unrolled DAG is bigger than the original body.
        assert!(f.blocks[1].dag.len() > 6);
    }

    #[test]
    fn unroll_rejects_non_loops() {
        let mut f = parse_function("func f(a) { return a; }").unwrap();
        assert!(unroll_self_loop(&mut f, BlockId(0), 2).is_err());
    }

    #[test]
    fn unroll_by_four() {
        let src = "func sum(n) {
            s = 0;
            i = 0;
        head:
            s = s + i * i;
            i = i + 1;
            if (i < n) goto head;
            return s;
        }";
        let mut f = parse_function(src).unwrap();
        unroll_self_loop(&mut f, BlockId(1), 4).unwrap();
        f.validate().unwrap();
        let r = run_function(&f, &[8]).unwrap();
        let expect: i64 = (0..8).map(|i| i * i).sum();
        assert_eq!(r.return_value, Some(expect));
    }
}
