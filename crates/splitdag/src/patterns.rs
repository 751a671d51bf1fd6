//! Complex-instruction pattern matching on basic-block DAGs.
//!
//! "The Split-Node DAG structure can easily incorporate complex
//! instructions ... by utilizing an initial pattern matching phase that
//! detects which nodes in the original expression DAG can be covered by a
//! complex instruction supported by the target processor" (paper §III-B).
//!
//! A match binds a [`ComplexInstr`] pattern rooted at some DAG node; the
//! interior nodes it swallows must be used *only* inside the match
//! (otherwise their value would still have to be computed separately and
//! fusing would save nothing). A match whose distinct non-constant
//! operands outnumber the registers of its unit's bank is dropped: the
//! instruction reads them all from that bank at once, so no schedule
//! could issue it.

use aviv_ir::{BlockDag, Consumers, NodeId, Op};
use aviv_isdl::{PatTree, Target};
use std::cell::RefCell;

/// One way a complex instruction can cover part of the DAG.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ComplexMatch {
    /// Index into [`Machine::complexes`].
    pub complex: usize,
    /// The DAG node matched by the pattern root (the value the
    /// instruction produces).
    pub root: NodeId,
    /// Every DAG node the match covers (root plus swallowed interiors),
    /// in discovery order with the root first.
    pub covers: Vec<NodeId>,
    /// The DAG nodes bound to the pattern's operands, indexed by pattern
    /// argument number.
    pub operands: Vec<NodeId>,
}

/// Buffers reused by every match on a thread, so that matching a block
/// allocates only the matches it returns once the buffers have grown to
/// the largest block and pattern seen.
#[derive(Debug, Default)]
struct MatchScratch {
    /// The block's consumers: an interior node must have exactly one.
    consumers: Consumers,
    /// Per node, whether it is a block root (a store or a live-out).
    is_root: Vec<bool>,
    /// The node bound to each pattern operand so far.
    operands: Vec<Option<NodeId>>,
    /// The nodes the match covers so far.
    covers: Vec<NodeId>,
    /// The operands bound so far, in binding order: backtracking unbinds
    /// the ones bound since its snapshot.
    trail: Vec<usize>,
}

thread_local! {
    static SCRATCH: RefCell<MatchScratch> = RefCell::new(MatchScratch::default());
}

/// Find every complex-instruction match in `dag` for `target`.
///
/// Matches are returned grouped by root in node order; the Split-Node DAG
/// adds each as an extra alternative under the root's split node.
///
/// Candidate patterns come from the target's precomputed root-op index
/// ([`aviv_isdl::OpDb::complexes_rooted_at`]): the table is built once per
/// target and shared read-only across blocks and worker threads, so each
/// node only tries the patterns whose root operation matches its own.
pub fn match_complexes(dag: &BlockDag, target: &Target) -> Vec<ComplexMatch> {
    let mut out = Vec::new();
    match_into(dag, target, &mut out);
    out
}

/// Append every complex-instruction match in `dag` to `out`, in the
/// order [`match_complexes`] returns them. The Split-Node DAG builder
/// matches through here, so every matcher on a thread shares one
/// scratch.
pub(crate) fn match_into(dag: &BlockDag, target: &Target, out: &mut Vec<ComplexMatch>) {
    SCRATCH.with_borrow_mut(|scratch| scratch.match_into(dag, target, out));
}

impl MatchScratch {
    fn match_into(&mut self, dag: &BlockDag, target: &Target, out: &mut Vec<ComplexMatch>) {
        let machine = &target.machine;
        if machine.complexes().is_empty() {
            return;
        }
        self.consumers.rebuild(dag);
        self.is_root.clear();
        self.is_root.resize(dag.len(), false);
        for &s in dag.stores() {
            self.is_root[s.index()] = true;
        }
        for &(_, n) in dag.live_outs() {
            self.is_root[n.index()] = true;
        }
        for (id, node) in dag.iter() {
            if node.op.is_leaf() || node.op.is_store() {
                continue;
            }
            for &ci in target.ops.complexes_rooted_at(node.op) {
                let cx = &machine.complexes()[ci];
                self.operands.clear();
                self.operands.resize(cx.pattern.arg_count(), None);
                self.covers.clear();
                self.trail.clear();
                if self.try_match(dag, id, &cx.pattern, true) && self.fits_bank(dag, target, ci) {
                    out.push(ComplexMatch {
                        complex: ci,
                        root: id,
                        covers: self.covers.clone(),
                        operands: self.operands.iter().map(|o| o.expect("bound")).collect(),
                    });
                }
            }
        }
    }

    /// Whether the bound operands' distinct non-constant nodes, each a
    /// register operand of complex `ci`, fit in its unit's bank.
    fn fits_bank(&self, dag: &BlockDag, target: &Target, ci: usize) -> bool {
        let machine = &target.machine;
        let bank = machine.bank(machine.bank_of(machine.complexes()[ci].unit));
        let operands = &self.operands;
        let registers = (0..operands.len())
            .filter(|&k| {
                let o = operands[k].expect("bound");
                dag.node(o).op != Op::Const && !operands[..k].contains(&Some(o))
            })
            .count();
        registers <= bank.size as usize
    }

    /// Attempt to match `pat` at `node`, backtracking on failure.
    /// Interior (non-root) op nodes must be single-use and not themselves
    /// DAG roots. Commutative operations are tried in both operand orders
    /// (the DAG canonicalizes commutative operand order, which need not
    /// agree with the pattern's).
    fn try_match(&mut self, dag: &BlockDag, node: NodeId, pat: &PatTree, is_root: bool) -> bool {
        match pat {
            PatTree::Arg(i) => match self.operands[*i] {
                None => {
                    self.operands[*i] = Some(node);
                    self.trail.push(*i);
                    true
                }
                Some(bound) => bound == node,
            },
            PatTree::Op(op, subs) => {
                let n = dag.node(node);
                if n.op != *op {
                    return false;
                }
                // A swallowed interior node must have exactly one consumer
                // (the match parent) and must not be observable.
                if !is_root && (self.consumers.of(node).len() != 1 || self.is_root[node.index()]) {
                    return false;
                }
                let args = &n.args;
                let swappable = op.is_commutative() && args.len() >= 2 && args[0] != args[1];
                'order: for swapped in [false, true] {
                    if swapped && !swappable {
                        break;
                    }
                    // Snapshot for backtracking.
                    let (bound, covered) = (self.trail.len(), self.covers.len());
                    self.covers.push(node);
                    for (k, sub) in subs.iter().enumerate().take(args.len()) {
                        let arg = if swapped && k < 2 {
                            args[1 - k]
                        } else {
                            args[k]
                        };
                        if !self.try_match(dag, arg, sub, false) {
                            for i in self.trail.drain(bound..) {
                                self.operands[i] = None;
                            }
                            self.covers.truncate(covered);
                            continue 'order;
                        }
                    }
                    return true;
                }
                false
            }
        }
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use aviv_ir::parse_function;
    use aviv_isdl::archs::dsp_arch;
    use aviv_isdl::MachineBuilder;

    /// The matcher the scratch-based one replaced: a hash set of roots,
    /// and fresh operand, cover and order vectors per attempt. The
    /// Split-Node DAG oracle compares the two.
    pub(crate) mod reference {
        use crate::patterns::ComplexMatch;
        use aviv_ir::{BlockDag, Consumers, NodeId};
        use aviv_isdl::{PatTree, Target};
        use std::collections::HashSet;

        pub(crate) fn match_complexes(dag: &BlockDag, target: &Target) -> Vec<ComplexMatch> {
            let machine = &target.machine;
            let uses = Consumers::new(dag);
            let root_ids: HashSet<NodeId> = dag.roots().into_iter().collect();
            let mut out = Vec::new();
            for (id, node) in dag.iter() {
                if node.op.is_leaf() || node.op.is_store() {
                    continue;
                }
                for &ci in target.ops.complexes_rooted_at(node.op) {
                    let cx = &machine.complexes()[ci];
                    let mut operands: Vec<Option<NodeId>> = vec![None; cx.pattern.arg_count()];
                    let mut covers = Vec::new();
                    let context = (dag, &uses, &root_ids);
                    if try_match(context, id, &cx.pattern, true, &mut operands, &mut covers) {
                        let operands: Vec<NodeId> =
                            operands.into_iter().map(|o| o.expect("bound")).collect();
                        let registers: HashSet<NodeId> = operands
                            .iter()
                            .copied()
                            .filter(|&o| dag.node(o).op != aviv_ir::Op::Const)
                            .collect();
                        let bank = machine.bank(machine.bank_of(cx.unit));
                        if registers.len() > bank.size as usize {
                            continue;
                        }
                        out.push(ComplexMatch {
                            complex: ci,
                            root: id,
                            covers,
                            operands,
                        });
                    }
                }
            }
            out
        }

        fn try_match(
            context: (&BlockDag, &Consumers, &HashSet<NodeId>),
            node: NodeId,
            pat: &PatTree,
            is_root: bool,
            operands: &mut Vec<Option<NodeId>>,
            covers: &mut Vec<NodeId>,
        ) -> bool {
            let (dag, uses, root_ids) = context;
            match pat {
                PatTree::Arg(i) => match operands[*i] {
                    None => {
                        operands[*i] = Some(node);
                        true
                    }
                    Some(bound) => bound == node,
                },
                PatTree::Op(op, subs) => {
                    let n = dag.node(node);
                    if n.op != *op {
                        return false;
                    }
                    if !is_root && (uses.of(node).len() != 1 || root_ids.contains(&node)) {
                        return false;
                    }
                    let mut orders: Vec<Vec<NodeId>> = vec![n.args.clone()];
                    if op.is_commutative() && n.args.len() >= 2 && n.args[0] != n.args[1] {
                        let mut swapped = n.args.clone();
                        swapped.swap(0, 1);
                        orders.push(swapped);
                    }
                    'order: for args in orders {
                        let saved_operands = operands.clone();
                        let saved_covers = covers.len();
                        covers.push(node);
                        for (arg, sub) in args.iter().zip(subs) {
                            if !try_match(context, *arg, sub, false, operands, covers) {
                                *operands = saved_operands;
                                covers.truncate(saved_covers);
                                continue 'order;
                            }
                        }
                        return true;
                    }
                    false
                }
            }
        }
    }

    #[test]
    fn mac_matches_mul_feeding_add() {
        let f = parse_function("func f(a, b, c) { y = a * b + c; }").unwrap();
        let t = Target::new(dsp_arch(4));
        let matches = match_complexes(&f.blocks[0].dag, &t);
        assert_eq!(matches.len(), 1);
        let mm = &matches[0];
        assert_eq!(mm.covers.len(), 2, "add and mul");
        assert_eq!(mm.operands.len(), 3);
        // Operands are a, b, c in pattern order.
        let dag = &f.blocks[0].dag;
        let names: Vec<&str> = mm
            .operands
            .iter()
            .map(|&o| f.syms.name(dag.node(o).sym.unwrap()))
            .collect();
        assert_eq!(names, vec!["a", "b", "c"]);
    }

    #[test]
    fn commutative_add_matches_either_side() {
        // c + a*b: the DAG canonicalizes commutative operand order by node
        // id, which puts `c` first here; the matcher must retry the
        // swapped order to find the mul.
        let f = parse_function("func f(a, b, c) { y = c + a * b; }").unwrap();
        let t = Target::new(dsp_arch(4));
        let matches = match_complexes(&f.blocks[0].dag, &t);
        assert_eq!(matches.len(), 1, "commutative retry finds the mul");
    }

    #[test]
    fn multi_use_interior_blocks_match() {
        // The mul result is also stored, so it cannot be swallowed.
        let f = parse_function("func f(a, b, c) { t = a * b; y = t + c; z = t; }").unwrap();
        let t = Target::new(dsp_arch(4));
        let matches = match_complexes(&f.blocks[0].dag, &t);
        assert!(matches.is_empty());
    }

    #[test]
    fn repeated_arg_requires_same_node() {
        use aviv_ir::Op;
        use aviv_isdl::PatTree;
        let mut b = MachineBuilder::new("sq");
        let u1 = b.unit("U1", &[Op::Mul, Op::Add], 4);
        b.bus("DB", &[u1], true, 1);
        b.complex(
            "sq",
            u1,
            PatTree::Op(Op::Mul, vec![PatTree::Arg(0), PatTree::Arg(0)]),
        );
        let m = b.build().unwrap();

        let f = parse_function("func f(a, b) { x = a * a; y = a * b; }").unwrap();
        let matches = match_complexes(&f.blocks[0].dag, &Target::new(m));
        assert_eq!(matches.len(), 1, "only a*a matches sq");
        assert_eq!(matches[0].operands.len(), 1);
    }

    #[test]
    fn two_macs_in_one_block() {
        let f = parse_function("func f(a, b, c, d, e) { x = a * b + c; y = d * e + x; }").unwrap();
        let t = Target::new(dsp_arch(4));
        let matches = match_complexes(&f.blocks[0].dag, &t);
        // x's add has a mul child (a*b): match. y's add has mul (d*e): match.
        assert_eq!(matches.len(), 2);
    }

    /// `mac` reads three registers: a two-register bank cannot feed it,
    /// unless operands repeat or are constants.
    #[test]
    fn matches_too_wide_for_the_bank_are_dropped() {
        let count = |src: &str, regs| {
            let f = parse_function(src).unwrap();
            match_complexes(&f.blocks[0].dag, &Target::new(dsp_arch(regs))).len()
        };
        assert_eq!(count("func f(a, b, c) { y = a * b + c; }", 3), 1);
        assert_eq!(count("func f(a, b, c) { y = a * b + c; }", 2), 0);
        assert_eq!(count("func f(a, c) { y = a * a + c; }", 2), 1, "a repeats");
        assert_eq!(
            count("func f(a, b) { y = a * b + 3; }", 2),
            1,
            "3 is an immediate"
        );
    }

    #[test]
    fn no_complexes_no_matches() {
        let f = parse_function("func f(a, b, c) { y = a * b + c; }").unwrap();
        let t = Target::new(aviv_isdl::archs::example_arch(4));
        assert!(match_complexes(&f.blocks[0].dag, &t).is_empty());
    }
}
