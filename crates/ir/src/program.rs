//! Functions, basic blocks, terminators, and the control-flow graph.
//!
//! The AVIV back end receives "a collection of basic blocks connected by
//! control flow information" (paper §III-C). Each [`BasicBlock`] owns one
//! expression [`BlockDag`]; the [`Terminator`] carries the control-flow
//! instruction that conventional tree covering lowers separately from the
//! Split-Node DAG machinery.
//!
//! # Inter-block value model
//!
//! Code is generated one basic block at a time (as in the paper), so values
//! that cross block boundaries live in *named variables* resident in data
//! memory: a block reads entry values through [`crate::Op::Input`] leaves
//! and writes its final assignments back through [`crate::Op::StoreVar`]
//! roots. [`MemLayout`] fixes the address of every named variable; the
//! interpreter and the simulator share it, which is what makes end-to-end
//! differential testing possible.

use crate::dag::{BlockDag, NodeId};
use crate::symbols::{Sym, SymbolTable};
use std::fmt;

/// Index of a basic block within a [`Function`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct BlockId(pub u32);

impl BlockId {
    /// Raw vector index.
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Display for BlockId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "bb{}", self.0)
    }
}

/// How control leaves a basic block.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Terminator {
    /// Unconditional jump.
    Jump(BlockId),
    /// Two-way branch on the value of `cond` (a comparison node in this
    /// block's DAG): nonzero goes to `if_true`.
    Branch {
        /// The condition node; must produce a value in this block's DAG.
        cond: NodeId,
        /// Successor when the condition is nonzero.
        if_true: BlockId,
        /// Successor when the condition is zero.
        if_false: BlockId,
    },
    /// Return from the function, optionally with a value node.
    Return(Option<NodeId>),
}

impl Terminator {
    /// Successor blocks in branch order (at most two).
    pub fn successors(&self) -> impl Iterator<Item = BlockId> {
        let (first, second) = match *self {
            Terminator::Jump(t) => (Some(t), None),
            Terminator::Branch {
                if_true, if_false, ..
            } => (Some(if_true), Some(if_false)),
            Terminator::Return(_) => (None, None),
        };
        first.into_iter().chain(second)
    }
}

/// One basic block: a label, an expression DAG, and a terminator.
#[derive(Debug, Clone)]
pub struct BasicBlock {
    /// Source-level label, if the block was labelled.
    pub label: Option<Sym>,
    /// The block's computation as an expression DAG.
    pub dag: BlockDag,
    /// Control flow out of the block.
    pub term: Terminator,
}

/// A function: symbol table, parameters, and a CFG of basic blocks.
#[derive(Debug, Clone)]
pub struct Function {
    /// Function name.
    pub name: String,
    /// Parameter variables, pre-loaded in memory at entry.
    pub params: Vec<Sym>,
    /// Blocks; [`Function::entry`] is executed first.
    pub blocks: Vec<BasicBlock>,
    /// The entry block.
    pub entry: BlockId,
    /// Names for all variables and labels in the function.
    pub syms: SymbolTable,
}

impl Function {
    /// Access a block.
    pub fn block(&self, id: BlockId) -> &BasicBlock {
        &self.blocks[id.index()]
    }

    /// Iterate `(BlockId, &BasicBlock)` in layout order.
    pub fn iter(&self) -> impl Iterator<Item = (BlockId, &BasicBlock)> {
        self.blocks
            .iter()
            .enumerate()
            .map(|(i, b)| (BlockId(i as u32), b))
    }

    /// Predecessor lists indexed by block.
    pub fn predecessors(&self) -> Vec<Vec<BlockId>> {
        let mut preds = vec![Vec::new(); self.blocks.len()];
        for (id, b) in self.iter() {
            for s in b.term.successors() {
                preds[s.index()].push(id);
            }
        }
        preds
    }

    /// Blocks in reverse post-order from the entry (a supersequence-friendly
    /// iteration order for forward dataflow).
    pub fn reverse_postorder(&self) -> Vec<BlockId> {
        let n = self.blocks.len();
        let mut visited = vec![false; n];
        let mut post = Vec::with_capacity(n);
        // Iterative DFS with an explicit stack of (block, next-successor).
        let mut stack = vec![(self.entry, 0usize)];
        visited[self.entry.index()] = true;
        while let Some(&mut (b, ref mut next)) = stack.last_mut() {
            if let Some(s) = self.block(b).term.successors().nth(*next) {
                *next += 1;
                if !visited[s.index()] {
                    visited[s.index()] = true;
                    stack.push((s, 0));
                }
            } else {
                post.push(b);
                stack.pop();
            }
        }
        post.reverse();
        post
    }

    /// Structural validation of every block and terminator target.
    pub fn validate(&self) -> Result<(), String> {
        if self.entry.index() >= self.blocks.len() {
            return Err("entry block out of range".into());
        }
        for (id, b) in self.iter() {
            b.dag.validate().map_err(|e| format!("{id}: {e}"))?;
            for s in b.term.successors() {
                if s.index() >= self.blocks.len() {
                    return Err(format!("{id}: successor {s} out of range"));
                }
            }
            if let Terminator::Branch { cond, .. } = b.term {
                if cond.index() >= b.dag.len() {
                    return Err(format!("{id}: branch condition {cond} out of range"));
                }
                if !b.dag.node(cond).op.produces_value() {
                    return Err(format!("{id}: branch condition {cond} produces no value"));
                }
            }
            if let Terminator::Return(Some(v)) = b.term {
                if v.index() >= b.dag.len() || !b.dag.node(v).op.produces_value() {
                    return Err(format!("{id}: invalid return value node"));
                }
            }
        }
        Ok(())
    }

    /// Total DAG nodes across all blocks.
    pub fn total_nodes(&self) -> usize {
        self.blocks.iter().map(|b| b.dag.len()).sum()
    }
}

/// Address assignment for named variables and the start of the open
/// dynamically addressed region.
///
/// Named variables occupy addresses `0..n`; dynamic `mem[...]` accesses
/// should use addresses at or above [`MemLayout::dynamic_base`] — the
/// front end cannot check this statically, and aliasing a named variable
/// through a dynamic address is unspecified behavior (the interpreter and
/// the simulator may disagree about it under reordering).
#[derive(Debug, Clone)]
pub struct MemLayout {
    addrs: Vec<i64>,
    dynamic_base: i64,
}

impl MemLayout {
    /// Assign every symbol in the function's table a distinct address.
    pub fn for_function(f: &Function) -> Self {
        let n = f.syms.len();
        MemLayout {
            addrs: (0..n as i64).collect(),
            dynamic_base: 1024.max(n as i64),
        }
    }

    /// Address of a named variable.
    pub fn addr(&self, sym: Sym) -> i64 {
        self.addrs[sym.index()]
    }

    /// First address of the open dynamic region.
    pub fn dynamic_base(&self) -> i64 {
        self.dynamic_base
    }

    /// Reserve a fresh address beyond all named variables and previously
    /// reserved slots (used by the code generator for spill slots).
    pub fn reserve_slot(&mut self, sym: Sym) -> i64 {
        assert_eq!(sym.index(), self.addrs.len(), "reserve slots in sym order");
        let a = self.addrs.len() as i64;
        self.addrs.push(a);
        self.dynamic_base = self.dynamic_base.max(a + 1).max(1024);
        a
    }

    /// Number of symbols with assigned addresses.
    pub fn known_symbols(&self) -> usize {
        self.addrs.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::op::Op;

    fn two_block_function() -> Function {
        let mut syms = SymbolTable::new();
        let x = syms.intern("x");
        let y = syms.intern("y");

        // bb0: y = x + 1; if (y > 10) goto bb1 else bb1 (self-contained).
        let mut dag0 = BlockDag::new();
        let nx = dag0.add_input(x);
        let one = dag0.add_const(1);
        let sum = dag0.add_op(Op::Add, &[nx, one]);
        dag0.add_store_var(y, sum);
        let ten = dag0.add_const(10);
        let cond = dag0.add_op(Op::CmpGt, &[sum, ten]);

        let mut dag1 = BlockDag::new();
        let ny = dag1.add_input(y);
        let two = dag1.add_const(2);
        let prod = dag1.add_op(Op::Mul, &[ny, two]);

        Function {
            name: "f".into(),
            params: vec![x],
            blocks: vec![
                BasicBlock {
                    label: None,
                    dag: dag0,
                    term: Terminator::Branch {
                        cond,
                        if_true: BlockId(1),
                        if_false: BlockId(1),
                    },
                },
                BasicBlock {
                    label: None,
                    dag: dag1,
                    term: Terminator::Return(Some(prod)),
                },
            ],
            entry: BlockId(0),
            syms,
        }
    }

    #[test]
    fn validate_and_cfg() {
        let f = two_block_function();
        f.validate().unwrap();
        assert_eq!(f.reverse_postorder(), vec![BlockId(0), BlockId(1)]);
        let preds = f.predecessors();
        assert_eq!(preds[1], vec![BlockId(0), BlockId(0)]);
        assert!(preds[0].is_empty());
    }

    #[test]
    fn layout_is_injective() {
        let f = two_block_function();
        let layout = MemLayout::for_function(&f);
        let mut seen = std::collections::HashSet::new();
        for (s, _) in f.syms.iter() {
            assert!(seen.insert(layout.addr(s)), "duplicate address");
        }
        assert!(layout.dynamic_base() >= f.syms.len() as i64);
    }

    #[test]
    fn invalid_successor_rejected() {
        let mut f = two_block_function();
        f.blocks[1].term = Terminator::Jump(BlockId(9));
        assert!(f.validate().is_err());
    }
}
