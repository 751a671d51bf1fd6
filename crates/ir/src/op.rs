//! Machine-independent operations carried by DAG nodes.
//!
//! This is the vocabulary shared between the front end (SUIF-equivalent),
//! the machine description, and the code generator: the paper's ISDL
//! databases correlate target-processor operations with exactly this kind of
//! "SUIF basic operation" set (ADD, SUB, ...).

use std::fmt;

/// A machine-independent basic operation.
///
/// Arithmetic is two's-complement on `i64` with wrapping semantics; shifts
/// mask their amount to six bits; division by zero yields zero (embedded
/// DSP-style saturating environments differ, but the oracle and the
/// simulator agree on one semantics, which is all the reproduction needs).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum Op {
    /// Integer constant leaf. Carries its value in [`crate::DagNode::imm`].
    Const,
    /// Named input variable leaf, resident in data memory at block entry.
    Input,
    /// Addition.
    Add,
    /// Subtraction.
    Sub,
    /// Multiplication.
    Mul,
    /// Division (x / 0 == 0).
    Div,
    /// Bitwise AND.
    And,
    /// Bitwise OR.
    Or,
    /// Bitwise XOR.
    Xor,
    /// Left shift (amount masked to 6 bits).
    Shl,
    /// Arithmetic right shift (amount masked to 6 bits).
    Shr,
    /// Arithmetic negation.
    Neg,
    /// Bitwise complement (the paper's COMPL).
    Compl,
    /// Absolute value.
    Abs,
    /// Minimum of two values.
    Min,
    /// Maximum of two values.
    Max,
    /// Multiply-accumulate `a * b + c`; only produced by complex-instruction
    /// matching, never by the front end.
    Mac,
    /// Load from a dynamically computed address: `mem[addr]`.
    Load,
    /// Store to a dynamically computed address: `mem[addr] = value`
    /// (operands are `[addr, value]`).
    Store,
    /// Store to a named variable: `name = value` for a live-out variable.
    StoreVar,
    /// Compare equal, producing 0 or 1.
    CmpEq,
    /// Compare not-equal, producing 0 or 1.
    CmpNe,
    /// Compare signed less-than, producing 0 or 1.
    CmpLt,
    /// Compare signed less-or-equal, producing 0 or 1.
    CmpLe,
    /// Compare signed greater-than, producing 0 or 1.
    CmpGt,
    /// Compare signed greater-or-equal, producing 0 or 1.
    CmpGe,
}

impl Op {
    /// Number of operations: [`Op::index`] is below it.
    pub const COUNT: usize = Op::CmpGe as usize + 1;

    /// The operation's position in declaration order, for tables indexed
    /// by operation.
    pub fn index(self) -> usize {
        self as usize
    }

    /// Number of value operands the operation consumes.
    pub fn arity(self) -> usize {
        use Op::*;
        match self {
            Const | Input => 0,
            Neg | Compl | Abs | Load => 1,
            StoreVar => 1,
            Add | Sub | Mul | Div | And | Or | Xor | Shl | Shr | Min | Max | Store | CmpEq
            | CmpNe | CmpLt | CmpLe | CmpGt | CmpGe => 2,
            Mac => 3,
        }
    }

    /// True for the two leaf kinds ([`Op::Const`] and [`Op::Input`]).
    pub fn is_leaf(self) -> bool {
        matches!(self, Op::Const | Op::Input)
    }

    /// True for operations whose first two operands commute.
    pub fn is_commutative(self) -> bool {
        use Op::*;
        matches!(
            self,
            Add | Mul | And | Or | Xor | Min | Max | CmpEq | CmpNe | Mac
        )
    }

    /// True for the root-only store operations that anchor live-out values.
    pub fn is_store(self) -> bool {
        matches!(self, Op::Store | Op::StoreVar)
    }

    /// True for comparison operations producing a 0/1 flag value.
    pub fn is_compare(self) -> bool {
        use Op::*;
        matches!(self, CmpEq | CmpNe | CmpLt | CmpLe | CmpGt | CmpGe)
    }

    /// True for operations that produce a value usable by other nodes.
    pub fn produces_value(self) -> bool {
        !self.is_store()
    }

    /// Evaluate the operation on already-evaluated operands.
    ///
    /// # Panics
    ///
    /// Panics if `args.len() != self.arity()` or if called on a leaf or
    /// memory operation (those are handled by the interpreter, which owns
    /// the environment).
    pub fn eval(self, args: &[i64]) -> i64 {
        use Op::*;
        assert_eq!(args.len(), self.arity(), "arity mismatch for {self}");
        match self {
            Add => args[0].wrapping_add(args[1]),
            Sub => args[0].wrapping_sub(args[1]),
            Mul => args[0].wrapping_mul(args[1]),
            Div => {
                if args[1] == 0 {
                    0
                } else {
                    args[0].wrapping_div(args[1])
                }
            }
            And => args[0] & args[1],
            Or => args[0] | args[1],
            Xor => args[0] ^ args[1],
            Shl => args[0].wrapping_shl((args[1] & 0x3f) as u32),
            Shr => args[0].wrapping_shr((args[1] & 0x3f) as u32),
            Neg => args[0].wrapping_neg(),
            Compl => !args[0],
            Abs => args[0].wrapping_abs(),
            Min => args[0].min(args[1]),
            Max => args[0].max(args[1]),
            Mac => args[0].wrapping_mul(args[1]).wrapping_add(args[2]),
            CmpEq => (args[0] == args[1]) as i64,
            CmpNe => (args[0] != args[1]) as i64,
            CmpLt => (args[0] < args[1]) as i64,
            CmpLe => (args[0] <= args[1]) as i64,
            CmpGt => (args[0] > args[1]) as i64,
            CmpGe => (args[0] >= args[1]) as i64,
            Const | Input | Load | Store | StoreVar => {
                panic!("{self} is not a pure value operation")
            }
        }
    }

    /// Lower-case mnemonic used by printers, the ISDL language, and the
    /// assembler.
    pub fn mnemonic(self) -> &'static str {
        use Op::*;
        match self {
            Const => "const",
            Input => "input",
            Add => "add",
            Sub => "sub",
            Mul => "mul",
            Div => "div",
            And => "and",
            Or => "or",
            Xor => "xor",
            Shl => "shl",
            Shr => "shr",
            Neg => "neg",
            Compl => "compl",
            Abs => "abs",
            Min => "min",
            Max => "max",
            Mac => "mac",
            Load => "load",
            Store => "store",
            StoreVar => "storev",
            CmpEq => "cmpeq",
            CmpNe => "cmpne",
            CmpLt => "cmplt",
            CmpLe => "cmple",
            CmpGt => "cmpgt",
            CmpGe => "cmpge",
        }
    }

    /// Parse a mnemonic produced by [`Op::mnemonic`].
    pub fn from_mnemonic(s: &str) -> Option<Op> {
        use Op::*;
        Some(match s {
            "const" => Const,
            "input" => Input,
            "add" => Add,
            "sub" => Sub,
            "mul" => Mul,
            "div" => Div,
            "and" => And,
            "or" => Or,
            "xor" => Xor,
            "shl" => Shl,
            "shr" => Shr,
            "neg" => Neg,
            "compl" | "not" => Compl,
            "abs" => Abs,
            "min" => Min,
            "max" => Max,
            "mac" => Mac,
            "load" => Load,
            "store" => Store,
            "storev" => StoreVar,
            "cmpeq" => CmpEq,
            "cmpne" => CmpNe,
            "cmplt" => CmpLt,
            "cmple" => CmpLe,
            "cmpgt" => CmpGt,
            "cmpge" => CmpGe,
            _ => return None,
        })
    }

    /// All operations a functional unit could plausibly implement: the pure
    /// computational ops (everything except leaves and stores).
    pub fn all_computational() -> &'static [Op] {
        use Op::*;
        &[
            Add, Sub, Mul, Div, And, Or, Xor, Shl, Shr, Neg, Compl, Abs, Min, Max, Mac, CmpEq,
            CmpNe, CmpLt, CmpLe, CmpGt, CmpGe,
        ]
    }
}

impl fmt::Display for Op {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.mnemonic())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn arity_matches_eval_expectations() {
        for &op in Op::all_computational() {
            let args = vec![7i64; op.arity()];
            // Must not panic for any computational op.
            let _ = op.eval(&args);
        }
    }

    #[test]
    fn mnemonic_round_trip() {
        use Op::*;
        for op in [
            Const, Input, Add, Sub, Mul, Div, And, Or, Xor, Shl, Shr, Neg, Compl, Abs, Min, Max,
            Mac, Load, Store, StoreVar, CmpEq, CmpNe, CmpLt, CmpLe, CmpGt, CmpGe,
        ] {
            assert_eq!(Op::from_mnemonic(op.mnemonic()), Some(op), "{op}");
        }
        assert_eq!(Op::from_mnemonic("bogus"), None);
    }

    #[test]
    fn indexes_are_dense() {
        let mut seen = [false; Op::COUNT];
        for &op in Op::all_computational().iter().chain(&[
            Op::Const,
            Op::Input,
            Op::Load,
            Op::Store,
            Op::StoreVar,
        ]) {
            assert!(!seen[op.index()], "{op}");
            seen[op.index()] = true;
        }
        assert!(seen.iter().all(|&s| s));
    }

    #[test]
    fn division_by_zero_is_zero() {
        assert_eq!(Op::Div.eval(&[42, 0]), 0);
        assert_eq!(Op::Div.eval(&[42, 7]), 6);
    }

    #[test]
    fn shifts_mask_their_amount() {
        assert_eq!(Op::Shl.eval(&[1, 64]), 1); // 64 & 0x3f == 0
        assert_eq!(Op::Shl.eval(&[1, 3]), 8);
        assert_eq!(Op::Shr.eval(&[-8, 1]), -4); // arithmetic shift
    }

    #[test]
    fn compare_ops_produce_flags() {
        assert_eq!(Op::CmpLt.eval(&[1, 2]), 1);
        assert_eq!(Op::CmpLt.eval(&[2, 1]), 0);
        assert_eq!(Op::CmpGe.eval(&[2, 2]), 1);
    }

    #[test]
    fn mac_is_mul_plus_add() {
        assert_eq!(Op::Mac.eval(&[3, 4, 5]), 17);
    }

    #[test]
    fn commutativity_flags() {
        assert!(Op::Add.is_commutative());
        assert!(!Op::Sub.is_commutative());
        assert!(!Op::Shl.is_commutative());
    }
}
