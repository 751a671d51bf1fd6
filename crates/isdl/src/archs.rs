//! The target architectures used in the paper's experiments, plus a few
//! extra machines that exercise other corners of the model.
//!
//! * [`example_arch`] — the paper's Fig. 3 VLIW: U1 {ADD, SUB, COMPL},
//!   U2 {ADD, SUB, MUL}, U3 {ADD, MUL}, per-unit register files, one
//!   shared databus connecting all register files and data memory.
//!   (COMPL is on U1 per the §IV-A worked example.)
//! * [`arch_two`] — Table II's variant: "removing the SUB operation from
//!   functional unit U1, and completely removing functional unit U3".
//! * [`dsp_arch`] — a MAC-capable two-unit DSP used by the complex-
//!   instruction examples and tests.
//! * [`chained_arch`] — a machine whose banks connect through two buses,
//!   forcing multi-hop transfers.
//! * [`single_alu`] — a degenerate one-unit machine (sequential-machine
//!   sanity baseline).

use crate::model::{Machine, MachineBuilder, PatTree};
use crate::parser::parse_machine;
use aviv_ir::Op;

/// ISDL text of the paper's Fig. 3 example architecture.
pub const EXAMPLE_ARCH_ISDL: &str = "\
machine Example {
    // Fig. 3 of the paper: three heterogeneous units, private register
    // files, one shared databus to data memory. Comparisons live on U1
    // so conditional branches compile (see example_arch docs).
    unit U1 { ops { add, sub, compl,
                    cmpeq, cmpne, cmplt, cmple, cmpgt, cmpge } regfile RF1[4]; }
    unit U2 { ops { add, sub, mul }   regfile RF2[4]; }
    unit U3 { ops { add, mul }        regfile RF3[4]; }
    memory DM;
    bus DB capacity 1 connects { RF1, RF2, RF3, DM };
}";

/// ISDL text of Table II's reduced architecture.
pub const ARCH_TWO_ISDL: &str = "\
machine ArchII {
    // Table II: U1 loses SUB, U3 is removed entirely.
    unit U1 { ops { add, compl,
                    cmpeq, cmpne, cmplt, cmple, cmpgt, cmpge } regfile RF1[4]; }
    unit U2 { ops { add, sub, mul } regfile RF2[4]; }
    memory DM;
    bus DB capacity 1 connects { RF1, RF2, DM };
}";

/// The comparison operations every control-flow-capable unit carries.
const CMPS: [Op; 6] = [
    Op::CmpEq,
    Op::CmpNe,
    Op::CmpLt,
    Op::CmpLe,
    Op::CmpGt,
    Op::CmpGe,
];

/// The paper's Fig. 3 example architecture with `regs` registers per
/// register file (the experiments use 4 and 2).
///
/// Extension over the figure: U1 also carries the comparison operations
/// so blocks ending in conditional branches compile. The paper's
/// benchmark blocks are straight-line arithmetic, so their Split-Node
/// DAGs and results are unaffected.
pub fn example_arch(regs: u32) -> Machine {
    let mut b = MachineBuilder::new("Example");
    let mut u1_ops = vec![Op::Add, Op::Sub, Op::Compl];
    u1_ops.extend(CMPS);
    let u1 = b.unit("U1", &u1_ops, regs);
    let u2 = b.unit("U2", &[Op::Add, Op::Sub, Op::Mul], regs);
    let u3 = b.unit("U3", &[Op::Add, Op::Mul], regs);
    b.bus("DB", &[u1, u2, u3], true, 1);
    b.build().expect("example arch is valid")
}

/// Table II's architecture: U1 without SUB, no U3 (comparisons kept on
/// U1 as in [`example_arch`]).
pub fn arch_two(regs: u32) -> Machine {
    let mut b = MachineBuilder::new("ArchII");
    let mut u1_ops = vec![Op::Add, Op::Compl];
    u1_ops.extend(CMPS);
    let u1 = b.unit("U1", &u1_ops, regs);
    let u2 = b.unit("U2", &[Op::Add, Op::Sub, Op::Mul], regs);
    b.bus("DB", &[u1, u2], true, 1);
    b.build().expect("arch two is valid")
}

/// A two-unit DSP with a multiply-accumulate complex instruction on U2
/// and a wider (capacity 2) bus.
pub fn dsp_arch(regs: u32) -> Machine {
    let mut b = MachineBuilder::new("DspMac");
    let mut u1_ops = vec![Op::Add, Op::Sub, Op::Shl, Op::Shr, Op::Compl];
    u1_ops.extend(CMPS);
    let u1 = b.unit("U1", &u1_ops, regs);
    let u2 = b.unit("U2", &[Op::Add, Op::Mul], regs);
    b.bus("DB", &[u1, u2], true, 2);
    b.complex(
        "mac",
        u2,
        PatTree::Op(
            Op::Add,
            vec![
                PatTree::Op(Op::Mul, vec![PatTree::Arg(0), PatTree::Arg(1)]),
                PatTree::Arg(2),
            ],
        ),
    );
    b.build().expect("dsp arch is valid")
}

/// A machine where U1's bank talks to memory only through U2's bank:
/// exercises multi-hop transfer paths.
pub fn chained_arch(regs: u32) -> Machine {
    let mut b = MachineBuilder::new("Chained");
    let mut u1_ops = vec![Op::Add, Op::Sub, Op::Compl];
    u1_ops.extend(CMPS);
    let u1 = b.unit("U1", &u1_ops, regs);
    let u2 = b.unit("U2", &[Op::Add, Op::Mul], regs);
    b.bus("LOCAL", &[u1, u2], false, 1);
    b.bus("MEMBUS", &[u2], true, 1);
    b.build().expect("chained arch is valid")
}

/// One unit that does everything — the degenerate sequential machine.
pub fn single_alu(regs: u32) -> Machine {
    let mut b = MachineBuilder::new("SingleAlu");
    let u1 = b.unit(
        "ALU",
        &[
            Op::Add,
            Op::Sub,
            Op::Mul,
            Op::Div,
            Op::And,
            Op::Or,
            Op::Xor,
            Op::Shl,
            Op::Shr,
            Op::Neg,
            Op::Compl,
            Op::Abs,
            Op::Min,
            Op::Max,
            Op::CmpEq,
            Op::CmpNe,
            Op::CmpLt,
            Op::CmpLe,
            Op::CmpGt,
            Op::CmpGe,
        ],
        regs,
    );
    b.bus("DB", &[u1], true, 1);
    b.build().expect("single alu is valid")
}

/// A three-unit machine with full op coverage on every unit and generous
/// resources; useful as a permissive target in property tests.
pub fn wide_arch(regs: u32) -> Machine {
    let mut b = MachineBuilder::new("Wide");
    let every = [
        Op::Add,
        Op::Sub,
        Op::Mul,
        Op::Div,
        Op::And,
        Op::Or,
        Op::Xor,
        Op::Shl,
        Op::Shr,
        Op::Neg,
        Op::Compl,
        Op::Abs,
        Op::Min,
        Op::Max,
        Op::CmpEq,
        Op::CmpNe,
        Op::CmpLt,
        Op::CmpLe,
        Op::CmpGt,
        Op::CmpGe,
    ];
    let u1 = b.unit("U1", &every, regs);
    let u2 = b.unit("U2", &every, regs);
    let u3 = b.unit("U3", &every, regs);
    b.bus("DB", &[u1, u2, u3], true, 2);
    b.build().expect("wide arch is valid")
}

/// Parse [`EXAMPLE_ARCH_ISDL`]; equivalent to [`example_arch`]`(4)`.
pub fn example_arch_from_isdl() -> Machine {
    parse_machine(EXAMPLE_ARCH_ISDL).expect("bundled ISDL is valid")
}

/// Parse [`ARCH_TWO_ISDL`]; equivalent to [`arch_two`]`(4)`.
pub fn arch_two_from_isdl() -> Machine {
    parse_machine(ARCH_TWO_ISDL).expect("bundled ISDL is valid")
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::db::OpDb;
    use crate::model::UnitId;

    #[test]
    fn example_arch_matches_fig3() {
        let m = example_arch(4);
        let db = OpDb::new(&m);
        // ADD on all three units, SUB on U1+U2, MUL on U2+U3.
        assert_eq!(db.units_for(Op::Add).len(), 3);
        assert_eq!(db.units_for(Op::Sub), &[UnitId(0), UnitId(1)]);
        assert_eq!(db.units_for(Op::Mul), &[UnitId(1), UnitId(2)]);
        assert_eq!(db.units_for(Op::Compl), &[UnitId(0)]);
        assert_eq!(m.banks().iter().map(|b| b.size).max(), Some(4));
    }

    #[test]
    fn builder_and_isdl_agree() {
        let a = example_arch(4);
        let b = example_arch_from_isdl();
        assert_eq!(a.units().len(), b.units().len());
        for (ua, ub) in a.units().iter().zip(b.units()) {
            assert_eq!(ua.name, ub.name);
            assert_eq!(ua.ops.len(), ub.ops.len());
            for (ca, cb) in ua.ops.iter().zip(&ub.ops) {
                assert_eq!(ca.op, cb.op);
            }
        }
        assert_eq!(a.buses()[0].endpoints.len(), b.buses()[0].endpoints.len());

        let a2 = arch_two(4);
        let b2 = arch_two_from_isdl();
        assert_eq!(a2.units().len(), b2.units().len());
        assert_eq!(a2.units().len(), 2);
    }

    #[test]
    fn arch_two_is_the_reduction_described() {
        let m = arch_two(4);
        let db = OpDb::new(&m);
        assert_eq!(db.units_for(Op::Sub).len(), 1, "SUB only on U2");
        assert_eq!(db.units_for(Op::Mul).len(), 1, "MUL only on U2");
        assert_eq!(db.units_for(Op::Add).len(), 2);
    }

    #[test]
    fn dsp_arch_has_mac() {
        let m = dsp_arch(4);
        assert_eq!(m.complexes().len(), 1);
        assert_eq!(m.complexes()[0].name, "mac");
        assert_eq!(m.complexes()[0].pattern.eval(&[2, 3, 4]), 10);
    }
}

/// A four-unit VLIW with two buses — a wider design-space point for the
/// exploration examples and stress tests.
pub fn quad_vliw(regs: u32) -> Machine {
    let mut b = MachineBuilder::new("QuadVliw");
    let mut u1_ops = vec![Op::Add, Op::Sub, Op::Compl];
    u1_ops.extend(CMPS);
    let u1 = b.unit("U1", &u1_ops, regs);
    let u2 = b.unit("U2", &[Op::Add, Op::Sub, Op::Mul], regs);
    let u3 = b.unit("U3", &[Op::Add, Op::Mul], regs);
    let u4 = b.unit("U4", &[Op::Add, Op::Sub], regs);
    b.bus("DB0", &[u1, u2, u3, u4], true, 1);
    b.bus("DB1", &[u1, u2, u3, u4], true, 1);
    b.build().expect("quad vliw is valid")
}

/// An accumulator-style DSP with *uneven* register files: a small
/// accumulator bank on the MAC unit and a larger general bank —
/// exercises per-bank pressure tracking with asymmetric sizes.
pub fn accumulator_dsp() -> Machine {
    let mut b = MachineBuilder::new("AccDsp");
    let mut u1_ops = vec![Op::Add, Op::Sub, Op::Compl, Op::Shl, Op::Shr];
    u1_ops.extend(CMPS);
    let u1 = b.unit("GP", &u1_ops, 8);
    // Three registers: the `mac` complex below reads three operands at
    // once, so a smaller accumulator bank could never feed it (W002).
    let u2 = b.unit("MACU", &[Op::Add, Op::Mul], 3);
    b.bus("DB", &[u1, u2], true, 1);
    b.complex(
        "mac",
        u2,
        PatTree::Op(
            Op::Add,
            vec![
                PatTree::Op(Op::Mul, vec![PatTree::Arg(0), PatTree::Arg(1)]),
                PatTree::Arg(2),
            ],
        ),
    );
    b.build().expect("accumulator dsp is valid")
}

#[cfg(test)]
mod extra_arch_tests {
    use super::*;

    #[test]
    fn accumulator_banks_are_asymmetric() {
        let acc = accumulator_dsp();
        let sizes: Vec<u32> = acc.banks().iter().map(|b| b.size).collect();
        assert_eq!(sizes, vec![8, 3]);
    }
}
