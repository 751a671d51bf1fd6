//! The ISDL machine-description lint: the findings of
//! [`aviv_isdl::rules`], which every machine load applies, as coded
//! diagnostics. It errors on exactly the machines the loader refuses.

use crate::diag::{Code, Diagnostic};
use aviv_isdl::{Machine, Rule};

/// Lint a machine description, returning every finding.
pub fn lint_machine(machine: &Machine) -> Vec<Diagnostic> {
    machine
        .findings()
        .into_iter()
        .map(|f| Diagnostic::new(code(f.rule), f.element.describe(machine), f.message))
        .collect()
}

/// The diagnostic code of a machine rule.
fn code(rule: Rule) -> Code {
    match rule {
        Rule::E001 => Code::E001,
        Rule::E002 => Code::E002,
        Rule::E003 => Code::E003,
        Rule::E004 => Code::E004,
        Rule::W001 => Code::W001,
        Rule::W002 => Code::W002,
        Rule::W003 => Code::W003,
        Rule::W004 => Code::W004,
        Rule::W005 => Code::W005,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use aviv_ir::Op;
    use aviv_isdl::{
        archs, parse_machine, parse_machine_unchecked, to_isdl, MachineBuilder, PatTree,
        SlotPattern,
    };

    fn codes(diags: &[Diagnostic]) -> Vec<Code> {
        let mut v: Vec<Code> = diags.iter().map(|d| d.code).collect();
        v.sort();
        v.dedup();
        v
    }

    #[test]
    fn rule_codes_are_the_registered_codes() {
        use Rule::*;
        for rule in [E001, E002, E003, E004, W001, W002, W003, W004, W005] {
            assert_eq!(code(rule).as_str(), rule.to_string(), "{rule:?}");
            assert_eq!(
                code(rule).severity() == crate::Severity::Error,
                rule.is_error(),
                "{rule:?}"
            );
        }
    }

    /// Every bundled machine, at 2 to 4 registers per bank, loads from
    /// its ISDL text and lints without an error; at 4 it lints clean.
    #[test]
    fn paper_machines_are_clean() {
        for regs in 2..=4 {
            for m in [
                archs::example_arch(regs),
                archs::arch_two(regs),
                archs::dsp_arch(regs),
                archs::chained_arch(regs),
                archs::single_alu(regs),
                archs::wide_arch(regs),
                archs::quad_vliw(regs),
                archs::accumulator_dsp(),
            ] {
                parse_machine(&to_isdl(&m)).unwrap_or_else(|e| panic!("{}: {e}", m.name));
                let diags = lint_machine(&m);
                if regs == 4 {
                    assert!(diags.is_empty(), "{}: {diags:?}", m.name);
                }
                assert!(
                    diags
                        .iter()
                        .all(|d| d.severity() == crate::Severity::Warning),
                    "{}@{regs}: {diags:?}",
                    m.name
                );
            }
        }
    }

    /// One machine per refusal condition. The loader refuses each at the
    /// element's declaration with the lint's first error on the
    /// unchecked parse: the same code, element and message.
    #[test]
    fn every_refusal_is_the_lints_first_error_at_the_declaration() {
        // Line 5 holds the defect (the first line of `extra`).
        let machine = |extra: &str| {
            format!(
                "machine M {{\n    unit U1 {{ ops {{ add, mul }} regfile RF1[4]; }}\n    \
                 memory DM;\n    bus DB capacity 1 connects {{ RF1, DM }};\n    {extra}\n}}"
            )
        };
        let with_bus = |unit: &str| {
            machine(&format!(
                "{unit}\n    bus B capacity 1 connects {{ RF2, DM }};"
            ))
        };
        let cases = [
            (
                "machine M {\n    memory DM;\n}".to_string(),
                "1:1: E004 machine M",
            ),
            (
                with_bus("unit U1 { ops { add } regfile RF2[4]; }"),
                "5:5: E004 unit U1",
            ),
            (
                with_bus("unit U2 { ops { } regfile RF2[4]; }"),
                "5:5: E004 unit U2",
            ),
            (
                with_bus("unit U2 { ops { add, storev } regfile RF2[4]; }"),
                "5:5: E004 unit U2",
            ),
            (
                with_bus("unit U2 { ops { add } regfile RF2[0]; }"),
                "5:27: E004 bank RF2",
            ),
            (
                machine("bus X capacity 1 connects { RF1, RF1 };"),
                "5:5: E004 bus X",
            ),
            (
                machine("bus X capacity 1 connects { DM };"),
                "5:5: E004 bus X",
            ),
            (
                machine("bus X capacity 0 connects { RF1, DM };"),
                "5:5: E004 bus X",
            ),
            (
                machine("constraint at_most 0 { U1.mul, U1.add };"),
                "5:5: E004 constraint #0",
            ),
            (
                machine("constraint forbid { U1.mul };"),
                "5:5: E004 constraint #0",
            ),
            // A bank on no bus, and banks linked only to each other.
            (
                machine("unit U2 { ops { add } regfile RF2[4]; }"),
                "5:27: E002 bank RF2",
            ),
            (
                machine(
                    "unit U2 { ops { add } regfile RF2[4]; }\n    \
                         unit U3 { ops { add } regfile RF3[4]; }\n    \
                         bus B capacity 1 connects { RF2, RF3 };",
                ),
                "5:27: E002 bank RF2",
            ),
            (machine("complex c on U1 { a };"), "5:5: E003 complex c"),
            (
                machine("complex c on U1 { const(a) };"),
                "5:5: E003 complex c",
            ),
            (
                machine("complex c on U1 { storev(a) };"),
                "5:5: E003 complex c",
            ),
            (
                machine("complex c on U1 { add(storev(a), b) };"),
                "5:5: E003 complex c",
            ),
            (
                machine("complex c on U1 { add(a) };"),
                "5:5: E003 complex c",
            ),
            (
                machine("complex c on U1 { add(div(a, b), c) };"),
                "5:5: E001 complex c",
            ),
            (
                machine("constraint at_most 1 { U1.div, U1.add };"),
                "5:5: E001 constraint #0",
            ),
        ];
        for (src, want) in cases {
            let err = parse_machine(&src).expect_err(&src);
            assert!(
                err.to_string()
                    .starts_with(&format!("ISDL error at {want}: ")),
                "{err}\n{src}"
            );
            let diags = lint_machine(&parse_machine_unchecked(&src).expect(&src));
            let first = diags
                .iter()
                .find(|d| d.severity() == crate::Severity::Error)
                .unwrap_or_else(|| panic!("no lint error: {src}"));
            assert_eq!(
                err.msg,
                format!("{} {}: {}", first.code, first.element, first.message)
            );
        }
    }

    #[test]
    fn shadowed_bus_is_w001_but_parallel_twin_is_not() {
        // NARROW ⊂ WIDE with equal capacity: shadowed.
        let mut b = MachineBuilder::new("m");
        let u1 = b.unit("U1", &[Op::Add], 4);
        let u2 = b.unit("U2", &[Op::Add], 4);
        b.bus("WIDE", &[u1, u2], true, 1);
        b.bus("NARROW", &[u1, u2], false, 1);
        let m = b.build().unwrap();
        let diags = lint_machine(&m);
        assert_eq!(codes(&diags), vec![Code::W001]);
        assert!(diags[0].element.contains("NARROW"));

        // quad_vliw's DB0/DB1 have *equal* endpoint sets: intentional
        // bandwidth, not shadowing.
        assert!(lint_machine(&archs::quad_vliw(4)).is_empty());
    }

    #[test]
    fn small_bank_is_w002() {
        // mac needs 3 operand registers; a 2-register bank cannot hold
        // them. This is the defect accumulator_dsp shipped with.
        let mut b = MachineBuilder::new("m");
        let u1 = b.unit("MACU", &[Op::Add, Op::Mul], 2);
        b.bus("DB", &[u1], true, 1);
        b.complex(
            "mac",
            u1,
            PatTree::Op(
                Op::Add,
                vec![
                    PatTree::Op(Op::Mul, vec![PatTree::Arg(0), PatTree::Arg(1)]),
                    PatTree::Arg(2),
                ],
            ),
        );
        let m = b.build().unwrap();
        let diags = lint_machine(&m);
        assert_eq!(codes(&diags), vec![Code::W002]);
    }

    #[test]
    fn never_triggering_constraint_is_w003() {
        let mut b = MachineBuilder::new("m");
        let u1 = b.unit("U1", &[Op::Add], 4);
        b.bus("DB", &[u1], true, 1);
        b.constraint(
            2,
            vec![
                SlotPattern::UnitOp { unit: u1, op: None },
                SlotPattern::UnitOp {
                    unit: u1,
                    op: Some(Op::Add),
                },
            ],
        );
        assert_eq!(codes(&lint_machine(&b.build().unwrap())), vec![Code::W003]);
    }

    #[test]
    fn duplicate_op_is_w004() {
        let mut b = MachineBuilder::new("m");
        let u1 = b.unit("U1", &[Op::Add, Op::Add], 4);
        b.bus("DB", &[u1], true, 1);
        assert_eq!(codes(&lint_machine(&b.build().unwrap())), vec![Code::W004]);
    }

    /// Same unit + same pattern + strictly greater cost: the costlier
    /// alternative is dominated on every axis and reported as W005, in
    /// either declaration order. Equal costs stay a W004 duplicate.
    #[test]
    fn dominated_complex_is_w005_either_order() {
        let mac = || {
            PatTree::Op(
                Op::Add,
                vec![
                    PatTree::Op(Op::Mul, vec![PatTree::Arg(0), PatTree::Arg(1)]),
                    PatTree::Arg(2),
                ],
            )
        };
        for cheap_first in [true, false] {
            let mut b = MachineBuilder::new("m");
            let u1 = b.unit("U1", &[Op::Add, Op::Mul], 4);
            b.bus("DB", &[u1], true, 1);
            if cheap_first {
                b.complex_with_cost("mac_fast", u1, mac(), 1);
                b.complex_with_cost("mac_slow", u1, mac(), 3);
            } else {
                b.complex_with_cost("mac_slow", u1, mac(), 3);
                b.complex_with_cost("mac_fast", u1, mac(), 1);
            }
            let m = b.build().unwrap();
            let diags = lint_machine(&m);
            assert_eq!(codes(&diags), vec![Code::W005], "cheap_first={cheap_first}");
            assert!(
                diags[0].element.contains("mac_slow"),
                "the costlier declaration is the dead one: {diags:?}"
            );
            assert!(diags[0].message.contains("mac_fast"), "{diags:?}");
        }
    }

    /// A shape duplicated on *different* units is neither W004 nor W005:
    /// a second unit able to run the same fusion enables parallelism.
    #[test]
    fn cross_unit_duplicate_shape_is_clean() {
        let mac = || {
            PatTree::Op(
                Op::Add,
                vec![
                    PatTree::Op(Op::Mul, vec![PatTree::Arg(0), PatTree::Arg(1)]),
                    PatTree::Arg(2),
                ],
            )
        };
        let mut b = MachineBuilder::new("m");
        let u1 = b.unit("U1", &[Op::Add, Op::Mul], 4);
        let u2 = b.unit("U2", &[Op::Add, Op::Mul], 4);
        b.bus("DB", &[u1, u2], true, 1);
        b.complex_with_cost("mac1", u1, mac(), 1);
        b.complex_with_cost("mac2", u2, mac(), 3);
        let m = b.build().unwrap();
        assert!(lint_machine(&m).is_empty());
    }

    #[test]
    fn complex_arg_count_drives_w002_via_dedicated_check() {
        // dsp_arch's mac has arg_count 3 on a 4-register bank: clean.
        assert!(lint_machine(&archs::dsp_arch(4)).is_empty());
    }
}
