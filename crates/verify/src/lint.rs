//! The ISDL machine-description lint.
//!
//! [`lint_machine`] walks an [`aviv_isdl::Machine`] and reports every
//! coded defect it can find, never stopping at the first. It accepts
//! machines built through the lenient constructors
//! ([`aviv_isdl::parse_machine_lenient`]) so that descriptions the
//! strict validator refuses — orphan banks, dead constraints — can
//! still be diagnosed with stable codes instead of a single free-form
//! error string.

use crate::diag::{Code, Diagnostic};
use aviv_ir::Op;
use aviv_isdl::{Location, Machine, PatTree, SlotPattern};
use std::collections::HashSet;

/// Lint a machine description, returning every finding.
///
/// The machine only needs referential integrity
/// ([`Machine::validate_refs`]); it does not need to pass the strict
/// [`Machine::validate`].
pub fn lint_machine(machine: &Machine) -> Vec<Diagnostic> {
    let mut out = Vec::new();
    lint_resources(machine, &mut out);
    lint_reachability(machine, &mut out);
    lint_complexes(machine, &mut out);
    lint_buses(machine, &mut out);
    lint_bank_capacity(machine, &mut out);
    lint_constraints(machine, &mut out);
    out
}

/// True when some functional unit implements `op` directly.
fn implemented(machine: &Machine, op: Op) -> bool {
    machine.units().iter().any(|u| u.can_do(op))
}

/// E004 / W004: degenerate or duplicated hardware resources.
fn lint_resources(machine: &Machine, out: &mut Vec<Diagnostic>) {
    if machine.units().is_empty() {
        out.push(Diagnostic::new(
            Code::E004,
            format!("machine {}", machine.name),
            "machine declares no functional units",
        ));
    }
    let mut names: HashSet<&str> = HashSet::new();
    for u in machine.units() {
        let element = format!("unit {}", u.name);
        if !names.insert(&u.name) {
            out.push(Diagnostic::new(
                Code::E004,
                element.clone(),
                "duplicate unit name",
            ));
        }
        if u.ops.is_empty() {
            out.push(Diagnostic::new(
                Code::E004,
                element.clone(),
                "unit implements no operations",
            ));
        }
        let mut seen: HashSet<Op> = HashSet::new();
        for c in &u.ops {
            if c.op.is_leaf() || c.op.is_store() {
                out.push(Diagnostic::new(
                    Code::E004,
                    element.clone(),
                    format!("lists non-computational op {}", c.op),
                ));
            }
            if !seen.insert(c.op) {
                out.push(Diagnostic::new(
                    Code::W004,
                    element.clone(),
                    format!("op {} listed more than once", c.op),
                ));
            }
        }
    }
    for b in machine.banks() {
        if b.size == 0 {
            out.push(Diagnostic::new(
                Code::E004,
                format!("bank {}", b.name),
                "bank has zero registers",
            ));
        }
    }
    for bus in machine.buses() {
        let element = format!("bus {}", bus.name);
        let distinct: HashSet<Location> = bus.endpoints.iter().copied().collect();
        if distinct.len() < 2 {
            out.push(Diagnostic::new(
                Code::E004,
                element.clone(),
                "bus connects fewer than 2 distinct locations",
            ));
        }
        if bus.capacity == 0 {
            out.push(Diagnostic::new(
                Code::E004,
                element.clone(),
                "bus has zero transfer capacity",
            ));
        }
        if distinct.len() < bus.endpoints.len() {
            out.push(Diagnostic::new(
                Code::W004,
                element,
                "bus lists an endpoint more than once",
            ));
        }
    }
}

/// E002: every bank must reach memory and be reachable from it, or
/// leaves can never be loaded and results never stored.
fn lint_reachability(machine: &Machine, out: &mut Vec<Diagnostic>) {
    let from_mem = machine.reachable_from(Location::Mem);
    for (i, b) in machine.banks().iter().enumerate() {
        let loc = Location::Bank(aviv_isdl::BankId(i as u32));
        let to_mem = machine.reachable_from(loc).contains(&Location::Mem);
        let from = from_mem.contains(&loc);
        let problem = match (from, to_mem) {
            (true, true) => continue,
            (false, true) => "bank is unreachable from data memory: no program input can ever be loaded into it",
            (true, false) => "data memory is unreachable from this bank: results computed here can never be stored",
            (false, false) => "bank has no data-transfer path to or from memory (orphan bank)",
        };
        out.push(Diagnostic::new(
            Code::E002,
            format!("bank {}", b.name),
            problem,
        ));
    }
}

/// E001 / E003 / W004: complex-instruction pattern problems.
///
/// The pattern matcher (`aviv-splitdag`) never roots a match at a leaf
/// or store node, and the DAG's operand edges only reference
/// value-producing nodes — so a pattern whose root op is a leaf/store,
/// or that mentions a store anywhere, can never match. An op node whose
/// child count disagrees with the op's arity (only constructible through
/// the builder API; the parser rejects it) can never match either.
fn lint_complexes(machine: &Machine, out: &mut Vec<Diagnostic>) {
    let mut seen: Vec<(aviv_isdl::UnitId, &PatTree, u32, &str)> = Vec::new();
    for cx in machine.complexes() {
        let element = format!("complex {}", cx.name);
        if cx.pattern.op_count() < 1 {
            out.push(Diagnostic::new(
                Code::E003,
                element.clone(),
                "pattern contains no operation and covers nothing",
            ));
            continue;
        }
        if let PatTree::Op(op, _) = &cx.pattern {
            if op.is_leaf() || op.is_store() {
                out.push(Diagnostic::new(
                    Code::E003,
                    element.clone(),
                    format!("pattern root {op} is not a value-producing computation; the matcher never roots a match here"),
                ));
            }
        }
        let mut ops = Vec::new();
        collect_pattern_ops(&cx.pattern, &mut ops);
        for (op, n_subs, is_root) in ops {
            if n_subs != op.arity() {
                out.push(Diagnostic::new(
                    Code::E003,
                    element.clone(),
                    format!(
                        "pattern op {op} expects {} operands but has {n_subs}; the pattern can never match",
                        op.arity()
                    ),
                ));
            }
            if !is_root && op.is_store() {
                out.push(Diagnostic::new(
                    Code::E003,
                    element.clone(),
                    format!("pattern mentions store op {op}, which never appears as an operand of another node"),
                ));
            }
            if !op.is_leaf() && !op.is_store() && !implemented(machine, op) {
                out.push(Diagnostic::new(
                    Code::E001,
                    element.clone(),
                    format!(
                        "pattern references op {op} but no functional unit implements it; \
                         any program using {op} outside this exact shape cannot compile"
                    ),
                ));
            }
        }
        // Duplicate / shadowed alternatives on the same unit with an
        // identical pattern shape. Equal cost is a plain duplicate
        // (W004); a cost difference means one side is dominated on
        // every axis and can never be chosen (W005) — the costlier
        // declaration is the dead one, whichever order they appear in.
        if let Some(&(_, _, prior_cost, prior_name)) = seen
            .iter()
            .find(|&&(u, p, _, _)| u == cx.unit && *p == cx.pattern)
        {
            if prior_cost == cx.cost {
                out.push(Diagnostic::new(
                    Code::W004,
                    element.clone(),
                    "identical complex pattern already declared on this unit",
                ));
            } else {
                let (dead, live, dead_cost, live_cost) = if cx.cost > prior_cost {
                    (cx.name.as_str(), prior_name, cx.cost, prior_cost)
                } else {
                    (prior_name, cx.name.as_str(), prior_cost, cx.cost)
                };
                out.push(Diagnostic::new(
                    Code::W005,
                    format!("complex {dead}"),
                    format!(
                        "shadowed by complex {live}: identical pattern on the same unit \
                         at cost {live_cost} < {dead_cost}; {dead} can never be chosen"
                    ),
                ));
            }
        }
        seen.push((cx.unit, &cx.pattern, cx.cost, &cx.name));
    }
}

/// Collect `(op, child_count, is_root)` for every op node in a pattern.
fn collect_pattern_ops(pat: &PatTree, out: &mut Vec<(Op, usize, bool)>) {
    fn walk(pat: &PatTree, is_root: bool, out: &mut Vec<(Op, usize, bool)>) {
        if let PatTree::Op(op, subs) = pat {
            out.push((*op, subs.len(), is_root));
            for s in subs {
                walk(s, false, out);
            }
        }
    }
    walk(pat, true, out);
}

/// W001: a bus whose endpoint set is a strict subset of another bus with
/// at least the same capacity adds no connectivity or bandwidth — every
/// transfer it could carry, the wider bus already can.
fn lint_buses(machine: &Machine, out: &mut Vec<Diagnostic>) {
    let sets: Vec<HashSet<Location>> = machine
        .buses()
        .iter()
        .map(|b| b.endpoints.iter().copied().collect())
        .collect();
    for (i, bus) in machine.buses().iter().enumerate() {
        for (j, other) in machine.buses().iter().enumerate() {
            if i == j || sets[i].len() >= sets[j].len() {
                continue;
            }
            if sets[i].is_subset(&sets[j]) && other.capacity >= bus.capacity {
                out.push(Diagnostic::new(
                    Code::W001,
                    format!("bus {}", bus.name),
                    format!(
                        "shadowed by bus {}: its endpoints are a subset of {}'s and its capacity is no larger",
                        other.name, other.name
                    ),
                ));
                break;
            }
        }
    }
}

/// W002: an instruction executing on a unit can need up to its operand
/// count of simultaneously-live registers in the unit's bank (every
/// operand may be a distinct register value). A bank smaller than that
/// makes such instances unschedulable at any pressure.
fn lint_bank_capacity(machine: &Machine, out: &mut Vec<Diagnostic>) {
    for (ui, u) in machine.units().iter().enumerate() {
        if u.bank.index() >= machine.banks().len() {
            continue; // dangling ref reported elsewhere; nothing to measure
        }
        let bank = machine.bank(u.bank);
        let mut need = 0usize;
        let mut culprit = String::new();
        for c in &u.ops {
            if c.op.arity() > need {
                need = c.op.arity();
                culprit = format!("op {}", c.op);
            }
        }
        for cx in machine.complexes() {
            if cx.unit.index() == ui && cx.pattern.arg_count() > need {
                need = cx.pattern.arg_count();
                culprit = format!("complex {}", cx.name);
            }
        }
        if need > bank.size as usize {
            out.push(Diagnostic::new(
                Code::W002,
                format!("bank {}", bank.name),
                format!(
                    "{} on unit {} can need {need} simultaneously-live register operands but bank {} has only {} registers",
                    culprit, u.name, bank.name, bank.size
                ),
            ));
        }
    }
}

/// W003 / E001: constraints that can never trigger, or that reference
/// operations nothing implements.
fn lint_constraints(machine: &Machine, out: &mut Vec<Diagnostic>) {
    for (i, c) in machine.constraints().iter().enumerate() {
        let element = match &c.name {
            Some(n) => format!("constraint {n}"),
            None => format!("constraint #{i}"),
        };
        if c.members.len() < 2 {
            out.push(Diagnostic::new(
                Code::W003,
                element.clone(),
                "constraint has fewer than 2 members and can never trigger",
            ));
            continue;
        }
        if c.at_most == 0 {
            out.push(Diagnostic::new(
                Code::E004,
                element.clone(),
                "at most 0 members: an instruction holding any member is illegal, \
                 so no member can ever issue",
            ));
        }
        // A member can only be active if its unit actually implements
        // the named op; count the members that can ever fire.
        let mut active = 0usize;
        for m in &c.members {
            match *m {
                SlotPattern::UnitOp { unit, op } => {
                    let u = &machine.units()[unit.index()];
                    match op {
                        Some(op) if !u.can_do(op) => {
                            if !implemented(machine, op) {
                                out.push(Diagnostic::new(
                                    Code::E001,
                                    element.clone(),
                                    format!(
                                        "references op {op}, which no functional unit implements"
                                    ),
                                ));
                            } else {
                                out.push(Diagnostic::new(
                                    Code::W003,
                                    element.clone(),
                                    format!(
                                        "member {}.{op} can never be active: unit {} does not implement {op}",
                                        u.name, u.name
                                    ),
                                ));
                            }
                        }
                        _ => active += 1,
                    }
                }
                SlotPattern::BusUse { .. } => active += 1,
            }
        }
        if active > 0 && c.at_most as usize >= active {
            out.push(Diagnostic::new(
                Code::W003,
                element,
                format!(
                    "at most {} of {} satisfiable members can never be exceeded",
                    c.at_most, active
                ),
            ));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use aviv_isdl::{archs, Bus, Constraint, MachineBuilder, OpCap, RegBank, Unit};

    fn codes(diags: &[Diagnostic]) -> Vec<Code> {
        let mut v: Vec<Code> = diags.iter().map(|d| d.code).collect();
        v.sort();
        v.dedup();
        v
    }

    #[test]
    fn paper_machines_are_clean() {
        for m in [
            archs::example_arch(4),
            archs::arch_two(4),
            archs::dsp_arch(4),
            archs::chained_arch(4),
            archs::single_alu(4),
            archs::wide_arch(4),
            archs::quad_vliw(4),
            archs::accumulator_dsp(),
        ] {
            let diags = lint_machine(&m);
            assert!(diags.is_empty(), "{}: {diags:?}", m.name);
        }
    }

    #[test]
    fn orphan_bank_is_e002() {
        // RF2 exists but no bus touches it.
        let m = Machine::from_parts_lenient(
            "orphan".into(),
            vec![
                Unit {
                    name: "U1".into(),
                    ops: vec![OpCap {
                        op: Op::Add,
                        cost: 1,
                    }],
                    bank: aviv_isdl::BankId(0),
                },
                Unit {
                    name: "U2".into(),
                    ops: vec![OpCap {
                        op: Op::Add,
                        cost: 1,
                    }],
                    bank: aviv_isdl::BankId(1),
                },
            ],
            vec![
                RegBank {
                    name: "RF1".into(),
                    size: 4,
                },
                RegBank {
                    name: "RF2".into(),
                    size: 4,
                },
            ],
            vec![Bus {
                name: "DB".into(),
                endpoints: vec![Location::Bank(aviv_isdl::BankId(0)), Location::Mem],
                capacity: 1,
            }],
            vec![],
            vec![],
        )
        .unwrap();
        let diags = lint_machine(&m);
        assert_eq!(codes(&diags), vec![Code::E002]);
        assert!(diags[0].element.contains("RF2"));
    }

    #[test]
    fn unimplemented_pattern_op_is_e001() {
        let mut b = MachineBuilder::new("m");
        let u1 = b.unit("U1", &[Op::Add], 4);
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
        assert_eq!(codes(&diags), vec![Code::E001]);
        assert!(diags[0].message.contains("mul"));
    }

    #[test]
    fn store_rooted_pattern_is_e003() {
        let mut b = MachineBuilder::new("m");
        let u1 = b.unit("U1", &[Op::Add], 4);
        b.bus("DB", &[u1], true, 1);
        b.complex("dead", u1, PatTree::Op(Op::StoreVar, vec![PatTree::Arg(0)]));
        let m = b.build().unwrap();
        assert_eq!(codes(&lint_machine(&m)), vec![Code::E003]);
    }

    #[test]
    fn arity_mismatch_pattern_is_e003() {
        // Only constructible via the builder; the parser rejects it.
        let mut b = MachineBuilder::new("m");
        let u1 = b.unit("U1", &[Op::Add], 4);
        b.bus("DB", &[u1], true, 1);
        b.complex("bad", u1, PatTree::Op(Op::Add, vec![PatTree::Arg(0)]));
        let m = b.build().unwrap();
        assert_eq!(codes(&lint_machine(&m)), vec![Code::E003]);
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
        let m = Machine::from_parts_lenient(
            "m".into(),
            vec![Unit {
                name: "U1".into(),
                ops: vec![OpCap {
                    op: Op::Add,
                    cost: 1,
                }],
                bank: aviv_isdl::BankId(0),
            }],
            vec![RegBank {
                name: "RF1".into(),
                size: 4,
            }],
            vec![Bus {
                name: "DB".into(),
                endpoints: vec![Location::Bank(aviv_isdl::BankId(0)), Location::Mem],
                capacity: 1,
            }],
            vec![Constraint {
                name: Some("lax".into()),
                at_most: 2,
                members: vec![
                    SlotPattern::UnitOp {
                        unit: aviv_isdl::UnitId(0),
                        op: None,
                    },
                    SlotPattern::UnitOp {
                        unit: aviv_isdl::UnitId(0),
                        op: Some(Op::Add),
                    },
                ],
            }],
            vec![],
        )
        .unwrap();
        assert_eq!(codes(&lint_machine(&m)), vec![Code::W003]);
    }

    /// `Machine::validate` refuses `at_most 0`, which no compile can
    /// satisfy; lint reports it as an error on the constraint.
    #[test]
    fn a_constraint_that_always_triggers_is_e004() {
        let isdl = aviv_isdl::archs::EXAMPLE_ARCH_ISDL.replace(
            "memory DM;",
            "memory DM;\n    constraint at_most 0 { U3.mul, U2.mul };",
        );
        let m = aviv_isdl::parse_machine_lenient(&isdl).unwrap();
        assert!(m.validate().is_err());
        let diags = lint_machine(&m);
        assert_eq!(codes(&diags), vec![Code::E004]);
        assert_eq!(diags[0].element, "constraint #0");
    }

    #[test]
    fn duplicate_op_is_w004() {
        let m = Machine::from_parts_lenient(
            "m".into(),
            vec![Unit {
                name: "U1".into(),
                ops: vec![
                    OpCap {
                        op: Op::Add,
                        cost: 1,
                    },
                    OpCap {
                        op: Op::Add,
                        cost: 1,
                    },
                ],
                bank: aviv_isdl::BankId(0),
            }],
            vec![RegBank {
                name: "RF1".into(),
                size: 4,
            }],
            vec![Bus {
                name: "DB".into(),
                endpoints: vec![Location::Bank(aviv_isdl::BankId(0)), Location::Mem],
                capacity: 1,
            }],
            vec![],
            vec![],
        )
        .unwrap();
        assert_eq!(codes(&lint_machine(&m)), vec![Code::W004]);
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
