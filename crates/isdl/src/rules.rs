//! The machine rules: the one judgment of whether a description is usable.
//!
//! [`Machine::findings`] reports every defect of a machine as a
//! [`Finding`]: the [`Rule`] broken, the offending [`Element`] and a
//! message. Every strict load ([`crate::parse_machine`],
//! [`Machine::from_parts`], [`crate::MachineBuilder::build`]) refuses a
//! machine exactly when it has an `E` finding, reporting the first, and
//! `aviv-verify`'s lint renders the same findings. The walks index
//! freely: every [`Machine`] has referential integrity.

use crate::model::{BankId, BusId, Location, Machine, PatTree, SlotPattern, UnitId};
use aviv_ir::Op;
use std::collections::HashSet;
use std::fmt;

/// A machine rule, named by its stable code (documented in
/// `docs/diagnostics.md`). `E` rules refuse a machine; `W` rules warn.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Rule {
    /// A pattern or constraint names an operation no unit implements.
    E001,
    /// A bank cannot exchange values with data memory.
    E002,
    /// A complex-instruction pattern can never match.
    E003,
    /// A degenerate resource: no units, an empty unit, a zero-size bank,
    /// a bus with one location, `at_most 0`, ….
    E004,
    /// A bus another bus shadows.
    W001,
    /// A bank smaller than an instruction's operand needs.
    W002,
    /// A constraint that can never trigger.
    W003,
    /// A capability listed twice.
    W004,
    /// A complex alternative a cheaper twin dominates.
    W005,
}

impl Rule {
    /// Whether a finding of this rule refuses the machine.
    pub fn is_error(self) -> bool {
        matches!(self, Rule::E001 | Rule::E002 | Rule::E003 | Rule::E004)
    }
}

impl fmt::Display for Rule {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Debug::fmt(self, f)
    }
}

/// The machine element a finding is about, by index.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Element {
    /// The machine as a whole.
    Machine,
    /// A functional unit.
    Unit(UnitId),
    /// A register bank.
    Bank(BankId),
    /// A bus.
    Bus(BusId),
    /// A constraint, by position in [`Machine::constraints`].
    Constraint(usize),
    /// A complex instruction, by position in [`Machine::complexes`].
    Complex(usize),
}

impl Element {
    /// How reports name the element, e.g. `unit U1` or `constraint #0`.
    pub fn describe(self, m: &Machine) -> String {
        match self {
            Element::Machine => format!("machine {}", m.name),
            Element::Unit(u) => format!("unit {}", m.unit(u).name),
            Element::Bank(b) => format!("bank {}", m.bank(b).name),
            Element::Bus(b) => format!("bus {}", m.bus(b).name),
            Element::Constraint(i) => format!("constraint #{i}"),
            Element::Complex(i) => format!("complex {}", m.complexes()[i].name),
        }
    }
}

/// One defect of a machine.
#[derive(Debug, Clone)]
pub struct Finding {
    /// The rule broken.
    pub rule: Rule,
    /// Where.
    pub element: Element,
    /// One line on what is wrong.
    pub message: String,
}

impl Finding {
    fn new(rule: Rule, element: Element, message: impl Into<String>) -> Finding {
        Finding {
            rule,
            element,
            message: message.into(),
        }
    }

    /// `CODE element: message`, the form a refusal reports.
    pub(crate) fn render(&self, m: &Machine) -> String {
        format!(
            "{} {}: {}",
            self.rule,
            self.element.describe(m),
            self.message
        )
    }
}

impl Machine {
    /// Every finding of every rule, in a stable order: resources,
    /// reachability, complexes, buses, bank capacity, constraints.
    pub fn findings(&self) -> Vec<Finding> {
        let mut out = Vec::new();
        resources(self, &mut out);
        reachability(self, &mut out);
        complexes(self, &mut out);
        buses(self, &mut out);
        bank_capacity(self, &mut out);
        constraints(self, &mut out);
        out
    }

    /// The first error finding: why a strict load refuses the machine.
    pub(crate) fn refusal(&self) -> Option<Finding> {
        self.findings().into_iter().find(|f| f.rule.is_error())
    }
}

/// True when some functional unit implements `op` directly.
fn implemented(machine: &Machine, op: Op) -> bool {
    machine.units().iter().any(|u| u.can_do(op))
}

/// E004 / W004: degenerate or duplicated hardware resources.
fn resources(machine: &Machine, out: &mut Vec<Finding>) {
    if machine.units().is_empty() {
        out.push(Finding::new(
            Rule::E004,
            Element::Machine,
            "machine declares no functional units",
        ));
    }
    let mut names: HashSet<&str> = HashSet::new();
    for (i, u) in machine.units().iter().enumerate() {
        let element = Element::Unit(UnitId(i as u32));
        if !names.insert(&u.name) {
            out.push(Finding::new(Rule::E004, element, "duplicate unit name"));
        }
        if u.ops.is_empty() {
            out.push(Finding::new(
                Rule::E004,
                element,
                "unit implements no operations",
            ));
        }
        let mut seen: HashSet<Op> = HashSet::new();
        for c in &u.ops {
            if c.op.is_leaf() || c.op.is_store() {
                out.push(Finding::new(
                    Rule::E004,
                    element,
                    format!("lists non-computational op {}", c.op),
                ));
            }
            if !seen.insert(c.op) {
                out.push(Finding::new(
                    Rule::W004,
                    element,
                    format!("op {} listed more than once", c.op),
                ));
            }
        }
    }
    for (i, b) in machine.banks().iter().enumerate() {
        if b.size == 0 {
            out.push(Finding::new(
                Rule::E004,
                Element::Bank(BankId(i as u32)),
                "bank has zero registers",
            ));
        }
    }
    for (i, bus) in machine.buses().iter().enumerate() {
        let element = Element::Bus(BusId(i as u32));
        let distinct: HashSet<Location> = bus.endpoints.iter().copied().collect();
        if distinct.len() < 2 {
            out.push(Finding::new(
                Rule::E004,
                element,
                "bus connects fewer than 2 distinct locations",
            ));
        }
        if bus.capacity == 0 {
            out.push(Finding::new(
                Rule::E004,
                element,
                "bus has zero transfer capacity",
            ));
        }
        if distinct.len() < bus.endpoints.len() {
            out.push(Finding::new(
                Rule::W004,
                element,
                "bus lists an endpoint more than once",
            ));
        }
    }
}

/// E002: every bank must exchange values with memory, or leaves can
/// never be loaded into it and results never stored from it. A bus
/// carries values both ways, so a bank reaches memory exactly when
/// memory reaches it.
fn reachability(machine: &Machine, out: &mut Vec<Finding>) {
    let from_mem = machine.reachable_from(Location::Mem);
    for i in 0..machine.banks().len() {
        let bank = BankId(i as u32);
        if !from_mem.contains(&Location::Bank(bank)) {
            out.push(Finding::new(
                Rule::E002,
                Element::Bank(bank),
                "bank has no data-transfer path to or from memory (orphan bank)",
            ));
        }
    }
}

/// E001 / E003 / W004 / W005: complex-instruction pattern problems.
///
/// The pattern matcher (`aviv-splitdag`) never roots a match at a leaf
/// or store node, and the DAG's operand edges only reference
/// value-producing nodes — so a pattern whose root op is a leaf/store,
/// or that mentions a store anywhere, can never match. An op node whose
/// child count disagrees with the op's arity can never match either.
fn complexes(machine: &Machine, out: &mut Vec<Finding>) {
    let all = machine.complexes();
    for (i, cx) in all.iter().enumerate() {
        let element = Element::Complex(i);
        if cx.pattern.op_count() < 1 {
            out.push(Finding::new(
                Rule::E003,
                element,
                "pattern contains no operation and covers nothing",
            ));
            continue;
        }
        if let PatTree::Op(op, _) = &cx.pattern {
            if op.is_leaf() || op.is_store() {
                out.push(Finding::new(
                    Rule::E003,
                    element,
                    format!("pattern root {op} is not a value-producing computation; the matcher never roots a match here"),
                ));
            }
        }
        let mut ops = Vec::new();
        collect_pattern_ops(&cx.pattern, true, &mut ops);
        for (op, n_subs, is_root) in ops {
            if n_subs != op.arity() {
                out.push(Finding::new(
                    Rule::E003,
                    element,
                    format!(
                        "pattern op {op} expects {} operands but has {n_subs}; the pattern can never match",
                        op.arity()
                    ),
                ));
            }
            if !is_root && op.is_store() {
                out.push(Finding::new(
                    Rule::E003,
                    element,
                    format!("pattern mentions store op {op}, which never appears as an operand of another node"),
                ));
            }
            if !op.is_leaf() && !op.is_store() && !implemented(machine, op) {
                out.push(Finding::new(
                    Rule::E001,
                    element,
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
        let Some(prior) = all[..i]
            .iter()
            .position(|p| p.unit == cx.unit && p.pattern == cx.pattern)
        else {
            continue;
        };
        if all[prior].cost == cx.cost {
            out.push(Finding::new(
                Rule::W004,
                element,
                "identical complex pattern already declared on this unit",
            ));
        } else {
            let (dead, live) = if cx.cost > all[prior].cost {
                (i, prior)
            } else {
                (prior, i)
            };
            let (dead_cx, live_cx) = (&all[dead], &all[live]);
            out.push(Finding::new(
                Rule::W005,
                Element::Complex(dead),
                format!(
                    "shadowed by complex {}: identical pattern on the same unit \
                     at cost {} < {}; {} can never be chosen",
                    live_cx.name, live_cx.cost, dead_cx.cost, dead_cx.name
                ),
            ));
        }
    }
}

/// Collect `(op, child_count, is_root)` for every op node in a pattern.
fn collect_pattern_ops(pat: &PatTree, is_root: bool, out: &mut Vec<(Op, usize, bool)>) {
    if let PatTree::Op(op, subs) = pat {
        out.push((*op, subs.len(), is_root));
        for s in subs {
            collect_pattern_ops(s, false, out);
        }
    }
}

/// W001: a bus whose endpoint set is a strict subset of another bus with
/// at least the same capacity adds no connectivity or bandwidth — every
/// transfer it could carry, the wider bus already can.
fn buses(machine: &Machine, out: &mut Vec<Finding>) {
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
                out.push(Finding::new(
                    Rule::W001,
                    Element::Bus(BusId(i as u32)),
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
/// makes such instances unschedulable at any pressure. (For a complex
/// instruction the pattern matcher drops those instances, so the
/// machine still compiles what its other alternatives implement.)
fn bank_capacity(machine: &Machine, out: &mut Vec<Finding>) {
    for (ui, u) in machine.units().iter().enumerate() {
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
            out.push(Finding::new(
                Rule::W002,
                Element::Bank(u.bank),
                format!(
                    "{} on unit {} can need {need} simultaneously-live register operands but bank {} has only {} registers",
                    culprit, u.name, bank.name, bank.size
                ),
            ));
        }
    }
}

/// E004 / W003 / E001: constraints that always trigger, that can never
/// trigger, or that reference operations nothing implements.
fn constraints(machine: &Machine, out: &mut Vec<Finding>) {
    for (i, c) in machine.constraints().iter().enumerate() {
        let element = Element::Constraint(i);
        if c.at_most == 0 && !c.members.is_empty() {
            out.push(Finding::new(
                Rule::E004,
                element,
                "at most 0 members: an instruction holding any member is illegal, \
                 so no member can ever issue",
            ));
        } else if c.members.len() < 2 {
            out.push(Finding::new(
                Rule::W003,
                element,
                "constraint has fewer than 2 members and can never trigger",
            ));
            continue;
        }
        // A member can only be active if its unit actually implements
        // the named op; count the members that can ever fire.
        let mut active = 0usize;
        for m in &c.members {
            match *m {
                SlotPattern::UnitOp { unit, op: Some(op) } if !machine.unit(unit).can_do(op) => {
                    let name = &machine.unit(unit).name;
                    out.push(if implemented(machine, op) {
                        Finding::new(
                            Rule::W003,
                            element,
                            format!(
                                "member {name}.{op} can never be active: unit {name} does not implement {op}"
                            ),
                        )
                    } else {
                        Finding::new(
                            Rule::E001,
                            element,
                            format!("references op {op}, which no functional unit implements"),
                        )
                    });
                }
                _ => active += 1,
            }
        }
        if active > 0 && c.at_most as usize >= active {
            out.push(Finding::new(
                Rule::W003,
                element,
                format!(
                    "at most {} of {} satisfiable members can never be exceeded",
                    c.at_most, active
                ),
            ));
        }
    }
}
