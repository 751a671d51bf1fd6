//! The target-processor model extracted from an ISDL description.
//!
//! The paper drives code generation from an ISDL machine description that
//! supplies: the operations each functional unit can perform (via each
//! instruction's RTL), the storage resources (one register file per unit,
//! data memory), the explicit data-transfer paths (buses), the constraints
//! that make instruction fields non-orthogonal, and optional complex
//! instructions. [`Machine`] captures exactly that information; the
//! derived databases of §II live in [`crate::db`].

use aviv_ir::Op;
use std::fmt;

/// Functional-unit index.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct UnitId(pub u32);

/// Register-bank index.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct BankId(pub u32);

/// Bus index.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct BusId(pub u32);

impl UnitId {
    /// Raw vector index.
    pub fn index(self) -> usize {
        self.0 as usize
    }
}
impl BankId {
    /// Raw vector index.
    pub fn index(self) -> usize {
        self.0 as usize
    }
}
impl BusId {
    /// Raw vector index.
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Display for UnitId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "u{}", self.0)
    }
}
impl fmt::Display for BankId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "rf{}", self.0)
    }
}
impl fmt::Display for BusId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "bus{}", self.0)
    }
}

/// A value's home: a register bank or the data memory.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum Location {
    /// A register bank.
    Bank(BankId),
    /// The (single) data memory.
    Mem,
}

impl fmt::Display for Location {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Location::Bank(b) => write!(f, "{b}"),
            Location::Mem => write!(f, "DM"),
        }
    }
}

/// One functional unit: a name, the operations it implements, and its
/// private register file (the paper's units "each contain their own
/// register file").
#[derive(Debug, Clone)]
pub struct Unit {
    /// Unit name from the description (e.g. `U1`).
    pub name: String,
    /// Operations this unit can execute, each with a size cost in
    /// instruction words (1 for everything in the paper's machines).
    pub ops: Vec<OpCap>,
    /// The unit's register file.
    pub bank: BankId,
}

impl Unit {
    /// Whether the unit implements `op`.
    pub fn can_do(&self, op: Op) -> bool {
        self.ops.iter().any(|c| c.op == op)
    }
}

/// An operation capability of a unit.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct OpCap {
    /// The machine-independent operation implemented.
    pub op: Op,
    /// Size cost in instruction words (paper machines: always 1).
    pub cost: u32,
}

/// A register file.
#[derive(Debug, Clone)]
pub struct RegBank {
    /// Bank name from the description (e.g. `RF1`).
    pub name: String,
    /// Number of registers. The paper's experiments use 4 and 2.
    pub size: u32,
}

/// A data-transfer resource connecting storage locations. A bus can carry
/// at most `capacity` transfers per instruction; the example architecture
/// of the paper's Fig. 3 has a single databus with capacity 1.
#[derive(Debug, Clone)]
pub struct Bus {
    /// Bus name from the description (e.g. `DB`).
    pub name: String,
    /// Locations this bus connects (any-to-any among them).
    pub endpoints: Vec<Location>,
    /// Transfers per instruction this bus supports.
    pub capacity: u32,
}

impl Bus {
    /// Whether the bus can move a value from `from` to `to` in one hop.
    pub fn connects(&self, from: Location, to: Location) -> bool {
        from != to && self.endpoints.contains(&from) && self.endpoints.contains(&to)
    }
}

/// One side of a constraint: an instruction-slot usage pattern.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SlotPattern {
    /// Unit `unit` executing `op` (or any op when `op` is `None`).
    UnitOp {
        /// The unit.
        unit: UnitId,
        /// Specific operation, or any.
        op: Option<Op>,
    },
    /// Any transfer occupying the given bus.
    BusUse {
        /// The bus.
        bus: BusId,
    },
}

/// An ISDL constraint restricting which slot usages may co-occur in one
/// instruction. ISDL treats fields as orthogonal and subtracts illegal
/// combinations (unlike nML, which enumerates legal ones) — see §V-C.
#[derive(Debug, Clone)]
pub struct Constraint {
    /// At most this many of `members` may appear together. A `forbid`
    /// constraint over n members is `AtMost(n - 1)`.
    pub at_most: u32,
    /// The slot patterns counted against `at_most`.
    pub members: Vec<SlotPattern>,
}

/// A tree pattern for a complex instruction (e.g. multiply-accumulate).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum PatTree {
    /// An operation applied to sub-patterns.
    Op(Op, Vec<PatTree>),
    /// A pattern operand, numbered by first occurrence (repetition allowed:
    /// `mul(a, a)` squares its operand).
    Arg(usize),
}

impl PatTree {
    /// Number of distinct operands the pattern consumes.
    pub fn arg_count(&self) -> usize {
        fn walk(p: &PatTree, max: &mut Option<usize>) {
            match p {
                PatTree::Arg(i) => {
                    *max = Some(max.map_or(*i, |m: usize| m.max(*i)));
                }
                PatTree::Op(_, args) => args.iter().for_each(|a| walk(a, max)),
            }
        }
        let mut max = None;
        walk(self, &mut max);
        max.map_or(0, |m| m + 1)
    }

    /// Number of operation nodes in the pattern.
    pub fn op_count(&self) -> usize {
        match self {
            PatTree::Arg(_) => 0,
            PatTree::Op(_, args) => 1 + args.iter().map(PatTree::op_count).sum::<usize>(),
        }
    }

    /// Evaluate the pattern on operand values (the simulator's semantics
    /// for complex instructions).
    ///
    /// # Panics
    ///
    /// Panics if `args.len() < self.arg_count()`.
    pub fn eval(&self, args: &[i64]) -> i64 {
        match self {
            PatTree::Arg(i) => args[*i],
            PatTree::Op(op, subs) => {
                let vals: Vec<i64> = subs.iter().map(|s| s.eval(args)).collect();
                op.eval(&vals)
            }
        }
    }
}

/// A complex instruction: a unit executes a whole expression-tree pattern
/// in one instruction slot (§III-B: "additional nodes and edges
/// corresponding to the matched complex instructions are added").
#[derive(Debug, Clone)]
pub struct ComplexInstr {
    /// Mnemonic (e.g. `mac`).
    pub name: String,
    /// The unit that executes it.
    pub unit: UnitId,
    /// The expression pattern covered.
    pub pattern: PatTree,
    /// Size cost in instruction words.
    pub cost: u32,
}

/// A complete target-processor description.
#[derive(Debug, Clone)]
pub struct Machine {
    /// Machine name.
    pub name: String,
    pub(crate) units: Vec<Unit>,
    pub(crate) banks: Vec<RegBank>,
    pub(crate) buses: Vec<Bus>,
    pub(crate) constraints: Vec<Constraint>,
    pub(crate) complexes: Vec<ComplexInstr>,
}

impl Machine {
    /// Build a machine from parts; use [`MachineBuilder`] for ergonomic
    /// construction, or [`crate::parse_machine`] for the textual format.
    ///
    /// # Errors
    ///
    /// Returns the first dangling unit/bank/bus index, or else the first
    /// error finding of the machine rules ([`Machine::findings`]),
    /// rendered as `CODE element: message`.
    pub fn from_parts(
        name: String,
        units: Vec<Unit>,
        banks: Vec<RegBank>,
        buses: Vec<Bus>,
        constraints: Vec<Constraint>,
        complexes: Vec<ComplexInstr>,
    ) -> Result<Machine, String> {
        let m = Machine {
            name,
            units,
            banks,
            buses,
            constraints,
            complexes,
        };
        m.validate_refs()?;
        match m.refusal() {
            Some(f) => Err(f.render(&m)),
            None => Ok(m),
        }
    }

    /// The functional units.
    pub fn units(&self) -> &[Unit] {
        &self.units
    }

    /// The register banks.
    pub fn banks(&self) -> &[RegBank] {
        &self.banks
    }

    /// The buses.
    pub fn buses(&self) -> &[Bus] {
        &self.buses
    }

    /// The instruction-legality constraints.
    pub fn constraints(&self) -> &[Constraint] {
        &self.constraints
    }

    /// The complex instructions.
    pub fn complexes(&self) -> &[ComplexInstr] {
        &self.complexes
    }

    /// Access a unit.
    pub fn unit(&self, u: UnitId) -> &Unit {
        &self.units[u.index()]
    }

    /// Access a bank.
    pub fn bank(&self, b: BankId) -> &RegBank {
        &self.banks[b.index()]
    }

    /// Access a bus.
    pub fn bus(&self, b: BusId) -> &Bus {
        &self.buses[b.index()]
    }

    /// The register bank owned by unit `u`.
    pub fn bank_of(&self, u: UnitId) -> BankId {
        self.units[u.index()].bank
    }

    /// Find a unit by name.
    pub fn unit_by_name(&self, name: &str) -> Option<UnitId> {
        self.units
            .iter()
            .position(|u| u.name == name)
            .map(|i| UnitId(i as u32))
    }

    /// Find a bank by name.
    pub fn bank_by_name(&self, name: &str) -> Option<BankId> {
        self.banks
            .iter()
            .position(|b| b.name == name)
            .map(|i| BankId(i as u32))
    }

    /// Find a bus by name.
    pub fn bus_by_name(&self, name: &str) -> Option<BusId> {
        self.buses
            .iter()
            .position(|b| b.name == name)
            .map(|i| BusId(i as u32))
    }

    /// All storage locations: every bank plus memory, in a stable order.
    pub fn locations(&self) -> Vec<Location> {
        let mut v: Vec<Location> = (0..self.banks.len() as u32)
            .map(|i| Location::Bank(BankId(i)))
            .collect();
        v.push(Location::Mem);
        v
    }

    /// Referential integrity: every unit/bank/bus index stored anywhere
    /// in the machine is in range, so the rule walks and the
    /// pretty-printer cannot panic. Only the Rust API can break it; the
    /// parser resolves every name it stores.
    fn validate_refs(&self) -> Result<(), String> {
        for u in &self.units {
            if u.bank.index() >= self.banks.len() {
                return Err(format!("unit {} references missing bank", u.name));
            }
        }
        for bus in &self.buses {
            for &e in &bus.endpoints {
                if let Location::Bank(b) = e {
                    if b.index() >= self.banks.len() {
                        return Err(format!("bus {} references missing bank", bus.name));
                    }
                }
            }
        }
        for c in &self.constraints {
            for m in &c.members {
                match *m {
                    SlotPattern::UnitOp { unit, .. } => {
                        if unit.index() >= self.units.len() {
                            return Err("constraint references missing unit".into());
                        }
                    }
                    SlotPattern::BusUse { bus } => {
                        if bus.index() >= self.buses.len() {
                            return Err("constraint references missing bus".into());
                        }
                    }
                }
            }
        }
        for cx in &self.complexes {
            if cx.unit.index() >= self.units.len() {
                return Err(format!("complex {} references missing unit", cx.name));
            }
        }
        Ok(())
    }

    /// Every storage location reachable from `start` by chaining bus
    /// hops (including `start` itself). The same BFS the transfer
    /// database and the reachability rule use; public so analysis tools
    /// can reason about connectivity without rebuilding it.
    pub fn reachable_from(&self, start: Location) -> Vec<Location> {
        let mut seen = vec![start];
        let mut queue = vec![start];
        while let Some(loc) = queue.pop() {
            for bus in &self.buses {
                if bus.endpoints.contains(&loc) {
                    for &e in &bus.endpoints {
                        if !seen.contains(&e) {
                            seen.push(e);
                            queue.push(e);
                        }
                    }
                }
            }
        }
        seen
    }

    /// Human-readable summary (used by the figures binary for Fig. 3).
    pub fn describe(&self) -> String {
        let mut s = format!("machine {}\n", self.name);
        for u in &self.units {
            let ops: Vec<&str> = u.ops.iter().map(|c| c.op.mnemonic()).collect();
            let bank = &self.banks[u.bank.index()];
            s.push_str(&format!(
                "  unit {:4} ops {{{}}} regfile {}[{}]\n",
                u.name,
                ops.join(", "),
                bank.name,
                bank.size
            ));
        }
        for b in &self.buses {
            let eps: Vec<String> = b
                .endpoints
                .iter()
                .map(|e| match e {
                    Location::Bank(id) => self.banks[id.index()].name.clone(),
                    Location::Mem => "DM".to_string(),
                })
                .collect();
            s.push_str(&format!(
                "  bus {} capacity {} connects {{{}}}\n",
                b.name,
                b.capacity,
                eps.join(", ")
            ));
        }
        for c in &self.constraints {
            s.push_str(&format!(
                "  constraint at_most {} of {} members\n",
                c.at_most,
                c.members.len()
            ));
        }
        for cx in &self.complexes {
            s.push_str(&format!(
                "  complex {} on {} covering {} ops\n",
                cx.name,
                self.units[cx.unit.index()].name,
                cx.pattern.op_count()
            ));
        }
        s
    }
}

/// Incremental builder for [`Machine`]; each `unit` call creates the unit
/// together with its private register file.
#[derive(Debug, Default)]
pub struct MachineBuilder {
    name: String,
    units: Vec<Unit>,
    banks: Vec<RegBank>,
    buses: Vec<Bus>,
    constraints: Vec<Constraint>,
    complexes: Vec<ComplexInstr>,
}

impl MachineBuilder {
    /// Start building a machine called `name`.
    pub fn new(name: &str) -> Self {
        MachineBuilder {
            name: name.to_owned(),
            ..Default::default()
        }
    }

    /// Add a unit with its own register file of `bank_size` registers,
    /// implementing `ops` (cost 1 each). Returns the new unit's id.
    pub fn unit(&mut self, name: &str, ops: &[Op], bank_size: u32) -> UnitId {
        let bank = BankId(self.banks.len() as u32);
        self.banks.push(RegBank {
            name: format!("RF{}", self.banks.len() + 1),
            size: bank_size,
        });
        let id = UnitId(self.units.len() as u32);
        self.units.push(Unit {
            name: name.to_owned(),
            ops: ops.iter().map(|&op| OpCap { op, cost: 1 }).collect(),
            bank,
        });
        id
    }

    /// Add a bus connecting the register files of `units` (and memory when
    /// `with_mem`). Returns the bus id.
    pub fn bus(&mut self, name: &str, units: &[UnitId], with_mem: bool, capacity: u32) -> BusId {
        let mut endpoints: Vec<Location> = units
            .iter()
            .map(|&u| Location::Bank(self.units[u.index()].bank))
            .collect();
        if with_mem {
            endpoints.push(Location::Mem);
        }
        let id = BusId(self.buses.len() as u32);
        self.buses.push(Bus {
            name: name.to_owned(),
            endpoints,
            capacity,
        });
        id
    }

    /// Add a constraint.
    pub fn constraint(&mut self, at_most: u32, members: Vec<SlotPattern>) -> &mut Self {
        self.constraints.push(Constraint { at_most, members });
        self
    }

    /// Add a complex instruction.
    pub fn complex(&mut self, name: &str, unit: UnitId, pattern: PatTree) -> &mut Self {
        self.complex_with_cost(name, unit, pattern, 1)
    }

    /// Add a complex instruction with an explicit size cost.
    pub fn complex_with_cost(
        &mut self,
        name: &str,
        unit: UnitId,
        pattern: PatTree,
        cost: u32,
    ) -> &mut Self {
        self.complexes.push(ComplexInstr {
            name: name.to_owned(),
            unit,
            pattern,
            cost,
        });
        self
    }

    /// Finish, judging the machine.
    ///
    /// # Errors
    ///
    /// Propagates [`Machine::from_parts`] refusals.
    pub fn build(self) -> Result<Machine, String> {
        Machine::from_parts(
            self.name,
            self.units,
            self.banks,
            self.buses,
            self.constraints,
            self.complexes,
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny() -> Machine {
        let mut b = MachineBuilder::new("tiny");
        let u1 = b.unit("U1", &[Op::Add, Op::Sub], 4);
        let u2 = b.unit("U2", &[Op::Add, Op::Mul], 4);
        b.bus("DB", &[u1, u2], true, 1);
        b.build().unwrap()
    }

    #[test]
    fn builder_produces_valid_machine() {
        let m = tiny();
        assert_eq!(m.units().len(), 2);
        assert_eq!(m.banks().len(), 2);
        assert!(m.unit(UnitId(0)).can_do(Op::Sub));
        assert!(!m.unit(UnitId(1)).can_do(Op::Sub));
        assert_eq!(m.unit_by_name("U2"), Some(UnitId(1)));
        assert_eq!(m.locations().len(), 3);
    }

    #[test]
    fn disconnected_bank_rejected() {
        let mut b = MachineBuilder::new("bad");
        let u1 = b.unit("U1", &[Op::Add], 4);
        let _u2 = b.unit("U2", &[Op::Add], 4);
        // Bus reaches only U1's bank and memory; U2's bank is stranded.
        b.bus("DB", &[u1], true, 1);
        assert!(b.build().is_err());
    }

    #[test]
    fn zero_sized_bank_rejected() {
        let mut b = MachineBuilder::new("bad");
        let u1 = b.unit("U1", &[Op::Add], 0);
        b.bus("DB", &[u1], true, 1);
        assert!(b.build().is_err());
    }

    #[test]
    fn constraint_validation() {
        let mut b = MachineBuilder::new("c");
        let u1 = b.unit("U1", &[Op::Add], 4);
        let u2 = b.unit("U2", &[Op::Mul], 4);
        b.bus("DB", &[u1, u2], true, 1);
        b.constraint(
            1,
            vec![
                SlotPattern::UnitOp {
                    unit: u1,
                    op: Some(Op::Add),
                },
                SlotPattern::UnitOp {
                    unit: u2,
                    op: Some(Op::Mul),
                },
            ],
        );
        assert!(b.build().is_ok());

        // at_most >= member count never triggers: a warning, which never
        // refuses; at_most 0 always triggers: an error, which does.
        for (at_most, refused) in [(2, false), (0, true)] {
            let mut b = MachineBuilder::new("c2");
            let u1 = b.unit("U1", &[Op::Add], 4);
            let u2 = b.unit("U2", &[Op::Mul], 4);
            b.bus("DB", &[u1, u2], true, 1);
            b.constraint(
                at_most,
                vec![
                    SlotPattern::UnitOp { unit: u1, op: None },
                    SlotPattern::UnitOp { unit: u2, op: None },
                ],
            );
            let built = b.build();
            assert_eq!(built.is_err(), refused, "at_most {at_most}: {built:?}");
        }
        let mut b = MachineBuilder::new("c3");
        let u1 = b.unit("U1", &[Op::Add], 4);
        b.bus("DB", &[u1], true, 1);
        b.constraint(0, vec![SlotPattern::UnitOp { unit: u1, op: None }]);
        let e = b.build().unwrap_err();
        assert!(e.starts_with("E004 constraint #0: at most 0"), "{e}");
    }

    /// A dangling index from the Rust API is refused before any rule
    /// walks the machine.
    #[test]
    fn dangling_references_are_refused() {
        let m = tiny();
        let parts = |units| {
            let (banks, buses) = (m.banks().to_vec(), m.buses().to_vec());
            Machine::from_parts("t".into(), units, banks, buses, vec![], vec![])
        };
        assert!(parts(m.units().to_vec()).is_ok());
        let mut units = m.units().to_vec();
        units[1].bank = BankId(7);
        assert_eq!(parts(units).unwrap_err(), "unit U2 references missing bank");
    }

    #[test]
    fn pattern_tree_helpers() {
        // mac = add(mul(a0, a1), a2)
        let mac = PatTree::Op(
            Op::Add,
            vec![
                PatTree::Op(Op::Mul, vec![PatTree::Arg(0), PatTree::Arg(1)]),
                PatTree::Arg(2),
            ],
        );
        assert_eq!(mac.arg_count(), 3);
        assert_eq!(mac.op_count(), 2);
        assert_eq!(mac.eval(&[3, 4, 5]), 17);
        // square = mul(a0, a0): repeated args count once.
        let sq = PatTree::Op(Op::Mul, vec![PatTree::Arg(0), PatTree::Arg(0)]);
        assert_eq!(sq.arg_count(), 1);
        assert_eq!(sq.eval(&[9]), 81);
    }

    #[test]
    fn describe_mentions_everything() {
        let m = tiny();
        let d = m.describe();
        assert!(d.contains("U1") && d.contains("U2") && d.contains("DB"));
        assert!(d.contains("add"));
    }
}

/// Design-space editing: the paper's methodology modifies candidate
/// machines ("we changed the target architecture of Figure 3 by removing
/// the SUB operation from functional unit U1, and completely removing
/// functional unit U3"). These constructors derive a new validated
/// machine from an existing one.
impl Machine {
    /// A copy without the named unit (its register file is removed too;
    /// buses drop the orphaned endpoint).
    ///
    /// # Errors
    ///
    /// Fails when the unit does not exist, is referenced by a constraint
    /// or complex instruction, or when the result is invalid (e.g. no
    /// units left).
    pub fn without_unit(&self, unit_name: &str) -> Result<Machine, String> {
        let uid = self
            .unit_by_name(unit_name)
            .ok_or_else(|| format!("no unit named {unit_name}"))?;
        let dead_bank = self.bank_of(uid);
        for c in &self.constraints {
            for m in &c.members {
                if matches!(m, SlotPattern::UnitOp { unit, .. } if *unit == uid) {
                    return Err(format!("constraint references {unit_name}"));
                }
            }
        }
        if self.complexes.iter().any(|cx| cx.unit == uid) {
            return Err(format!("complex instruction references {unit_name}"));
        }
        let remap_unit = |u: UnitId| UnitId(if u.0 > uid.0 { u.0 - 1 } else { u.0 });
        let remap_bank = |b: BankId| BankId(if b.0 > dead_bank.0 { b.0 - 1 } else { b.0 });
        let units: Vec<Unit> = self
            .units
            .iter()
            .enumerate()
            .filter(|&(i, _)| i != uid.index())
            .map(|(_, u)| Unit {
                name: u.name.clone(),
                ops: u.ops.clone(),
                bank: remap_bank(u.bank),
            })
            .collect();
        let banks: Vec<RegBank> = self
            .banks
            .iter()
            .enumerate()
            .filter(|&(i, _)| i != dead_bank.index())
            .map(|(_, b)| b.clone())
            .collect();
        let buses: Vec<Bus> = self
            .buses
            .iter()
            .map(|b| Bus {
                name: b.name.clone(),
                endpoints: b
                    .endpoints
                    .iter()
                    .filter(|&&e| e != Location::Bank(dead_bank))
                    .map(|&e| match e {
                        Location::Bank(bk) => Location::Bank(remap_bank(bk)),
                        Location::Mem => Location::Mem,
                    })
                    .collect(),
                capacity: b.capacity,
            })
            .collect();
        let constraints: Vec<Constraint> = self
            .constraints
            .iter()
            .map(|c| Constraint {
                at_most: c.at_most,
                members: c
                    .members
                    .iter()
                    .map(|m| match *m {
                        SlotPattern::UnitOp { unit, op } => SlotPattern::UnitOp {
                            unit: remap_unit(unit),
                            op,
                        },
                        other => other,
                    })
                    .collect(),
            })
            .collect();
        let complexes: Vec<ComplexInstr> = self
            .complexes
            .iter()
            .map(|cx| ComplexInstr {
                name: cx.name.clone(),
                unit: remap_unit(cx.unit),
                pattern: cx.pattern.clone(),
                cost: cx.cost,
            })
            .collect();
        Machine::from_parts(
            self.name.clone(),
            units,
            banks,
            buses,
            constraints,
            complexes,
        )
    }

    /// A copy with `op` removed from the named unit.
    ///
    /// # Errors
    ///
    /// Fails when the unit or op is missing, or when the rules refuse the
    /// result: the unit is left without operations, or a pattern or
    /// constraint names an op no unit implements any more.
    pub fn without_op(&self, unit_name: &str, op: aviv_ir::Op) -> Result<Machine, String> {
        let uid = self
            .unit_by_name(unit_name)
            .ok_or_else(|| format!("no unit named {unit_name}"))?;
        if !self.units[uid.index()].can_do(op) {
            return Err(format!("{unit_name} does not implement {op}"));
        }
        let mut units = self.units.clone();
        units[uid.index()].ops.retain(|c| c.op != op);
        Machine::from_parts(
            self.name.clone(),
            units,
            self.banks.clone(),
            self.buses.clone(),
            self.constraints.clone(),
            self.complexes.clone(),
        )
    }

    /// A copy with every register file resized to `regs` (the paper's
    /// 4-vs-2 experiments).
    ///
    /// # Errors
    ///
    /// Fails for `regs == 0`.
    pub fn with_bank_size(&self, regs: u32) -> Result<Machine, String> {
        let banks: Vec<RegBank> = self
            .banks
            .iter()
            .map(|b| RegBank {
                name: b.name.clone(),
                size: regs,
            })
            .collect();
        Machine::from_parts(
            self.name.clone(),
            self.units.clone(),
            banks,
            self.buses.clone(),
            self.constraints.clone(),
            self.complexes.clone(),
        )
    }

    /// A copy under a new name (useful when deriving variants).
    pub fn renamed(&self, name: &str) -> Machine {
        let mut m = self.clone();
        m.name = name.to_string();
        m
    }
}

#[cfg(test)]
mod edit_tests {
    use super::*;
    use aviv_ir::Op;

    fn fig3_like() -> Machine {
        let mut b = MachineBuilder::new("Example");
        let u1 = b.unit("U1", &[Op::Add, Op::Sub, Op::Compl], 4);
        let u2 = b.unit("U2", &[Op::Add, Op::Sub, Op::Mul], 4);
        let u3 = b.unit("U3", &[Op::Add, Op::Mul], 4);
        b.bus("DB", &[u1, u2, u3], true, 1);
        b.build().unwrap()
    }

    /// The paper's Table II derivation, done programmatically.
    #[test]
    fn derive_arch_two_from_fig3() {
        let m = fig3_like()
            .without_op("U1", Op::Sub)
            .unwrap()
            .without_unit("U3")
            .unwrap()
            .renamed("ArchII");
        assert_eq!(m.units().len(), 2);
        assert_eq!(m.banks().len(), 2);
        assert!(!m.units()[0].can_do(Op::Sub));
        assert!(m.units()[1].can_do(Op::Mul));
        // Bus endpoints shrank with the removed bank.
        assert_eq!(m.buses()[0].endpoints.len(), 3);
    }

    #[test]
    fn resize_banks() {
        let m = fig3_like().with_bank_size(2).unwrap();
        assert!(m.banks().iter().all(|b| b.size == 2));
        assert!(fig3_like().with_bank_size(0).is_err());
    }

    #[test]
    fn removals_are_guarded() {
        let m = fig3_like();
        assert!(m.without_unit("U9").is_err());
        assert!(m.without_op("U3", Op::Sub).is_err());
        // Removing every unit is invalid.
        let one = m.without_unit("U3").unwrap().without_unit("U2").unwrap();
        assert!(one.without_unit("U1").is_err());
    }

    #[test]
    fn unit_ids_remap_in_constraints_and_complexes() {
        let mut b = MachineBuilder::new("C");
        let u1 = b.unit("U1", &[Op::Add], 4);
        let u2 = b.unit("U2", &[Op::Mul, Op::Add], 4);
        let u3 = b.unit("U3", &[Op::Mul], 4);
        b.bus("DB", &[u1, u2, u3], true, 1);
        b.constraint(
            1,
            vec![
                SlotPattern::UnitOp {
                    unit: u2,
                    op: Some(Op::Mul),
                },
                SlotPattern::UnitOp {
                    unit: u3,
                    op: Some(Op::Mul),
                },
            ],
        );
        let m = b.build().unwrap();
        // Removing U1 shifts U2/U3 down by one; the constraint must follow.
        let m2 = m.without_unit("U1").unwrap();
        match m2.constraints()[0].members[0] {
            SlotPattern::UnitOp { unit, .. } => assert_eq!(unit, UnitId(0)),
            _ => panic!("expected unit pattern"),
        }
        // Without U2.mul the constraint can never trigger: a warning,
        // which loads. Without U3.mul, U3 has no operations: refused.
        let inert = m.without_op("U2", Op::Mul).unwrap();
        assert!(inert.findings().iter().all(|f| f.rule == crate::Rule::W003));
        let e = m.without_op("U3", Op::Mul).unwrap_err();
        assert!(e.starts_with("E004 unit U3: "), "{e}");
    }
}
