//! Databases derived from the machine description (paper §II).
//!
//! "The instruction set information contained in the ISDL machine
//! description is used to create several databases which are later used to
//! create the Split-Node DAG":
//!
//! * [`OpDb`] — the correlation between target-processor operations and
//!   the SUIF basic operations (which units can execute each [`Op`], and
//!   which complex instructions match which root op);
//! * [`TransferDb`] — "all possible data transfers explicitly stated in
//!   the target machine description ... subsequently expanded to include
//!   multiple-step data transfers as well".

use crate::model::{BusId, Location, Machine, UnitId};
use aviv_ir::Op;
use std::collections::HashMap;

/// One hop of a transfer path: a move across one bus.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Hop {
    /// Bus carrying the hop.
    pub bus: BusId,
    /// Source location.
    pub from: Location,
    /// Destination location.
    pub to: Location,
}

/// A (possibly multi-hop) transfer path between two locations.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TransferPath {
    /// The hops in order; `hops[0].from` is the source and
    /// `hops.last().to` the destination.
    pub hops: Vec<Hop>,
}

impl TransferPath {
    /// Path cost = number of hops = transfer nodes the path inserts.
    pub fn cost(&self) -> usize {
        self.hops.len()
    }

    /// Source location.
    pub fn from(&self) -> Location {
        self.hops.first().expect("path has at least one hop").from
    }

    /// Destination location.
    pub fn to(&self) -> Location {
        self.hops.last().expect("path has at least one hop").to
    }
}

/// Operation→units correlation database.
#[derive(Debug, Clone)]
pub struct OpDb {
    by_op: HashMap<Op, Vec<UnitId>>,
    /// Complex instruction ids grouped by root op of their pattern.
    complexes_by_root: HashMap<Op, Vec<usize>>,
}

impl OpDb {
    /// Build the database from a machine.
    pub fn new(m: &Machine) -> Self {
        let mut by_op: HashMap<Op, Vec<UnitId>> = HashMap::new();
        for (i, u) in m.units().iter().enumerate() {
            for cap in &u.ops {
                by_op.entry(cap.op).or_default().push(UnitId(i as u32));
            }
        }
        let mut complexes_by_root: HashMap<Op, Vec<usize>> = HashMap::new();
        for (i, cx) in m.complexes().iter().enumerate() {
            if let crate::model::PatTree::Op(op, _) = &cx.pattern {
                complexes_by_root.entry(*op).or_default().push(i);
            }
        }
        OpDb {
            by_op,
            complexes_by_root,
        }
    }

    /// Units able to execute `op`, in unit order (empty when none).
    pub fn units_for(&self, op: Op) -> &[UnitId] {
        self.by_op.get(&op).map_or(&[], |v| v.as_slice())
    }

    /// Complex-instruction indices whose pattern root is `op`.
    pub fn complexes_rooted_at(&self, op: Op) -> &[usize] {
        self.complexes_by_root
            .get(&op)
            .map_or(&[], |v| v.as_slice())
    }

    /// Whether the machine can implement `op` at all (directly; complex
    /// coverage not counted).
    pub fn supports(&self, op: Op) -> bool {
        !self.units_for(op).is_empty()
    }
}

/// All-pairs shortest transfer paths between storage locations.
///
/// For each ordered `(from, to)` pair the database stores *every* shortest
/// path (up to a cap): when an architecture offers multiple equal-length
/// routes, §IV-B's heuristic chooses among them by parallelism, so the
/// alternatives must be preserved.
#[derive(Debug, Clone)]
pub struct TransferDb {
    /// The paths of each ordered pair, at `slot(from) * n + slot(to)`
    /// for `n` locations: a plain index, since the cover-graph builder
    /// and the assignment bound look paths up for every transfer.
    paths: Vec<Vec<TransferPath>>,
    /// Register banks; memory's slot follows theirs.
    n_banks: usize,
    /// Cap on stored equal-cost alternatives per pair.
    max_alternatives: usize,
}

impl TransferDb {
    /// Build the database with the default alternative cap (4).
    pub fn new(m: &Machine) -> Self {
        Self::with_cap(m, 4)
    }

    /// Build the database keeping up to `max_alternatives` shortest paths
    /// per location pair.
    pub fn with_cap(m: &Machine, max_alternatives: usize) -> Self {
        let locs = m.locations();
        // Direct single-hop edges.
        let mut edges: HashMap<Location, Vec<Hop>> = HashMap::new();
        for (bi, bus) in m.buses().iter().enumerate() {
            for &from in &bus.endpoints {
                for &to in &bus.endpoints {
                    if from != to {
                        edges.entry(from).or_default().push(Hop {
                            bus: BusId(bi as u32),
                            from,
                            to,
                        });
                    }
                }
            }
        }
        let n_banks = m.banks().len();
        let mut paths = vec![Vec::new(); locs.len() * locs.len()];
        // `locs` lists the locations in slot order.
        for (from, &src) in locs.iter().enumerate() {
            // Breadth-first exploration keeping all shortest paths.
            let mut best_cost: HashMap<Location, usize> = HashMap::new();
            best_cost.insert(src, 0);
            let mut frontier: Vec<TransferPath> = Vec::new();
            // Seed with single hops.
            for hop in edges.get(&src).into_iter().flatten() {
                frontier.push(TransferPath { hops: vec![*hop] });
            }
            let mut depth = 1usize;
            while !frontier.is_empty() && depth <= locs.len() {
                let mut next = Vec::new();
                for p in frontier {
                    let dst = p.to();
                    let entry = best_cost.entry(dst).or_insert(depth);
                    if *entry == depth {
                        let to = slot(n_banks, dst).expect("paths end at the machine's locations");
                        let list = &mut paths[from * locs.len() + to];
                        if list.len() < max_alternatives {
                            list.push(p.clone());
                        }
                        // Memory is a path endpoint, never an intermediate
                        // hop: routing a value bank→memory→bank is a
                        // spill, which the covering engine inserts
                        // explicitly, not a transfer.
                        if dst == Location::Mem {
                            continue;
                        }
                        // Extend only shortest paths.
                        for hop in edges.get(&dst).into_iter().flatten() {
                            if !best_cost.contains_key(&hop.to) || best_cost[&hop.to] == depth + 1 {
                                let mut q = p.clone();
                                q.hops.push(*hop);
                                next.push(q);
                            }
                        }
                    }
                }
                frontier = next;
                depth += 1;
            }
        }
        TransferDb {
            paths,
            n_banks,
            max_alternatives,
        }
    }

    /// The stored paths of `(from, to)`; `None` for a bank the machine
    /// does not have.
    fn pair(&self, from: Location, to: Location) -> Option<&[TransferPath]> {
        let (from, to) = (slot(self.n_banks, from)?, slot(self.n_banks, to)?);
        Some(&self.paths[from * (self.n_banks + 1) + to])
    }

    /// All stored shortest paths from `from` to `to` (empty if
    /// unreachable; locations are reachable in any validated machine).
    pub fn paths(&self, from: Location, to: Location) -> &[TransferPath] {
        if from == to {
            return &[];
        }
        self.pair(from, to).unwrap_or(&[])
    }

    /// Cost (hop count) of the shortest transfer, or `None` when
    /// unreachable. Zero when `from == to`.
    pub fn cost(&self, from: Location, to: Location) -> Option<usize> {
        if from == to {
            return Some(0);
        }
        self.pair(from, to)
            .and_then(<[_]>::first)
            .map(TransferPath::cost)
    }

    /// Hops of the longest stored path: the most transfer nodes one
    /// transfer can add.
    pub fn max_hops(&self) -> usize {
        self.paths
            .iter()
            .flatten()
            .map(TransferPath::cost)
            .max()
            .unwrap_or(0)
    }

    /// The configured alternative cap.
    pub fn max_alternatives(&self) -> usize {
        self.max_alternatives
    }
}

/// A location's slot in [`TransferDb`]'s table: its bank's index, or
/// `n_banks` for memory (the order of [`Machine::locations`]); `None`
/// for a bank past the machine's.
fn slot(n_banks: usize, location: Location) -> Option<usize> {
    match location {
        Location::Bank(b) => (b.index() < n_banks).then_some(b.index()),
        Location::Mem => Some(n_banks),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::{MachineBuilder, SlotPattern};

    fn single_bus_machine() -> Machine {
        let mut b = MachineBuilder::new("m");
        let u1 = b.unit("U1", &[Op::Add, Op::Sub], 4);
        let u2 = b.unit("U2", &[Op::Add, Op::Mul], 4);
        let u3 = b.unit("U3", &[Op::Mul], 4);
        b.bus("DB", &[u1, u2, u3], true, 1);
        b.build().unwrap()
    }

    #[test]
    fn op_db_lists_capable_units() {
        let m = single_bus_machine();
        let db = OpDb::new(&m);
        assert_eq!(db.units_for(Op::Add), &[UnitId(0), UnitId(1)]);
        assert_eq!(db.units_for(Op::Mul), &[UnitId(1), UnitId(2)]);
        assert_eq!(db.units_for(Op::Sub), &[UnitId(0)]);
        assert!(db.units_for(Op::Div).is_empty());
        assert!(db.supports(Op::Add));
        assert!(!db.supports(Op::Div));
    }

    #[test]
    fn single_bus_gives_one_hop_paths() {
        let m = single_bus_machine();
        let db = TransferDb::new(&m);
        for &from in &m.locations() {
            for &to in &m.locations() {
                if from == to {
                    assert_eq!(db.cost(from, to), Some(0));
                } else {
                    assert_eq!(db.cost(from, to), Some(1), "{from}->{to}");
                    assert_eq!(db.paths(from, to).len(), 1);
                }
            }
        }
    }

    #[test]
    fn chained_buses_need_multi_hop() {
        // U1 <-> U2 on bus A; U2 <-> memory on bus B. U1's bank reaches
        // memory only through U2's bank: 2 hops.
        let mut b = MachineBuilder::new("chain");
        let u1 = b.unit("U1", &[Op::Add], 4);
        let u2 = b.unit("U2", &[Op::Mul], 4);
        b.bus("A", &[u1, u2], false, 1);
        b.bus("B", &[u2], true, 1);
        let m = b.build().unwrap();
        let db = TransferDb::new(&m);
        let rf1 = Location::Bank(m.bank_of(UnitId(0)));
        let rf2 = Location::Bank(m.bank_of(UnitId(1)));
        assert_eq!(db.cost(rf1, rf2), Some(1));
        assert_eq!(db.cost(rf1, Location::Mem), Some(2));
        let p = &db.paths(rf1, Location::Mem)[0];
        assert_eq!(p.hops.len(), 2);
        assert_eq!(p.from(), rf1);
        assert_eq!(p.to(), Location::Mem);
        assert_eq!(p.hops[0].to, rf2);
    }

    #[test]
    fn parallel_buses_give_alternatives() {
        // Two buses both connect U1, U2, memory: two shortest paths.
        let mut b = MachineBuilder::new("par");
        let u1 = b.unit("U1", &[Op::Add], 4);
        let u2 = b.unit("U2", &[Op::Mul], 4);
        b.bus("A", &[u1, u2], true, 1);
        b.bus("B", &[u1, u2], true, 1);
        let m = b.build().unwrap();
        let db = TransferDb::new(&m);
        let rf1 = Location::Bank(m.bank_of(UnitId(0)));
        let rf2 = Location::Bank(m.bank_of(UnitId(1)));
        let alts = db.paths(rf1, rf2);
        assert_eq!(alts.len(), 2);
        assert_ne!(alts[0].hops[0].bus, alts[1].hops[0].bus);
    }

    #[test]
    fn complexes_indexed_by_root() {
        use crate::model::PatTree;
        let mut b = MachineBuilder::new("cx");
        let u1 = b.unit("U1", &[Op::Add, Op::Mul], 4);
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
        let db = OpDb::new(&m);
        assert_eq!(db.complexes_rooted_at(Op::Add), &[0]);
        assert!(db.complexes_rooted_at(Op::Mul).is_empty());
        // Keep clippy quiet about unused import in cfg(test).
        let _ = SlotPattern::BusUse { bus: BusId(0) };
    }
}

/// A machine bundled with its derived databases — what the back end
/// actually retargets against.
#[derive(Debug, Clone)]
pub struct Target {
    /// The processor description.
    pub machine: Machine,
    /// Operation→unit correlation database.
    pub ops: OpDb,
    /// Data-transfer path database.
    pub xfers: TransferDb,
    /// The bank cheapest to load into from memory — where live-out input
    /// leaves are materialized. Precomputed so every block (and every
    /// worker thread) shares one answer instead of rescanning the
    /// transfer database.
    pub load_bank: Option<crate::model::BankId>,
    /// The bank with the cheapest memory round trip (load + store) — the
    /// staging bank for memory-to-memory copies.
    pub round_trip_bank: Option<crate::model::BankId>,
    /// [`Target::fingerprint`], computed once by [`Target::new`].
    fingerprint: u64,
}

impl Target {
    /// Build the databases for `machine`.
    pub fn new(machine: Machine) -> Self {
        let ops = OpDb::new(&machine);
        let xfers = TransferDb::new(&machine);
        let banks = (0..machine.banks().len() as u32).map(crate::model::BankId);
        let load_bank = banks.clone().min_by_key(|&b| {
            xfers
                .cost(Location::Mem, Location::Bank(b))
                .unwrap_or(usize::MAX)
        });
        let round_trip_bank = banks.min_by_key(|&b| {
            xfers
                .cost(Location::Mem, Location::Bank(b))
                .unwrap_or(usize::MAX)
                .saturating_add(
                    xfers
                        .cost(Location::Bank(b), Location::Mem)
                        .unwrap_or(usize::MAX),
                )
        });
        let fingerprint = aviv_ir::stablehash::hash_str(&crate::printer::to_isdl(&machine));
        Target {
            machine,
            ops,
            xfers,
            load_bank,
            round_trip_bank,
            fingerprint,
        }
    }

    /// Stable content fingerprint of the machine description.
    ///
    /// Two `Target`s fingerprint equal iff their machines print to the
    /// same canonical ISDL text — the derived databases (`ops`, `xfers`,
    /// bank picks) are pure functions of the machine, so hashing the
    /// canonical printout covers everything covering and scheduling can
    /// observe. Compile services use this as the target component of
    /// plan-cache keys, so the value must be reproducible across parses
    /// and processes; it is built on [`aviv_ir::StableHasher`] (FNV-1a),
    /// never the std hasher.
    ///
    /// The value is computed once, by [`Target::new`], so reading it is
    /// free; like the derived databases it describes the machine the
    /// target was built from.
    pub fn fingerprint(&self) -> u64 {
        self.fingerprint
    }
}
