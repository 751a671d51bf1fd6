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

use crate::model::{BusId, Location, Machine, SlotPattern, UnitId};
use aviv_ir::{Op, StableHasher};
use std::fmt;

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

/// Operation→units correlation database, indexed by operation.
#[derive(Debug, Clone)]
pub struct OpDb {
    /// The units able to execute each operation, grouped by operation:
    /// `unit_ranges[op.index()]` slices it, in unit order.
    units: Vec<UnitId>,
    unit_ranges: [(u32, u32); Op::COUNT],
    /// Complex instruction ids grouped by the root op of their pattern,
    /// the same way.
    complexes: Vec<usize>,
    complex_ranges: [(u32, u32); Op::COUNT],
}

/// Group `items`, listed in order with their operation, by operation,
/// keeping their order within each group: one allocation, sized exactly
/// (none when there are no items).
fn group_by_op<T: Copy>(
    items: impl Iterator<Item = (Op, T)> + Clone,
) -> (Vec<T>, [(u32, u32); Op::COUNT]) {
    let mut ranges = [(0u32, 0u32); Op::COUNT];
    for (op, _) in items.clone() {
        ranges[op.index()].1 += 1;
    }
    let mut at = 0;
    for range in &mut ranges {
        let count = range.1;
        *range = (at, at);
        at += count;
    }
    let mut grouped = Vec::new();
    if let Some((_, fill)) = items.clone().next() {
        grouped = vec![fill; at as usize];
        for (op, item) in items {
            let range = &mut ranges[op.index()];
            grouped[range.1 as usize] = item;
            range.1 += 1;
        }
    }
    (grouped, ranges)
}

impl OpDb {
    /// Build the database from a machine.
    pub fn new(m: &Machine) -> Self {
        let (units, unit_ranges) = group_by_op(
            m.units()
                .iter()
                .enumerate()
                .flat_map(|(i, u)| u.ops.iter().map(move |cap| (cap.op, UnitId(i as u32)))),
        );
        let (complexes, complex_ranges) = group_by_op(m.complexes().iter().enumerate().filter_map(
            |(i, cx)| match &cx.pattern {
                crate::model::PatTree::Op(op, _) => Some((*op, i)),
                crate::model::PatTree::Arg(_) => None,
            },
        ));
        OpDb {
            units,
            unit_ranges,
            complexes,
            complex_ranges,
        }
    }

    /// Units able to execute `op`, in unit order (empty when none).
    pub fn units_for(&self, op: Op) -> &[UnitId] {
        let (start, end) = self.unit_ranges[op.index()];
        &self.units[start as usize..end as usize]
    }

    /// Complex-instruction indices whose pattern root is `op`.
    pub fn complexes_rooted_at(&self, op: Op) -> &[usize] {
        let (start, end) = self.complex_ranges[op.index()];
        &self.complexes[start as usize..end as usize]
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
    /// Every stored path, grouped by ordered pair.
    paths: Vec<TransferPath>,
    /// The half-open range of `paths` of each ordered pair, at
    /// `slot(from) * n + slot(to)` for `n` locations: a plain index, since
    /// the cover-graph builder and the assignment bound look paths up for
    /// every transfer.
    pair_ranges: Vec<(u32, u32)>,
    /// Register banks; memory's slot follows theirs.
    n_banks: usize,
    /// Cap on stored equal-cost alternatives per pair.
    max_alternatives: usize,
}

/// No path: the root of the breadth-first search's path tree.
const NO_PATH: u32 = u32::MAX;

impl TransferDb {
    /// Build the database with the default alternative cap (4).
    pub fn new(m: &Machine) -> Self {
        Self::with_cap(m, 4)
    }

    /// Build the database keeping up to `max_alternatives` shortest paths
    /// per location pair.
    ///
    /// One breadth-first search per source location extends every
    /// shortest path found so far by one hop per round. Paths live in a
    /// tree of `(parent, hop)` entries, so extending one copies nothing;
    /// a path is spelled out only when it is stored.
    pub fn with_cap(m: &Machine, max_alternatives: usize) -> Self {
        let n_banks = m.banks().len();
        let n = n_banks + 1;
        let at = |location| slot(n_banks, location).expect("buses join the machine's locations");
        // Direct single-hop edges out of a slot, in bus order.
        let edges_of = |s: usize| {
            m.buses().iter().enumerate().flat_map(move |(bi, bus)| {
                let from = bus.endpoints.iter().copied().filter(move |&e| at(e) == s);
                let to = bus.endpoints.iter().copied();
                from.flat_map(move |from| {
                    to.clone().filter(move |&to| to != from).map(move |to| Hop {
                        bus: BusId(bi as u32),
                        from,
                        to,
                    })
                })
            })
        };

        // The search's reused state: the depth at which each slot was
        // first reached, the path tree, the current and next frontier,
        // and one source's stored paths with their destination slot.
        let mut best_cost = vec![usize::MAX; n];
        let mut tree: Vec<(u32, Hop)> = Vec::new();
        let (mut frontier, mut next) = (Vec::new(), Vec::new());
        let mut found: Vec<(usize, Vec<Hop>)> = Vec::new();
        let mut stored = vec![0usize; n];
        let mut paths = Vec::new();
        let mut pair_ranges = Vec::with_capacity(n * n);
        for from in 0..n {
            best_cost.fill(usize::MAX);
            best_cost[from] = 0;
            stored.fill(0);
            tree.clear();
            frontier.clear();
            found.clear();
            // Seed with single hops.
            for hop in edges_of(from) {
                frontier.push(tree.len() as u32);
                tree.push((NO_PATH, hop));
            }
            let mut depth = 1usize;
            while !frontier.is_empty() && depth <= n {
                next.clear();
                for &p in &frontier {
                    let dst = at(tree[p as usize].1.to);
                    if best_cost[dst] == usize::MAX {
                        best_cost[dst] = depth;
                    }
                    if best_cost[dst] != depth {
                        continue;
                    }
                    if stored[dst] < max_alternatives {
                        stored[dst] += 1;
                        let mut hops = Vec::with_capacity(depth);
                        let mut q = p;
                        while q != NO_PATH {
                            hops.push(tree[q as usize].1);
                            q = tree[q as usize].0;
                        }
                        hops.reverse();
                        found.push((dst, hops));
                    }
                    // Memory is a path endpoint, never an intermediate
                    // hop: routing a value bank→memory→bank is a spill,
                    // which the covering engine inserts explicitly, not a
                    // transfer.
                    if dst == n_banks {
                        continue;
                    }
                    // Extend only shortest paths: into slots not reached
                    // yet (a slot's depth is set while its round runs).
                    for hop in edges_of(dst) {
                        if best_cost[at(hop.to)] == usize::MAX {
                            next.push(tree.len() as u32);
                            tree.push((p, hop));
                        }
                    }
                }
                std::mem::swap(&mut frontier, &mut next);
                depth += 1;
            }
            // Store this source's paths grouped by destination, each
            // group in the order the search found it.
            for to in 0..n {
                let start = paths.len() as u32;
                for (dst, hops) in &mut found {
                    if *dst == to {
                        paths.push(TransferPath {
                            hops: std::mem::take(hops),
                        });
                    }
                }
                pair_ranges.push((start, paths.len() as u32));
            }
        }
        TransferDb {
            paths,
            pair_ranges,
            n_banks,
            max_alternatives,
        }
    }

    /// The stored paths of `(from, to)`; `None` for a bank the machine
    /// does not have.
    fn pair(&self, from: Location, to: Location) -> Option<&[TransferPath]> {
        let (from, to) = (slot(self.n_banks, from)?, slot(self.n_banks, to)?);
        let (start, end) = self.pair_ranges[from * (self.n_banks + 1) + to];
        Some(&self.paths[start as usize..end as usize])
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
        self.paths.iter().map(TransferPath::cost).max().unwrap_or(0)
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
    use crate::model::{MachineBuilder, PatTree, SlotPattern};

    fn single_bus_machine() -> Machine {
        let mut b = MachineBuilder::new("m");
        let u1 = b.unit("U1", &[Op::Add, Op::Sub], 4);
        let u2 = b.unit("U2", &[Op::Add, Op::Mul], 4);
        let u3 = b.unit("U3", &[Op::Mul], 4);
        b.bus("DB", &[u1, u2, u3], true, 1);
        b.build().unwrap()
    }

    /// The breadth-first search the slot-indexed one replaced: hash maps
    /// of edges and costs, and a copied path per frontier entry.
    fn reference_paths(m: &Machine, max_alternatives: usize) -> Vec<Vec<TransferPath>> {
        use std::collections::HashMap;
        let locs = m.locations();
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
        for (from, &src) in locs.iter().enumerate() {
            let mut best_cost: HashMap<Location, usize> = HashMap::new();
            best_cost.insert(src, 0);
            let mut frontier: Vec<TransferPath> = Vec::new();
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
                        let to = slot(n_banks, dst).unwrap();
                        let list = &mut paths[from * locs.len() + to];
                        if list.len() < max_alternatives {
                            list.push(p.clone());
                        }
                        if dst == Location::Mem {
                            continue;
                        }
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
        paths
    }

    /// Every machine of `archs`, at two and four registers, plus the
    /// single-bus test machine.
    fn machines() -> Vec<Machine> {
        use crate::archs;
        let mut machines = vec![single_bus_machine(), archs::accumulator_dsp()];
        for regs in [2, 4] {
            machines.extend([
                archs::example_arch(regs),
                archs::arch_two(regs),
                archs::dsp_arch(regs),
                archs::chained_arch(regs),
                archs::single_alu(regs),
                archs::wide_arch(regs),
                archs::quad_vliw(regs),
            ]);
        }
        machines
    }

    #[test]
    fn slot_indexed_search_matches_the_reference() {
        for m in machines() {
            for cap in 1..=4 {
                let db = TransferDb::with_cap(&m, cap);
                let want = reference_paths(&m, cap);
                let n = m.locations().len();
                for (i, &from) in m.locations().iter().enumerate() {
                    for (j, &to) in m.locations().iter().enumerate() {
                        let got = if from == to {
                            &[][..]
                        } else {
                            db.paths(from, to)
                        };
                        let want = if from == to {
                            &[][..]
                        } else {
                            &want[i * n + j][..]
                        };
                        assert_eq!(got, want, "{} cap {cap}: {from} -> {to}", m.name);
                    }
                }
                let longest = want.iter().flatten().map(TransferPath::cost).max();
                assert_eq!(db.max_hops(), longest.unwrap_or(0), "{}", m.name);
            }
        }
    }

    #[test]
    fn op_db_lists_what_a_scan_finds() {
        for m in machines() {
            let db = OpDb::new(&m);
            for &op in Op::all_computational().iter().chain(&[
                Op::Const,
                Op::Input,
                Op::Load,
                Op::Store,
                Op::StoreVar,
            ]) {
                let units: Vec<UnitId> = m
                    .units()
                    .iter()
                    .enumerate()
                    .flat_map(|(i, u)| {
                        u.ops
                            .iter()
                            .filter(move |c| c.op == op)
                            .map(move |_| UnitId(i as u32))
                    })
                    .collect();
                assert_eq!(db.units_for(op), units.as_slice(), "{} {op}", m.name);
                let complexes: Vec<usize> = m
                    .complexes()
                    .iter()
                    .enumerate()
                    .filter(|(_, cx)| matches!(&cx.pattern, crate::model::PatTree::Op(o, _) if *o == op))
                    .map(|(i, _)| i)
                    .collect();
                assert_eq!(
                    db.complexes_rooted_at(op),
                    complexes.as_slice(),
                    "{} {op}",
                    m.name
                );
            }
        }
    }

    /// The fingerprint is written into `--emit bin` headers and keys
    /// persisted plans, so its values are pinned: hashing the printer's
    /// stream must give what hashing its text gave.
    #[test]
    fn fingerprints_are_pinned() {
        use crate::archs;
        for (m, fingerprint) in [
            (archs::example_arch(4), 0x129b_acd1_cd44_5031),
            (archs::dsp_arch(4), 0x4d11_eca8_5fc0_0754),
            (archs::quad_vliw(2), 0xe156_01b2_d9af_1732),
            (archs::accumulator_dsp(), 0x292c_7c74_0bc9_ea05),
        ] {
            assert_eq!(Target::new(m).fingerprint(), fingerprint);
        }
        for m in machines() {
            let text = crate::printer::to_isdl(&m);
            let t = Target::new(m);
            assert_eq!(
                t.fingerprint(),
                aviv_ir::stablehash::hash_str(&text),
                "{}",
                t.machine.name
            );
        }
    }

    /// Only Wide's three identical units are interchangeable among the
    /// `archs` machines; a constraint, a complex instruction, another
    /// bus or a different bank size tells two otherwise equal units
    /// apart.
    #[test]
    fn interchangeable_units_form_classes() {
        let classes = |m: Machine| {
            let t = Target::new(m);
            let n = t.machine.units().len() as u32;
            let c: Vec<u32> = (0..n).map(|u| t.unit_class(UnitId(u)).0).collect();
            assert_eq!(
                t.has_interchangeable_units(),
                c.iter().enumerate().any(|(u, &r)| r != u as u32)
            );
            c
        };
        for m in machines() {
            let name = m.name.clone();
            let got = classes(m);
            if name == "Wide" {
                assert_eq!(got, [0, 0, 0]);
            } else {
                let alone = got.iter().enumerate().all(|(u, &r)| r == u as u32);
                assert!(alone, "{name}: {got:?}");
            }
        }
        // Two interchangeable units beside a distinct one.
        let pair = |tweak: fn(&mut MachineBuilder, [UnitId; 3])| {
            let mut b = MachineBuilder::new("pair");
            let u1 = b.unit("U1", &[Op::Add, Op::Mul], 2);
            let u2 = b.unit("U2", &[Op::Add, Op::Sub], 2);
            let u3 = b.unit("U3", &[Op::Add, Op::Mul], 2);
            b.bus("DB", &[u1, u2, u3], true, 1);
            tweak(&mut b, [u1, u2, u3]);
            classes(b.build().unwrap())
        };
        assert_eq!(pair(|_, _| {}), [0, 1, 0]);
        let named = pair(|b, [u1, ..]| {
            b.constraint(1, vec![SlotPattern::UnitOp { unit: u1, op: None }]);
        });
        assert_eq!(named, [0, 1, 2]);
        let complex = pair(|b, [.., u3]| {
            let square = PatTree::Op(Op::Mul, vec![PatTree::Arg(0), PatTree::Arg(0)]);
            b.complex("sq", u3, square);
        });
        assert_eq!(complex, [0, 1, 2]);
        let local = pair(|b, [u1, u2, _]| {
            b.bus("LOCAL", &[u1, u2], false, 1);
        });
        assert_eq!(local, [0, 1, 2]);
        let mut b = MachineBuilder::new("sizes");
        let u1 = b.unit("U1", &[Op::Add], 2);
        let u2 = b.unit("U2", &[Op::Add], 3);
        b.bus("DB", &[u1, u2], true, 1);
        assert_eq!(classes(b.build().unwrap()), [0, 1]);
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
    /// Per unit, the lowest-numbered unit interchangeable with it (see
    /// [`Target::unit_class`]); empty when no two units are.
    classes: Vec<UnitId>,
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
        let fingerprint = isdl_hash(&machine);
        let classes = unit_classes(&machine);
        Target {
            machine,
            ops,
            xfers,
            load_bank,
            round_trip_bank,
            fingerprint,
            classes,
        }
    }

    /// The lowest-numbered unit interchangeable with `unit` (`unit`
    /// itself when no lower one is). Two units are interchangeable when
    /// they have the same operations and costs and the same bank size,
    /// each owns its bank, their banks sit on the same buses, and no
    /// constraint or complex instruction names either unit: renaming
    /// one to the other, with its bank, maps the machine onto itself.
    pub fn unit_class(&self, unit: UnitId) -> UnitId {
        self.classes.get(unit.index()).copied().unwrap_or(unit)
    }

    /// Whether some two units are interchangeable ([`Target::unit_class`]).
    pub fn has_interchangeable_units(&self) -> bool {
        !self.classes.is_empty()
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

/// [`Target::unit_class`] of every unit, or nothing (and no allocation)
/// when every class has one member.
fn unit_classes(m: &Machine) -> Vec<UnitId> {
    let units = m.units();
    // A unit that owns its bank and that no constraint or complex
    // instruction names.
    let free = |u: usize| {
        let id = UnitId(u as u32);
        let names =
            |pat: &SlotPattern| matches!(*pat, SlotPattern::UnitOp { unit, .. } if unit == id);
        units.iter().filter(|v| v.bank == units[u].bank).count() == 1
            && !m.constraints().iter().any(|c| c.members.iter().any(names))
            && !m.complexes().iter().any(|cx| cx.unit == id)
    };
    let same = |a: usize, b: usize| {
        let (a, b) = (&units[a], &units[b]);
        let on = |bank, bus: &crate::model::Bus| bus.endpoints.contains(&Location::Bank(bank));
        a.ops == b.ops
            && m.bank(a.bank).size == m.bank(b.bank).size
            && m.buses()
                .iter()
                .all(|bus| on(a.bank, bus) == on(b.bank, bus))
    };
    let twin = |u: usize| (0..u).find(|&r| free(r) && same(r, u));
    if !(0..units.len()).any(|u| free(u) && twin(u).is_some()) {
        return Vec::new();
    }
    (0..units.len())
        .map(|u| {
            let class = if free(u) { twin(u).unwrap_or(u) } else { u };
            UnitId(class as u32)
        })
        .collect()
}

/// [`aviv_ir::stablehash::hash_str`] of [`crate::to_isdl`]'s text,
/// streamed: the printer runs once to count the bytes the hash is
/// prefixed with and once into the hash, and the text is never held.
fn isdl_hash(machine: &Machine) -> u64 {
    /// Counts the bytes written.
    struct Len(usize);
    impl fmt::Write for Len {
        fn write_str(&mut self, s: &str) -> fmt::Result {
            self.0 += s.len();
            Ok(())
        }
    }
    /// Feeds the bytes written to a hasher.
    struct Feed(StableHasher);
    impl fmt::Write for Feed {
        fn write_str(&mut self, s: &str) -> fmt::Result {
            self.0.write_bytes(s.as_bytes());
            Ok(())
        }
    }
    let mut len = Len(0);
    let _ = crate::printer::write_isdl(machine, &mut len);
    let mut feed = Feed(StableHasher::new());
    feed.0.write_usize(len.0);
    let _ = crate::printer::write_isdl(machine, &mut feed);
    feed.0.finish()
}
