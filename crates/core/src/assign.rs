//! Exploring split-node functional-unit assignments (paper §IV-A).
//!
//! "The first step of our algorithm is to prune the search space by
//! selecting only a few of the split-node functional unit assignments to
//! explore in depth. ... we prune the search space of possible
//! assignments by calculating an incremental cost for each split-node
//! encountered and continue the search only for split-node assignments
//! with minimum incremental cost. The split-nodes are tested in order of
//! increasing level from the top of the Split-Node DAG."
//!
//! The incremental cost of assigning node *n* to alternative *a* counts:
//!
//! * one per hop for every data transfer to an already-assigned consumer,
//! * one per hop for loading each named-variable leaf operand,
//! * one for every already-assigned node that could have executed in
//!   parallel with *n* (no dependency path) but now shares *n*'s resource
//!   — the "parallelism foregone",
//! * minus one per extra original node swallowed by a complex
//!   alternative.
//!
//! # Branch rows
//!
//! Exploration runs once per block on every compile, so a branch is not
//! an object but a row in one of two flat, row-major buffers (one
//! `Generation` per level, the current and the next), both reused for
//! the whole call. A row holds one `Slot` per DAG node:
//!
//! * the chosen alternative as a `u16` index, `u16::MAX` for none;
//! * the home resource as a `u16` code into the call's table of the
//!   distinct [`Exec`]s its alternatives use, `u16::MAX` for none;
//! * the covered flag (swallowed by a complex chosen at another node);
//!
//! and the generation keeps each row's accumulated cost beside it. A
//! child row is its parent copied onto the end of the next generation
//! and then edited; the beam trim moves the surviving rows down in place,
//! cheapest first and earliest among equals, in their old order. Only
//! the rows finally selected become [`Assignment`]s. The cost terms read
//! a row slice and the one `uses` table of the call, so the work per
//! branch allocates nothing.
//!
//! The rows are compact, six bytes per node, because an exhaustive
//! exploration (`heuristics_off`) holds every enumerated branch at once:
//! a row of `Option<usize>` and `Option<Exec>` takes 29 bytes per node
//! and raises the peak memory of the largest enumerations with it.

use crate::options::CodegenOptions;
use aviv_ir::{BitSet, BlockDag, Consumers, NodeId, Op};
use aviv_isdl::{BankId, Location, Target};
use aviv_splitdag::{AltInfo, AltKind, Exec, SplitNodeDag};

/// One complete functional-unit assignment: per original node, the chosen
/// alternative index into [`SplitNodeDag::alts`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Assignment {
    /// `choice[n]` is `Some(i)` when original node `n` executes as its
    /// `i`-th alternative; `None` for leaves, stores without alternatives,
    /// and nodes swallowed by a chosen complex instruction.
    pub choice: Vec<Option<usize>>,
    /// Original nodes covered by a complex chosen at another node.
    pub complex_covered: Vec<bool>,
    /// Accumulated incremental cost (the pruning estimate, not the final
    /// instruction count).
    pub est_cost: i64,
}

/// Result of assignment exploration.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ExploreResult {
    /// The selected assignments, lowest estimated cost first.
    pub assignments: Vec<Assignment>,
    /// Total assignments enumerated before selection.
    pub enumerated: usize,
    /// True when enumeration hit [`CodegenOptions::max_assignments`].
    pub truncated: bool,
}

/// Per-alternative record in an exploration trace (regenerates the
/// paper's Fig. 6).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TraceEntry {
    /// The original node being assigned.
    pub node: NodeId,
    /// Alternative index.
    pub alt: usize,
    /// Human-readable alternative description.
    pub desc: String,
    /// Its incremental cost in this branch.
    pub incremental_cost: i64,
    /// Whether the branch was pruned (cost above the minimum).
    pub pruned: bool,
}

/// Exploration trace: one entry per (branch, node, alternative) probe.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ExploreTrace {
    /// All probes in exploration order.
    pub entries: Vec<TraceEntry>,
}

/// The [`Slot`] sentinel: no alternative chosen, or no home resource.
const NONE: u16 = u16::MAX;

/// One DAG node of a branch row.
#[derive(Debug, Clone, Copy)]
struct Slot {
    /// Index of the chosen alternative into [`SplitNodeDag::alts`], or
    /// [`NONE`].
    choice: u16,
    /// Execution resource of the assigned or complex-covered node, as a
    /// code into [`Execs`], or [`NONE`].
    home: u16,
    /// Covered by a complex chosen at another node.
    covered: bool,
}

impl Slot {
    const EMPTY: Slot = Slot {
        choice: NONE,
        home: NONE,
        covered: false,
    };
}

/// `i` as a slot code. No machine description comes near 65,535
/// alternatives at one node or as many distinct resources.
fn code(i: usize) -> u16 {
    match u16::try_from(i) {
        Ok(c) if c != NONE => c,
        _ => panic!("slot code {i} does not fit in a u16"),
    }
}

/// The distinct execution resources met in one call, coded by index.
#[derive(Default)]
struct Execs {
    execs: Vec<Exec>,
    /// The register bank of each resource.
    banks: Vec<BankId>,
}

impl Execs {
    fn code(&mut self, exec: Exec, target: &Target) -> u16 {
        if let Some(i) = self.execs.iter().position(|&e| e == exec) {
            return code(i);
        }
        self.execs.push(exec);
        self.banks.push(match exec {
            Exec::Unit(u) => target.machine.bank_of(u),
            Exec::MemPort { bank, .. } => bank,
        });
        code(self.execs.len() - 1)
    }
}

/// One level's branches: `n` slots per row, row-major, and each row's
/// accumulated cost.
struct Generation {
    n: usize,
    slots: Vec<Slot>,
    cost: Vec<i64>,
}

impl Generation {
    fn new(n: usize) -> Self {
        Generation {
            n,
            slots: Vec::new(),
            cost: Vec::new(),
        }
    }

    fn len(&self) -> usize {
        self.cost.len()
    }

    fn clear(&mut self) {
        self.slots.clear();
        self.cost.clear();
    }

    fn row(&self, r: usize) -> &[Slot] {
        &self.slots[r * self.n..(r + 1) * self.n]
    }

    /// Appends a copy of `row` with accumulated cost `cost` and returns
    /// the copy.
    fn push(&mut self, row: &[Slot], cost: i64) -> &mut [Slot] {
        let at = self.slots.len();
        self.slots.extend_from_slice(row);
        self.cost.push(cost);
        &mut self.slots[at..]
    }

    /// Appends `row` with `node` assigned to its alternative `ai`
    /// (covering `covers`, empty but for a complex, and executing on
    /// resource `home`) at accumulated cost `cost`. Refuses, returning
    /// false, a complex that would swallow a node `row` has already
    /// assigned or covered.
    fn extend(
        &mut self,
        row: &[Slot],
        cost: i64,
        node: NodeId,
        ai: usize,
        covers: &[NodeId],
        home: u16,
    ) -> bool {
        let swallowed = || covers.iter().filter(|&&c| c != node);
        if swallowed().any(|c| {
            let s = row[c.index()];
            s.covered || s.choice != NONE
        }) {
            return false;
        }
        let child = self.push(row, cost);
        child[node.index()].choice = code(ai);
        child[node.index()].home = home;
        for c in swallowed() {
            child[c.index()].covered = true;
            child[c.index()].home = home;
        }
        true
    }

    /// Fills `order` with the indices of the `k` cheapest rows, cheapest
    /// first and the earlier of equal cost first.
    fn cheapest(&self, k: usize, order: &mut Vec<usize>) {
        order.clear();
        order.extend(0..self.len());
        // The keys are distinct, so an unstable sort orders them as a
        // stable one would.
        order.sort_unstable_by_key(|&r| (self.cost[r], r));
        order.truncate(k);
    }

    /// Keeps the `beam` cheapest rows in their current order, moving
    /// them down in place. `order` is scratch.
    fn trim(&mut self, beam: usize, order: &mut Vec<usize>) {
        if self.len() <= beam {
            return;
        }
        self.cheapest(beam, order);
        order.sort_unstable();
        let n = self.n;
        for (to, &from) in order.iter().enumerate() {
            self.slots.copy_within(from * n..(from + 1) * n, to * n);
            self.cost[to] = self.cost[from];
        }
        self.slots.truncate(beam * n);
        self.cost.truncate(beam);
    }

    fn assignment(&self, r: usize) -> Assignment {
        let row = self.row(r);
        Assignment {
            choice: row
                .iter()
                .map(|s| (s.choice != NONE).then_some(usize::from(s.choice)))
                .collect(),
            complex_covered: row.iter().map(|s| s.covered).collect(),
            est_cost: self.cost[r],
        }
    }
}

/// Enumerate functional-unit assignments for `dag` on `target`.
///
/// With [`CodegenOptions::prune_assignments`] set, branches keep only the
/// minimum-incremental-cost alternatives at each node; otherwise every
/// combination is generated (up to `max_assignments`). The returned list
/// is truncated to [`CodegenOptions::assignments_to_explore`].
pub fn explore(
    dag: &BlockDag,
    sndag: &SplitNodeDag,
    target: &Target,
    options: &CodegenOptions,
) -> ExploreResult {
    explore_traced(dag, sndag, target, options, None)
}

/// [`explore`] with an optional trace sink for the figures harness.
pub fn explore_traced(
    dag: &BlockDag,
    sndag: &SplitNodeDag,
    target: &Target,
    options: &CodegenOptions,
    mut trace: Option<&mut ExploreTrace>,
) -> ExploreResult {
    let n = dag.len();
    let desc_sets = dag.descendants();
    let uses = Consumers::new(dag);

    // Nodes with alternatives, in increasing level from the top.
    let levels_top = dag.levels_from_top();
    let mut order: Vec<NodeId> = dag
        .iter()
        .filter(|(id, _)| !sndag.alts(*id).is_empty())
        .map(|(id, _)| id)
        .collect();
    order.sort_by_key(|id| (levels_top[id.index()], id.0));

    let mut execs = Execs::default();
    let mut branches = Generation::new(n);
    branches.push(&vec![Slot::EMPTY; n], 0);
    let mut next = Generation::new(n);
    // Per level: each alternative's resource code; per branch: each
    // alternative's incremental cost.
    let (mut codes, mut costs) = (Vec::new(), Vec::new());
    let mut rank = Vec::new();
    let mut truncated = false;

    for &node in &order {
        let alts = sndag.alts(node);
        codes.clear();
        codes.extend(alts.iter().map(|alt| execs.code(alt.exec, target)));
        next.clear();
        for br in 0..branches.len() {
            let (row, base) = (branches.row(br), branches.cost[br]);
            if row[node.index()].covered {
                // Swallowed by a complex chosen at an ancestor.
                next.push(row, base);
                continue;
            }
            // Incremental cost of each alternative in this branch.
            costs.clear();
            for alt in alts {
                let mut cost = incremental_cost(
                    dag, sndag, target, &desc_sets, &uses, &execs, row, node, alt,
                );
                if options.pressure_aware_assignment {
                    cost += pressure_penalty(target, &uses, &execs, row, alt);
                }
                costs.push(cost);
            }
            let min = costs.iter().copied().min().unwrap_or(0);
            for (ai, alt) in alts.iter().enumerate() {
                let pruned = options.prune_assignments && costs[ai] > min + options.prune_slack;
                if let Some(t) = trace.as_deref_mut() {
                    t.entries.push(TraceEntry {
                        node,
                        alt: ai,
                        desc: describe_alt(target, alt),
                        incremental_cost: costs[ai],
                        pruned,
                    });
                }
                if pruned {
                    continue;
                }
                if next.extend(
                    row,
                    base + costs[ai],
                    node,
                    ai,
                    sndag.covers(alt),
                    codes[ai],
                ) && next.len() + 1 >= options.max_assignments
                {
                    truncated = true;
                    break;
                }
            }
            if truncated {
                break;
            }
        }
        // Beam trim by accumulated cost (stable: keeps exploration order
        // among equals).
        next.trim(options.assignment_beam, &mut rank);
        std::mem::swap(&mut branches, &mut next);
        if branches.len() == 0 {
            break;
        }
    }

    branches.cheapest(options.assignments_to_explore, &mut rank);
    ExploreResult {
        assignments: rank.iter().map(|&r| branches.assignment(r)).collect(),
        enumerated: branches.len(),
        truncated,
    }
}

/// The §IV-A incremental cost of assigning `node` to `alt` given the
/// partial assignment in `row`.
#[allow(clippy::too_many_arguments)]
fn incremental_cost(
    dag: &BlockDag,
    sndag: &SplitNodeDag,
    target: &Target,
    desc: &[BitSet],
    uses: &Consumers,
    execs: &Execs,
    row: &[Slot],
    node: NodeId,
    alt: &AltInfo,
) -> i64 {
    let my_bank = alt.home_bank(target);
    let my_loc = Location::Bank(my_bank);
    let mut cost: i64 = 0;

    // Transfers to already-assigned consumers (parents sit above, so they
    // are assigned before `node` in top-down order). Stores and dynamic
    // stores consume into memory / their chosen bank.
    for &p in uses.of(node) {
        let dest = match dag.node(p).op {
            Op::StoreVar => Location::Mem,
            _ => match row[p.index()].home {
                NONE => continue,
                home => Location::Bank(execs.banks[usize::from(home)]),
            },
        };
        if let Some(hops) = target.xfers.cost(my_loc, dest) {
            cost += hops as i64;
        }
    }

    // Loading leaf operands: named variables live in memory; constants
    // are immediates and cost nothing. For a complex alternative only the
    // root's own direct operands are charged — the swallowed interiors'
    // operand loads would be deferred to those nodes under the simple
    // alternative, so charging them here would bias the comparison
    // against the complex at this node.
    let args = &dag.node(node).args;
    let operands = sndag.complex_operands(alt).unwrap_or(args);
    for &o in operands.iter().filter(|o| args.contains(o)) {
        if dag.node(o).op == Op::Input {
            if let Some(hops) = target.xfers.cost(Location::Mem, my_loc) {
                cost += hops as i64;
            }
        }
    }

    // Parallelism foregone: previously assigned nodes with no dependency
    // path that now share this alternative's resource.
    for (qi, slot) in row.iter().enumerate() {
        if slot.home == NONE {
            continue;
        }
        let q = NodeId(qi as u32);
        if q == node || dag.dependent(desc, q, node) {
            continue;
        }
        let conflict = match (alt.exec, execs.execs[usize::from(slot.home)]) {
            (Exec::Unit(a), Exec::Unit(b)) => a == b,
            (Exec::MemPort { bus: a, .. }, Exec::MemPort { bus: b, .. }) => {
                a == b && target.machine.bus(a).capacity == 1
            }
            _ => false,
        };
        if conflict {
            cost += 1;
        }
    }

    // Complex instructions save one instruction slot per extra node they
    // swallow.
    if let [_, swallowed @ ..] = sndag.covers(alt) {
        cost -= swallowed.len() as i64;
    }
    cost
}

/// The §VI "ongoing work" term: penalize concentrating values that are
/// still awaiting consumers into one register bank beyond its size — such
/// assignments are the ones "likely to require spills to memory".
fn pressure_penalty(
    target: &Target,
    uses: &Consumers,
    execs: &Execs,
    row: &[Slot],
    alt: &AltInfo,
) -> i64 {
    let bank = alt.home_bank(target);
    // Values already assigned to this bank whose consumers are not yet
    // all assigned — a static proxy for "simultaneously live here".
    let mut live_here = 0i64;
    for (qi, slot) in row.iter().enumerate() {
        if slot.home == NONE || execs.banks[usize::from(slot.home)] != bank {
            continue;
        }
        let pending = uses.of(NodeId(qi as u32)).iter().any(|c| {
            let s = row[c.index()];
            s.choice == NONE && !s.covered
        });
        if pending {
            live_here += 1;
        }
    }
    let size = target.machine.bank(bank).size as i64;
    let excess = (live_here + 1) - size;
    if excess > 0 {
        2 * excess
    } else {
        0
    }
}

fn describe_alt(target: &Target, alt: &AltInfo) -> String {
    match (&alt.kind, alt.exec) {
        (AltKind::Simple(op), Exec::Unit(u)) => {
            format!("{} on {}", op, target.machine.unit(u).name)
        }
        (AltKind::Complex { index, .. }, Exec::Unit(u)) => format!(
            "{} on {}",
            target.machine.complexes()[*index].name,
            target.machine.unit(u).name
        ),
        (AltKind::DynLoad, Exec::MemPort { bus, bank }) => format!(
            "load via {} into {}",
            target.machine.bus(bus).name,
            target.machine.bank(bank).name
        ),
        (AltKind::DynStore, Exec::MemPort { bus, bank }) => format!(
            "store via {} from {}",
            target.machine.bus(bus).name,
            target.machine.bank(bank).name
        ),
        _ => "alt".to_string(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use aviv_ir::parse_function;
    use aviv_isdl::archs;

    /// The enumerator the flat rows replaced: every branch a [`Branch`]
    /// of three `Vec`s, cloned for each kept alternative, swallowed node
    /// and beam survivor. The oracle for [`super::explore_traced`].
    mod reference {
        use crate::assign::{describe_alt, Assignment, ExploreResult, ExploreTrace, TraceEntry};
        use crate::options::CodegenOptions;
        use aviv_ir::{BitSet, BlockDag, Consumers, NodeId, Op};
        use aviv_isdl::{Location, Target};
        use aviv_splitdag::{Exec, SplitNodeDag};

        #[derive(Clone)]
        struct Branch {
            choice: Vec<Option<usize>>,
            covered: Vec<bool>,
            /// Execution resource of every assigned or complex-covered node.
            home: Vec<Option<Exec>>,
            cost: i64,
        }

        /// Exploration as one `Vec`-backed branch per partial assignment.
        pub(super) fn explore_traced(
            dag: &BlockDag,
            sndag: &SplitNodeDag,
            target: &Target,
            options: &CodegenOptions,
            mut trace: Option<&mut ExploreTrace>,
        ) -> ExploreResult {
            let n = dag.len();
            let desc_sets = dag.descendants();
            let uses = Consumers::new(dag);

            // Nodes with alternatives, in increasing level from the top.
            let levels_top = dag.levels_from_top();
            let mut order: Vec<NodeId> = dag
                .iter()
                .filter(|(id, _)| !sndag.alts(*id).is_empty())
                .map(|(id, _)| id)
                .collect();
            order.sort_by_key(|id| (levels_top[id.index()], id.0));

            let mut branches = vec![Branch {
                choice: vec![None; n],
                covered: vec![false; n],
                home: vec![None; n],
                cost: 0,
            }];
            let mut truncated = false;

            for &node in &order {
                let alts = sndag.alts(node);
                let mut next: Vec<Branch> = Vec::new();
                for br in &branches {
                    if br.covered[node.index()] {
                        // Swallowed by a complex chosen at an ancestor.
                        next.push(br.clone());
                        continue;
                    }
                    // Incremental cost of each alternative in this branch.
                    let mut costs: Vec<i64> = Vec::with_capacity(alts.len());
                    for alt in alts {
                        let mut cost =
                            incremental_cost(dag, sndag, target, &desc_sets, &uses, br, node, alt);
                        if options.pressure_aware_assignment {
                            cost += pressure_penalty(dag, target, br, node, alt);
                        }
                        costs.push(cost);
                    }
                    let min = costs.iter().copied().min().unwrap_or(0);
                    for (ai, alt) in alts.iter().enumerate() {
                        let pruned =
                            options.prune_assignments && costs[ai] > min + options.prune_slack;
                        if let Some(t) = trace.as_deref_mut() {
                            t.entries.push(TraceEntry {
                                node,
                                alt: ai,
                                desc: describe_alt(target, alt),
                                incremental_cost: costs[ai],
                                pruned,
                            });
                        }
                        if pruned {
                            continue;
                        }
                        let mut nb = br.clone();
                        nb.choice[node.index()] = Some(ai);
                        nb.home[node.index()] = Some(alt.exec);
                        nb.cost += costs[ai];
                        if let covers @ [_, ..] = sndag.covers(alt) {
                            let mut overlap = false;
                            for &c in covers {
                                if c != node
                                    && (nb.covered[c.index()] || nb.choice[c.index()].is_some())
                                {
                                    overlap = true;
                                    break;
                                }
                            }
                            if overlap {
                                continue;
                            }
                            for &c in covers {
                                if c != node {
                                    nb.covered[c.index()] = true;
                                    nb.home[c.index()] = Some(alt.exec);
                                }
                            }
                        }
                        next.push(nb);
                        if next.len() + 1 >= options.max_assignments {
                            truncated = true;
                            break;
                        }
                    }
                    if truncated {
                        break;
                    }
                }
                // Beam trim by accumulated cost (stable: keeps exploration order
                // among equals).
                if next.len() > options.assignment_beam {
                    let mut idx: Vec<usize> = (0..next.len()).collect();
                    idx.sort_by_key(|&i| (next[i].cost, i));
                    idx.truncate(options.assignment_beam);
                    idx.sort_unstable();
                    let mut trimmed = Vec::with_capacity(idx.len());
                    for i in idx {
                        trimmed.push(next[i].clone());
                    }
                    next = trimmed;
                }
                branches = next;
                if branches.is_empty() {
                    break;
                }
            }

            let enumerated = branches.len();
            let assignments: Vec<Assignment> = branches
                .into_iter()
                .map(|b| Assignment {
                    choice: b.choice,
                    complex_covered: b.covered,
                    est_cost: b.cost,
                })
                .collect();
            let mut idx: Vec<usize> = (0..assignments.len()).collect();
            idx.sort_by_key(|&i| (assignments[i].est_cost, i));
            idx.truncate(options.assignments_to_explore.min(assignments.len()));
            let mut selected = Vec::with_capacity(idx.len());
            for i in idx {
                selected.push(assignments[i].clone());
            }
            ExploreResult {
                assignments: selected,
                enumerated,
                truncated,
            }
        }

        /// The §IV-A incremental cost of assigning `node` to `alt` given the
        /// partial assignment in `br`.
        #[allow(clippy::too_many_arguments)]
        fn incremental_cost(
            dag: &BlockDag,
            sndag: &SplitNodeDag,
            target: &Target,
            desc: &[BitSet],
            uses: &Consumers,
            br: &Branch,
            node: NodeId,
            alt: &aviv_splitdag::AltInfo,
        ) -> i64 {
            let my_bank = alt.home_bank(target);
            let my_loc = Location::Bank(my_bank);
            let mut cost: i64 = 0;

            // Transfers to already-assigned consumers (parents sit above, so they
            // are assigned before `node` in top-down order). Stores and dynamic
            // stores consume into memory / their chosen bank.
            for &p in uses.of(node) {
                let pn = dag.node(p);
                let dest = match pn.op {
                    Op::StoreVar => Some(Location::Mem),
                    _ => br.home[p.index()].map(|exec| match exec {
                        Exec::Unit(u) => Location::Bank(target.machine.bank_of(u)),
                        Exec::MemPort { bank, .. } => Location::Bank(bank),
                    }),
                };
                if let Some(dest) = dest {
                    if let Some(hops) = target.xfers.cost(my_loc, dest) {
                        cost += hops as i64;
                    }
                }
            }

            // Loading leaf operands: named variables live in memory; constants
            // are immediates and cost nothing. For a complex alternative only the
            // root's own direct operands are charged — the swallowed interiors'
            // operand loads would be deferred to those nodes under the simple
            // alternative, so charging them here would bias the comparison
            // against the complex at this node.
            let operand_list: Vec<NodeId> = match sndag.complex_operands(alt) {
                Some(operands) => {
                    let root_args = &dag.node(node).args;
                    operands
                        .iter()
                        .copied()
                        .filter(|o| root_args.contains(o))
                        .collect()
                }
                _ => dag.node(node).args.clone(),
            };
            for o in operand_list {
                if dag.node(o).op == Op::Input {
                    if let Some(hops) = target.xfers.cost(Location::Mem, my_loc) {
                        cost += hops as i64;
                    }
                }
            }

            // Parallelism foregone: previously assigned nodes with no dependency
            // path that now share this alternative's resource.
            for (qi, home) in br.home.iter().enumerate() {
                let Some(q_exec) = home else { continue };
                let q = NodeId(qi as u32);
                if q == node || dag.dependent(desc, q, node) {
                    continue;
                }
                let conflict = match (alt.exec, *q_exec) {
                    (Exec::Unit(a), Exec::Unit(b)) => a == b,
                    (Exec::MemPort { bus: a, .. }, Exec::MemPort { bus: b, .. }) => {
                        a == b && target.machine.bus(a).capacity == 1
                    }
                    _ => false,
                };
                if conflict {
                    cost += 1;
                }
            }

            // Complex instructions save one instruction slot per extra node they
            // swallow.
            if let [_, swallowed @ ..] = sndag.covers(alt) {
                cost -= swallowed.len() as i64;
            }
            cost
        }

        /// The §VI "ongoing work" term: penalize concentrating values that are
        /// still awaiting consumers into one register bank beyond its size — such
        /// assignments are the ones "likely to require spills to memory".
        fn pressure_penalty(
            dag: &BlockDag,
            target: &Target,
            br: &Branch,
            _node: NodeId,
            alt: &aviv_splitdag::AltInfo,
        ) -> i64 {
            let bank = alt.home_bank(target);
            let uses = Consumers::new(dag);
            // Values already assigned to this bank whose consumers are not yet
            // all assigned — a static proxy for "simultaneously live here".
            let mut live_here = 0i64;
            for (qi, home) in br.home.iter().enumerate() {
                let Some(exec) = home else { continue };
                let q_bank = match exec {
                    Exec::Unit(u) => target.machine.bank_of(*u),
                    Exec::MemPort { bank, .. } => *bank,
                };
                if q_bank != bank {
                    continue;
                }
                let pending = uses
                    .of(NodeId(qi as u32))
                    .iter()
                    .any(|c| br.choice[c.index()].is_none() && !br.covered[c.index()]);
                if pending {
                    live_here += 1;
                }
            }
            let size = target.machine.bank(bank).size as i64;
            let excess = (live_here + 1) - size;
            if excess > 0 {
                2 * excess
            } else {
                0
            }
        }
    }

    fn setup(src: &str, machine: aviv_isdl::Machine) -> (aviv_ir::Function, Target, SplitNodeDag) {
        let f = parse_function(src).unwrap();
        let target = Target::new(machine);
        let sn = SplitNodeDag::build(&f.blocks[0].dag, &target).unwrap();
        (f, target, sn)
    }

    #[test]
    fn exhaustive_mode_enumerates_the_whole_space() {
        let (f, target, sn) = setup(
            "func f(a, b, d, e) { out = (d * e) - (a + b); }",
            archs::example_arch(4),
        );
        let res = explore(
            &f.blocks[0].dag,
            &sn,
            &target,
            &CodegenOptions::heuristics_off(),
        );
        // 2 (SUB) x 2 (MUL) x 3 (ADD) = 12, the paper's count.
        assert_eq!(res.enumerated, 12);
        assert_eq!(res.assignments.len(), 12);
        assert!(!res.truncated);
        // Lowest cost first.
        for w in res.assignments.windows(2) {
            assert!(w[0].est_cost <= w[1].est_cost);
        }
    }

    #[test]
    fn pruned_mode_returns_fewer_assignments() {
        let (f, target, sn) = setup(
            "func f(a, b, d, e) { out = (d * e) - (a + b); }",
            archs::example_arch(4),
        );
        let mut opts = CodegenOptions::heuristics_on();
        opts.prune_slack = 0;
        opts.assignments_to_explore = 4;
        let on = explore(&f.blocks[0].dag, &sn, &target, &opts);
        assert!(on.enumerated <= 12);
        assert!(on.assignments.len() <= 4);
        assert!(!on.assignments.is_empty());
    }

    /// The paper's Fig. 6 worked example: SUB feeds a COMPL that only U1
    /// can execute. SUB-on-U1 has incremental cost 0; SUB-on-U2 costs 1
    /// (a transfer to U1) and is pruned.
    #[test]
    fn fig6_sub_costs_and_pruning() {
        let (f, target, sn) = setup(
            "func f(a, b, d, e) { out = ~((d * e) - (a + b)); }",
            archs::example_arch(4),
        );
        let mut trace = ExploreTrace::default();
        let mut opts = CodegenOptions::heuristics_on();
        opts.prune_slack = 0; // the paper's prune-to-minimum rule
        let _ = explore_traced(&f.blocks[0].dag, &sn, &target, &opts, Some(&mut trace));
        // Find the SUB probes.
        let dag = &f.blocks[0].dag;
        let sub = dag
            .iter()
            .find(|(_, n)| n.op == aviv_ir::Op::Sub)
            .map(|(id, _)| id)
            .unwrap();
        let sub_probes: Vec<&TraceEntry> = trace.entries.iter().filter(|e| e.node == sub).collect();
        assert_eq!(sub_probes.len(), 2, "SUB has two alternatives");
        let on_u1 = sub_probes.iter().find(|e| e.desc.contains("U1")).unwrap();
        let on_u2 = sub_probes.iter().find(|e| e.desc.contains("U2")).unwrap();
        assert_eq!(on_u1.incremental_cost, 0, "no transfer to COMPL on U1");
        assert_eq!(on_u2.incremental_cost, 1, "one transfer to COMPL on U1");
        assert!(!on_u1.pruned);
        assert!(on_u2.pruned);
    }

    /// Continuing Fig. 6: with SUB on U1 and MUL on U2, ADD-on-U1 costs 2
    /// (two leaf loads), ADD-on-U2 costs 4 (two loads + transfer to SUB +
    /// merging with MUL foregone).
    #[test]
    fn fig6_add_costs() {
        let (f, target, sn) = setup(
            "func f(a, b, d, e) { out = ~((d * e) - (a + b)); }",
            archs::example_arch(4),
        );
        let mut trace = ExploreTrace::default();
        let mut opts = CodegenOptions::heuristics_on();
        opts.prune_slack = 0; // the paper's prune-to-minimum rule
        let _ = explore_traced(&f.blocks[0].dag, &sn, &target, &opts, Some(&mut trace));
        let dag = &f.blocks[0].dag;
        let add = dag
            .iter()
            .find(|(_, n)| n.op == aviv_ir::Op::Add)
            .map(|(id, _)| id)
            .unwrap();
        let probes: Vec<&TraceEntry> = trace
            .entries
            .iter()
            .filter(|e| e.node == add && !e.desc.is_empty())
            .collect();
        // Branches where MUL went to U2 probe the ADD with these costs:
        let u1_costs: Vec<i64> = probes
            .iter()
            .filter(|e| e.desc.contains("U1"))
            .map(|e| e.incremental_cost)
            .collect();
        let u2_costs: Vec<i64> = probes
            .iter()
            .filter(|e| e.desc.contains("U2"))
            .map(|e| e.incremental_cost)
            .collect();
        assert!(u1_costs.contains(&2), "ADD on U1 = 2 loads: {u1_costs:?}");
        assert!(
            u2_costs.contains(&4),
            "ADD on U2 = 2 loads + xfer + lost merge: {u2_costs:?}"
        );
    }

    #[test]
    fn complex_alternatives_win_when_available() {
        let (f, target, sn) = setup("func f(a, b, c) { y = a * b + c; }", archs::dsp_arch(4));
        let res = explore(
            &f.blocks[0].dag,
            &sn,
            &target,
            &CodegenOptions::heuristics_on(),
        );
        // The best assignment should use the MAC (it saves a slot).
        let best = &res.assignments[0];
        let dag = &f.blocks[0].dag;
        let add = dag
            .iter()
            .find(|(_, n)| n.op == aviv_ir::Op::Add)
            .map(|(id, _)| id)
            .unwrap();
        let ai = best.choice[add.index()].unwrap();
        assert!(matches!(sn.alts(add)[ai].kind, AltKind::Complex { .. }));
        // The swallowed MUL has no choice of its own.
        let mul = dag
            .iter()
            .find(|(_, n)| n.op == aviv_ir::Op::Mul)
            .map(|(id, _)| id)
            .unwrap();
        assert!(best.complex_covered[mul.index()]);
        assert_eq!(best.choice[mul.index()], None);
    }

    #[test]
    fn beam_caps_branch_count() {
        let (f, target, sn) = setup(
            "func f(a,b,c,d,e,g,h,i) { x = (a+b)*(c+d); y = (e+g)*(h+i); z = x - y; }",
            archs::example_arch(4),
        );
        let mut opts = CodegenOptions::heuristics_on();
        opts.assignment_beam = 2;
        opts.assignments_to_explore = 2;
        let res = explore(&f.blocks[0].dag, &sn, &target, &opts);
        assert!(res.assignments.len() <= 2);
        assert!(res.enumerated <= 2);
    }
    /// The overlap guard, which no matcher-built DAG reaches (a complex
    /// swallows only single-use interiors, which sit below its root and
    /// so are assigned after it): a complex is refused when a node it
    /// would swallow is already assigned or covered.
    #[test]
    fn a_complex_never_swallows_a_taken_node() {
        let (f, target, sn) = setup("func f(a, b, c) { y = a * b + c; }", archs::dsp_arch(4));
        let dag = &f.blocks[0].dag;
        let find = |op| dag.iter().find(|(_, n)| n.op == op).unwrap().0;
        let (add, mul) = (find(aviv_ir::Op::Add), find(aviv_ir::Op::Mul));
        let (ai, mac) = sn
            .alts(add)
            .iter()
            .enumerate()
            .find(|(_, a)| matches!(a.kind, AltKind::Complex { .. }))
            .expect("the MAC matches");
        let home = Execs::default().code(mac.exec, &target);
        let empty = vec![Slot::EMPTY; dag.len()];
        let mut next = Generation::new(dag.len());
        assert!(next.extend(&empty, 0, add, ai, sn.covers(mac), home));
        let swallowed = next.row(0)[mul.index()];
        assert!(swallowed.covered && swallowed.choice == NONE && swallowed.home == home);
        let covered = Slot {
            covered: true,
            ..Slot::EMPTY
        };
        let assigned = Slot {
            choice: 0,
            home,
            covered: false,
        };
        for taken in [covered, assigned] {
            let mut row = empty.clone();
            row[mul.index()] = taken;
            assert!(
                !next.extend(&row, 0, add, ai, sn.covers(mac), home),
                "{taken:?}"
            );
        }
        assert_eq!(next.len(), 1);
    }

    /// Every preset with the pressure term off and on: at its own beam,
    /// at beams of 1, 2, 3 and 8, and under a cap of 6 branches. No
    /// enumeration goes past 4,000 branches.
    fn oracle_options() -> Vec<CodegenOptions> {
        let mut out = Vec::new();
        for preset in [
            CodegenOptions::heuristics_on(),
            CodegenOptions::heuristics_off(),
            CodegenOptions::thorough(),
        ] {
            for pressure in [false, true] {
                let base = CodegenOptions {
                    pressure_aware_assignment: pressure,
                    max_assignments: preset.max_assignments.min(4_000),
                    ..preset.clone()
                };
                for beam in [1, 2, 3, 8] {
                    out.push(CodegenOptions {
                        assignment_beam: beam,
                        ..base.clone()
                    });
                }
                out.push(CodegenOptions {
                    max_assignments: 6,
                    ..base.clone()
                });
                out.push(base);
            }
        }
        out
    }

    /// The rows against the [`reference`] enumerator: the same
    /// assignments in the same order, the same counts and the same trace,
    /// on seeded random blocks on every bundled machine at two to four
    /// registers per bank, under every option set of [`oracle_options`].
    #[test]
    fn rows_enumerate_like_the_reference() {
        let makers = [
            archs::example_arch as fn(u32) -> _,
            archs::arch_two,
            archs::dsp_arch,
            archs::chained_arch,
            archs::single_alu,
            archs::wide_arch,
            archs::quad_vliw,
        ];
        let machines = (2..=4)
            .flat_map(|regs| makers.map(|make| make(regs)))
            .chain([archs::accumulator_dsp()]);
        let blocks: Vec<aviv_ir::Function> = [3, 5, 8]
            .into_iter()
            .flat_map(|n_ops| {
                let cfg = aviv_ir::randdag::RandDagConfig {
                    n_ops,
                    ops: vec![aviv_ir::Op::Add, aviv_ir::Op::Sub, aviv_ir::Op::Mul],
                    ..Default::default()
                };
                (0..3).map(move |seed| aviv_ir::randdag::random_block(&cfg, seed))
            })
            .collect();
        let all_options = oracle_options();
        let (mut compared, mut truncated, mut at_beam) = (0, 0, 0);
        for machine in machines {
            let target = Target::new(machine);
            for (b, f) in blocks.iter().enumerate() {
                let dag = &f.blocks[0].dag;
                let Ok(sn) = SplitNodeDag::build(dag, &target) else {
                    continue;
                };
                for (o, options) in all_options.iter().enumerate() {
                    let what = format!("{} block {b} options {o}", target.machine.name);
                    let mut rows = ExploreTrace::default();
                    let got = explore_traced(dag, &sn, &target, options, Some(&mut rows));
                    let mut branches = ExploreTrace::default();
                    let want =
                        reference::explore_traced(dag, &sn, &target, options, Some(&mut branches));
                    assert_eq!(got, want, "{what}");
                    assert_eq!(rows, branches, "{what}");
                    compared += 1;
                    truncated += usize::from(want.truncated);
                    at_beam += usize::from(want.enumerated == options.assignment_beam);
                }
            }
        }
        assert!(compared > 2_000, "{compared} explorations compared");
        assert!(
            truncated > 100 && at_beam > 100,
            "{truncated} truncated, {at_beam} at the beam"
        );
    }
}
