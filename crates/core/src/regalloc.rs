//! Detailed register allocation (paper §IV-F).
//!
//! "We perform detailed register allocation using conventional graph
//! coloring algorithms. We are guaranteed to be able to color each
//! register bank graph using the given number of registers because we have
//! analyzed the variable lifetimes in the instruction selection and
//! scheduling step." Live ranges are half-open `[def, last_use)` over the
//! schedule's step indices (reads happen before writes within a VLIW
//! instruction, so a value dying at step *t* frees its register for a
//! value defined at *t*).

use crate::budget::{Budget, Exhaustion};
use crate::cover::Schedule;
use crate::covergraph::{CnId, CoverGraph, Operand};
use aviv_isdl::{BankId, Target};
use std::collections::HashMap;
use std::error::Error;
use std::fmt;

/// A physical register.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Reg {
    /// The register bank.
    pub bank: BankId,
    /// Register index within the bank.
    pub index: u32,
}

impl fmt::Display for Reg {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "r{}.{}", self.bank.0, self.index)
    }
}

/// Register assignment for every value-producing cover node.
#[derive(Debug, Clone, Default)]
pub struct Allocation {
    regs: HashMap<CnId, Reg>,
}

impl Allocation {
    /// The register holding `id`'s value.
    ///
    /// # Panics
    ///
    /// Panics if `id` produces no value or was never allocated.
    pub fn reg(&self, id: CnId) -> Reg {
        self.regs[&id]
    }

    /// Register lookup without panicking.
    pub fn get(&self, id: CnId) -> Option<Reg> {
        self.regs.get(&id).copied()
    }

    /// Number of allocated values.
    pub fn len(&self) -> usize {
        self.regs.len()
    }

    /// True when nothing was allocated (an empty block).
    pub fn is_empty(&self) -> bool {
        self.regs.is_empty()
    }

    /// The full assignment sorted by node id — the deterministic order
    /// the snapshot codec ([`crate::persist`]) writes to disk.
    pub(crate) fn entries_sorted(&self) -> Vec<(CnId, Reg)> {
        let mut entries: Vec<(CnId, Reg)> = self.regs.iter().map(|(&k, &v)| (k, v)).collect();
        entries.sort();
        entries
    }

    /// Reassemble an allocation from decoded snapshot entries.
    pub(crate) fn from_entries(entries: Vec<(CnId, Reg)>) -> Allocation {
        Allocation {
            regs: entries.into_iter().collect(),
        }
    }

    /// Delete the assignment with the smallest node id — the fault
    /// harness's "malformed allocation" corruption. Returns the removed
    /// node, or `None` if the allocation was already empty.
    pub(crate) fn corrupt_one(&mut self) -> Option<CnId> {
        let victim = self.regs.keys().min().copied()?;
        self.regs.remove(&victim);
        Some(victim)
    }
}

/// Coloring failure — cannot happen when the schedule honored the
/// pressure bounds (see [`crate::invariants::verify_schedule`]); reported
/// rather than panicking so property tests can surface violations.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RegAllocError {
    /// The bank that could not be colored.
    pub bank: BankId,
    /// Values needing simultaneous registers.
    pub clique_size: usize,
}

impl fmt::Display for RegAllocError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "bank {} is uncolorable ({} simultaneously live values)",
            self.bank, self.clique_size
        )
    }
}

impl Error for RegAllocError {}

/// Failure of the budgeted allocator: either a genuine coloring failure
/// or budget exhaustion partway through.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum AllocFailure {
    /// A bank could not be colored (see [`RegAllocError`]).
    Uncolorable(RegAllocError),
    /// The cooperative [`Budget`] ran out mid-allocation.
    Budget(Exhaustion),
}

impl fmt::Display for AllocFailure {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            AllocFailure::Uncolorable(e) => e.fmt(f),
            AllocFailure::Budget(why) => write!(f, "allocation budget ran out: {why}"),
        }
    }
}

impl Error for AllocFailure {}

/// Color each register bank's interference graph.
///
/// # Errors
///
/// Returns [`RegAllocError`] when a bank needs more registers than it has
/// — impossible for schedules that passed the covering pressure bound.
pub fn allocate(
    graph: &CoverGraph,
    target: &Target,
    schedule: &Schedule,
) -> Result<Allocation, RegAllocError> {
    match allocate_budgeted(graph, target, schedule, &Budget::unlimited()) {
        Ok(alloc) => Ok(alloc),
        Err(AllocFailure::Uncolorable(e)) => Err(e),
        // Unreachable with an unlimited budget; keep the panic-free
        // contract anyway by reporting it as a zero-size failure.
        Err(AllocFailure::Budget(_)) => Err(RegAllocError {
            bank: BankId(0),
            clique_size: 0,
        }),
    }
}

/// [`allocate`] under a cooperative [`Budget`]: the interference-graph
/// build and the Chaitin simplify loop charge one unit per node pair or
/// simplify step, so pathological blocks degrade instead of stalling.
///
/// # Errors
///
/// [`AllocFailure::Uncolorable`] for genuine coloring failures,
/// [`AllocFailure::Budget`] when the allotment runs out.
pub fn allocate_budgeted(
    graph: &CoverGraph,
    target: &Target,
    schedule: &Schedule,
    budget: &Budget,
) -> Result<Allocation, AllocFailure> {
    let n = graph.len();
    let step_of = schedule.step_of(n);
    let end = schedule.steps.len();

    let mut pinned = vec![false; n];
    for &(_, operand) in graph.live_out() {
        if let Operand::Cn(c) = operand {
            pinned[c.index()] = true;
        }
    }

    // Live ranges per bank.
    struct Range {
        id: CnId,
        def: usize,
        last: usize,
    }
    let mut per_bank: HashMap<BankId, Vec<Range>> = HashMap::new();
    for id in graph.alive() {
        let Some(bank) = graph.node(id).dest_bank(target) else {
            continue;
        };
        let def = step_of[id.index()].expect("alive nodes are scheduled");
        let mut last = def;
        for &u in graph.uses(id) {
            if let Some(ut) = step_of[u.index()] {
                last = last.max(ut);
            }
        }
        if pinned[id.index()] {
            last = end; // live past the block
        }
        per_bank
            .entry(bank)
            .or_default()
            .push(Range { id, def, last });
    }

    let mut alloc = Allocation::default();
    for (bank, ranges) in {
        let mut v: Vec<_> = per_bank.into_iter().collect();
        v.sort_by_key(|(b, _)| *b);
        v
    } {
        let k = target.machine.bank(bank).size as usize;
        let m = ranges.len();
        // Interference: half-open [def, last) ranges overlapping. A value
        // with last == def (defined, consumed same-step — impossible — or
        // never consumed) interferes with nothing.
        let overlaps = |a: &Range, b: &Range| {
            let (a0, a1) = (a.def, a.last);
            let (b0, b1) = (b.def, b.last);
            // Ranges [a0, a1) and [b0, b1); a def always occupies its
            // cycle, so treat an empty range as [def, def+ε).
            let a1 = a1.max(a0 + 1);
            let b1 = b1.max(b0 + 1);
            a0 < b1 && b0 < a1
        };
        let mut adj: Vec<Vec<usize>> = vec![Vec::new(); m];
        for i in 0..m {
            budget.charge(m as u64).map_err(AllocFailure::Budget)?;
            for j in (i + 1)..m {
                if overlaps(&ranges[i], &ranges[j]) {
                    adj[i].push(j);
                    adj[j].push(i);
                }
            }
        }
        // Chaitin simplify: interval graphs are perfect, so with the
        // pressure bound ≤ k this always succeeds.
        let mut removed = vec![false; m];
        let mut stack = Vec::with_capacity(m);
        for _ in 0..m {
            budget.charge(1).map_err(AllocFailure::Budget)?;
            let pick = (0..m)
                .filter(|&i| !removed[i])
                .min_by_key(|&i| {
                    (
                        adj[i].iter().filter(|&&j| !removed[j]).count(),
                        ranges[i].id,
                    )
                })
                .expect("m nodes to simplify");
            let deg = adj[pick].iter().filter(|&&j| !removed[j]).count();
            if deg >= k {
                // Not simplifiable under k registers: the schedule must
                // have violated its own pressure bound.
                return Err(AllocFailure::Uncolorable(RegAllocError {
                    bank,
                    clique_size: deg + 1,
                }));
            }
            removed[pick] = true;
            stack.push(pick);
        }
        let mut color: Vec<Option<u32>> = vec![None; m];
        while let Some(i) = stack.pop() {
            let mut used = vec![false; k];
            for &j in &adj[i] {
                if let Some(c) = color[j] {
                    used[c as usize] = true;
                }
            }
            let c = (0..k as u32)
                .find(|&c| !used[c as usize])
                .ok_or(AllocFailure::Uncolorable(RegAllocError {
                    bank,
                    clique_size: k + 1,
                }))?;
            color[i] = Some(c);
            alloc.regs.insert(ranges[i].id, Reg { bank, index: c });
        }
    }
    Ok(alloc)
}

/// Check an allocation: every value has a register in its bank, and no
/// two simultaneously-live values share one. Test oracle.
///
/// # Errors
///
/// Returns the first violation found.
pub fn verify_allocation(
    graph: &CoverGraph,
    target: &Target,
    schedule: &Schedule,
    alloc: &Allocation,
) -> Result<(), String> {
    let n = graph.len();
    let step_of = schedule.step_of(n);
    let end = schedule.steps.len();
    let mut pinned = vec![false; n];
    for &(_, operand) in graph.live_out() {
        if let Operand::Cn(c) = operand {
            pinned[c.index()] = true;
        }
    }
    let mut ranges: Vec<(CnId, BankId, usize, usize)> = Vec::new();
    for id in graph.alive() {
        let Some(bank) = graph.node(id).dest_bank(target) else {
            continue;
        };
        let reg = alloc
            .get(id)
            .ok_or_else(|| format!("{id} has no register"))?;
        if reg.bank != bank {
            return Err(format!("{id} allocated in wrong bank"));
        }
        if reg.index >= target.machine.bank(bank).size {
            return Err(format!("{id} register index out of range"));
        }
        let def = step_of[id.index()].ok_or_else(|| format!("{id} is never scheduled"))?;
        let mut last = def;
        for &u in graph.uses(id) {
            if let Some(ut) = step_of[u.index()] {
                last = last.max(ut);
            }
        }
        if pinned[id.index()] {
            last = end;
        }
        ranges.push((id, bank, def, last.max(def + 1)));
    }
    for i in 0..ranges.len() {
        for j in (i + 1)..ranges.len() {
            let (a, b) = (&ranges[i], &ranges[j]);
            if a.1 == b.1 && alloc.reg(a.0) == alloc.reg(b.0) && a.2 < b.3 && b.2 < a.3 {
                return Err(format!(
                    "{} and {} share {} while both live",
                    a.0,
                    b.0,
                    alloc.reg(a.0)
                ));
            }
        }
    }
    Ok(())
}
