//! Stage-by-stage pipeline invariant verification.
//!
//! The paper states properties the implementation otherwise only
//! assumes: every split-node alternative maps to a capable functional
//! unit (§III), covering selects exactly one implementation per IR
//! operation and inserts a transfer on every cross-bank edge (§IV-B),
//! scheduled cliques are pairwise parallel (§IV-C), covering bounds
//! per-bank register pressure so detailed allocation "is guaranteed to
//! succeed" (§IV-F), and the emitted VLIW program defines every
//! register before reading it. [`verify_stage`] checks one stage's
//! slice of those properties and reports violations as structured
//! [`Diagnostic`]s (codes `V001`–`V008`, see `docs/diagnostics.md`).
//!
//! [`verify_schedule`] is the one schedule checker: covering and the
//! baseline assert it in debug builds, and peephole trials keep a change
//! only when it comes back empty.
//!
//! When [`crate::CodegenOptions::verify`] is set — on by default in
//! debug builds, opt-in via `avivc --verify` in release — the code
//! generator runs [`verify_block`] once per block, after peephole, and
//! [`verify_program`] once per function, after emission.

use crate::cliques::{conflict, Conflict};
use crate::cover::Schedule;
use crate::covergraph::{CnKind, CoverGraph, Operand};
use crate::emit::{AsmOperand, ControlOp, SlotOpcode, TransferKind, VliwInstruction, VliwProgram};
use crate::regalloc::{verify_allocation, Allocation, Reg};
use aviv_ir::BlockDag;
use aviv_isdl::{Location, Machine, Target};
use aviv_splitdag::{AltKind, Exec, SplitNodeDag};
use aviv_verify::{Code, Diagnostic};
use std::collections::HashSet;
use std::fmt;

/// A pipeline stage the verifier can check.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Stage {
    /// After Split-Node DAG construction (§III).
    SplitDag,
    /// After covering produced a cover graph and schedule (§IV-B/D/E):
    /// [`verify_schedule`] plus the checks that read the block's DAG.
    Cover,
    /// Clique scheduling (§IV-C): [`verify_schedule`] alone.
    Cliques,
    /// After detailed register allocation (§IV-F).
    RegAlloc,
    /// After VLIW emission.
    Emit,
}

impl fmt::Display for Stage {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Stage::SplitDag => write!(f, "split-node DAG"),
            Stage::Cover => write!(f, "covering"),
            Stage::Cliques => write!(f, "clique scheduling"),
            Stage::RegAlloc => write!(f, "register allocation"),
            Stage::Emit => write!(f, "emission"),
        }
    }
}

/// Everything the verifier may look at, populated as far as the
/// pipeline has run. Checks whose inputs are absent are skipped.
#[derive(Clone, Copy)]
pub struct StageState<'a> {
    /// The compilation target.
    pub target: &'a Target,
    /// The block's expression DAG.
    pub dag: Option<&'a BlockDag>,
    /// The Split-Node DAG built from it.
    pub sndag: Option<&'a SplitNodeDag>,
    /// The cover graph of the chosen assignment.
    pub graph: Option<&'a CoverGraph>,
    /// The covering schedule.
    pub schedule: Option<&'a Schedule>,
    /// The detailed register allocation.
    pub alloc: Option<&'a Allocation>,
    /// The emitted program (function level).
    pub program: Option<&'a VliwProgram>,
}

impl<'a> StageState<'a> {
    /// A state with every pipeline artifact absent.
    pub fn new(target: &'a Target) -> StageState<'a> {
        StageState {
            target,
            dag: None,
            sndag: None,
            graph: None,
            schedule: None,
            alloc: None,
            program: None,
        }
    }
}

/// Verify one stage's invariants, returning every violation found.
/// An empty result means the stage upheld its contract.
pub fn verify_stage(stage: Stage, state: &StageState<'_>) -> Vec<Diagnostic> {
    let mut out = Vec::new();
    match stage {
        Stage::SplitDag => {
            if let (Some(dag), Some(sndag)) = (state.dag, state.sndag) {
                check_splitdag(state.target, dag, sndag, &mut out);
            }
        }
        Stage::Cover | Stage::Cliques => {
            if let (Some(graph), Some(schedule)) = (state.graph, state.schedule) {
                out = verify_schedule(graph, state.target, schedule);
                if stage == Stage::Cover {
                    check_coverage(state.target, state.dag, graph, &mut out);
                }
            }
        }
        Stage::RegAlloc => {
            if let (Some(graph), Some(schedule), Some(alloc)) =
                (state.graph, state.schedule, state.alloc)
            {
                if let Err(msg) = verify_allocation(graph, state.target, schedule, alloc) {
                    out.push(Diagnostic::new(Code::V006, "register allocation", msg));
                }
            }
        }
        Stage::Emit => {
            if let Some(program) = state.program {
                check_emit(state.target, program, &mut out);
            }
        }
    }
    out
}

/// Run every block-level check over a fully planned block: the
/// [`Stage::SplitDag`], [`Stage::Cover`] (which includes the
/// [`Stage::Cliques`] check) and [`Stage::RegAlloc`] stages.
pub fn verify_block(
    target: &Target,
    dag: &BlockDag,
    sndag: &SplitNodeDag,
    graph: &CoverGraph,
    schedule: &Schedule,
    alloc: &Allocation,
) -> Vec<Diagnostic> {
    let state = StageState {
        dag: Some(dag),
        sndag: Some(sndag),
        graph: Some(graph),
        schedule: Some(schedule),
        alloc: Some(alloc),
        ..StageState::new(target)
    };
    let mut out = verify_stage(Stage::SplitDag, &state);
    out.extend(verify_stage(Stage::Cover, &state));
    out.extend(verify_stage(Stage::RegAlloc, &state));
    out
}

/// Run the [`Stage::Emit`] checks over an assembled program.
pub fn verify_program(target: &Target, program: &VliwProgram) -> Vec<Diagnostic> {
    let state = StageState {
        program: Some(program),
        ..StageState::new(target)
    };
    verify_stage(Stage::Emit, &state)
}

/// V007: every alternative names an execution resource actually capable
/// of the operation, and no computational node is left without an
/// implementation.
fn check_splitdag(
    target: &Target,
    dag: &BlockDag,
    sndag: &SplitNodeDag,
    out: &mut Vec<Diagnostic>,
) {
    let machine = &target.machine;
    let bus_touches = |bus: aviv_isdl::BusId, loc: Location| -> bool {
        machine.bus(bus).endpoints.contains(&loc)
    };
    for (id, node) in dag.iter() {
        let element = format!("node n{}", id.index());
        if !node.op.is_leaf()
            && !node.op.is_store()
            && sndag.alts(id).is_empty()
            && sndag.covering_matches(id).is_empty()
        {
            out.push(Diagnostic::new(
                Code::V007,
                element.clone(),
                format!(
                    "operation {} has no alternative and is not swallowed by any complex match",
                    node.op
                ),
            ));
        }
        for alt in sndag.alts(id) {
            match (&alt.kind, &alt.exec) {
                (AltKind::Simple(op), Exec::Unit(u)) => {
                    if !machine.unit(*u).can_do(*op) {
                        out.push(Diagnostic::new(
                            Code::V007,
                            element.clone(),
                            format!(
                                "alternative maps {op} to unit {}, which does not implement it",
                                machine.unit(*u).name
                            ),
                        ));
                    }
                }
                (AltKind::Simple(op), Exec::MemPort { bus, bank }) => {
                    if !op.is_leaf()
                        || !bus_touches(*bus, Location::Mem)
                        || !bus_touches(*bus, Location::Bank(*bank))
                    {
                        out.push(Diagnostic::new(
                            Code::V007,
                            element.clone(),
                            format!("memory-port alternative for {op} uses a bus that does not connect memory to its bank"),
                        ));
                    }
                }
                (AltKind::Complex { index, .. }, exec) => {
                    let cx = &machine.complexes()[*index];
                    if !matches!(exec, Exec::Unit(u) if *u == cx.unit) {
                        out.push(Diagnostic::new(
                            Code::V007,
                            element.clone(),
                            format!(
                                "complex {} alternative not placed on its declared unit {}",
                                cx.name,
                                machine.unit(cx.unit).name
                            ),
                        ));
                    }
                }
                (AltKind::DynLoad | AltKind::DynStore, Exec::MemPort { bus, bank }) => {
                    if !bus_touches(*bus, Location::Mem)
                        || !bus_touches(*bus, Location::Bank(*bank))
                    {
                        out.push(Diagnostic::new(
                            Code::V007,
                            element.clone(),
                            "dynamic memory alternative uses a bus that does not connect memory to its bank",
                        ));
                    }
                }
                (AltKind::DynLoad | AltKind::DynStore, Exec::Unit(u)) => {
                    out.push(Diagnostic::new(
                        Code::V007,
                        element.clone(),
                        format!(
                            "dynamic memory alternative placed on functional unit {}",
                            machine.unit(*u).name
                        ),
                    ));
                }
            }
        }
    }
}

/// The one schedule checker: V001's schedule slice (every live node
/// scheduled exactly once, no dead node scheduled, every dependency in a
/// strictly earlier step), V003 (each step is a legal clique: no two of
/// its nodes dependent, and no unit, bus or ISDL constraint conflict),
/// and V004 (no bank holds more live values than registers at any
/// step). An empty result means the schedule is valid for `graph` on
/// `target`.
///
/// A step reports every dependent pair it holds, but only its first
/// resource or constraint conflict (see [`conflict`]).
pub fn verify_schedule(
    graph: &CoverGraph,
    target: &Target,
    schedule: &Schedule,
) -> Vec<Diagnostic> {
    let mut out = Vec::new();
    let n = graph.len();
    let step_of = schedule.step_of(n);

    // V001, exactly-once: every alive node scheduled once, nothing dead
    // or duplicated, dependencies strictly preceding.
    for id in graph.alive() {
        if step_of[id.index()].is_none() {
            out.push(Diagnostic::new(
                Code::V001,
                format!("cover node {id}"),
                "live cover node never scheduled",
            ));
        }
    }
    let mut seen = vec![false; n];
    for step in &schedule.steps {
        for &id in step {
            if graph.is_dead(id) {
                out.push(Diagnostic::new(
                    Code::V001,
                    format!("cover node {id}"),
                    "dead cover node appears in the schedule",
                ));
            }
            if seen[id.index()] {
                out.push(Diagnostic::new(
                    Code::V001,
                    format!("cover node {id}"),
                    "cover node scheduled more than once",
                ));
            }
            seen[id.index()] = true;
        }
    }
    for id in graph.alive() {
        let Some(t) = step_of[id.index()] else {
            continue;
        };
        for p in graph.preds(id) {
            match step_of[p.index()] {
                Some(pt) if pt < t => {}
                Some(pt) => out.push(Diagnostic::new(
                    Code::V001,
                    format!("cover node {id}"),
                    format!("dependency {p} at step {pt} does not strictly precede step {t}"),
                )),
                None => out.push(Diagnostic::new(
                    Code::V001,
                    format!("cover node {id}"),
                    format!("dependency {p} is unscheduled"),
                )),
            }
        }
    }

    // V003: every step is a clique of pairwise-parallel operations.
    for (t, step) in schedule.steps.iter().enumerate() {
        for (i, &a) in step.iter().enumerate() {
            for &b in &step[i + 1..] {
                if graph.dependent(a, b) {
                    out.push(Diagnostic::new(
                        Code::V003,
                        format!("step {t}"),
                        format!("{a} and {b} are data-dependent but scheduled together"),
                    ));
                }
            }
        }
        if let Some(c) = conflict(graph, target, step.iter().copied()) {
            out.push(Diagnostic::new(
                Code::V003,
                format!("step {t}"),
                conflict_message(c, &target.machine),
            ));
        }
    }

    // V004: per-bank register pressure at every step.
    let mut pinned = vec![false; n];
    for &(_, operand) in graph.live_out() {
        if let Operand::Cn(c) = operand {
            pinned[c.index()] = true;
        }
    }
    let mut pressure = vec![0usize; target.machine.banks().len()];
    for t in 0..schedule.steps.len() {
        pressure.fill(0);
        for id in graph.alive() {
            let Some(def_t) = step_of[id.index()] else {
                continue;
            };
            if def_t > t {
                continue;
            }
            let Some(bank) = graph.node(id).dest_bank(target) else {
                continue;
            };
            let live = pinned[id.index()]
                || graph
                    .uses(id)
                    .iter()
                    .any(|u| step_of[u.index()].is_some_and(|ut| ut > t));
            if live {
                pressure[bank.index()] += 1;
            }
        }
        for (bi, &load) in pressure.iter().enumerate() {
            let bank = &target.machine.banks()[bi];
            if load > bank.size as usize {
                out.push(Diagnostic::new(
                    Code::V004,
                    format!("step {t}, bank {}", bank.name),
                    format!(
                        "{load} simultaneously live values exceed the bank's {} registers",
                        bank.size
                    ),
                ));
            }
        }
    }
    out
}

/// V003's text for one conflict.
pub(crate) fn conflict_message(conflict: Conflict, machine: &Machine) -> String {
    match conflict {
        Conflict::Unit(u) => format!(
            "unit {} issues two operations in one instruction",
            machine.unit(u).name
        ),
        Conflict::Bus(b) => format!(
            "bus {} carries more transfers than its capacity {}",
            machine.bus(b).name,
            machine.bus(b).capacity
        ),
        Conflict::Constraint { index, members } => {
            format!(
                "constraint #{index} allows {} concurrent members but {members} are scheduled",
                machine.constraints()[index].at_most
            )
        }
    }
}

/// V001 / V002 on the cover graph itself: every IR operation resolves
/// to exactly one live implementation, and a transfer sits on every
/// cross-bank edge.
fn check_coverage(
    target: &Target,
    dag: Option<&BlockDag>,
    graph: &CoverGraph,
    out: &mut Vec<Diagnostic>,
) {
    // Exactly-once per IR operation: every value-producing DAG node
    // must resolve to exactly one live implementation.
    if let Some(dag) = dag {
        for (id, node) in dag.iter() {
            if !node.op.produces_value() || node.op.is_leaf() {
                continue;
            }
            match graph.value_of_orig(id) {
                Some(c) if !graph.is_dead(c) => {}
                Some(c) => out.push(Diagnostic::new(
                    Code::V001,
                    format!("node n{}", id.index()),
                    format!("operation {} is covered only by dead node {c}", node.op),
                )),
                None => out.push(Diagnostic::new(
                    Code::V001,
                    format!("node n{}", id.index()),
                    format!("operation {} was never covered", node.op),
                )),
            }
        }
        let mut covered_by: Vec<Option<crate::covergraph::CnId>> = vec![None; dag.len()];
        for id in graph.alive() {
            let (CnKind::Op { orig, .. }
            | CnKind::Complex { orig, .. }
            | CnKind::LoadDyn { orig, .. }
            | CnKind::StoreDyn { orig, .. }) = graph.node(id).kind
            else {
                continue;
            };
            if let Some(prev) = covered_by[orig.index()] {
                out.push(Diagnostic::new(
                    Code::V001,
                    format!("node n{}", orig.index()),
                    format!("operation covered twice, by {prev} and {id}"),
                ));
            }
            covered_by[orig.index()] = Some(id);
        }
    }

    // Transfers: operand-bank residency (the cover graph's own oracle
    // checks that every operand is consumed from the consumer's bank,
    // i.e. that a transfer node sits on every cross-bank edge).
    if let Err(msg) = graph.verify(target) {
        out.push(Diagnostic::new(Code::V002, "cover graph", msg));
    }
}

/// V005 / V008: the emitted program defines every register before
/// reading it (the simulator reads pre-write state, so the defining
/// write must be strictly earlier), and is structurally well-formed.
fn check_emit(target: &Target, program: &VliwProgram, out: &mut Vec<Diagnostic>) {
    let machine = &target.machine;
    let n_units = machine.units().len();
    let starts: HashSet<usize> = program.block_starts.iter().copied().collect();

    for (i, instr) in program.instructions.iter().enumerate() {
        let element = format!("instruction {i}");
        if instr.slots.len() != n_units {
            out.push(Diagnostic::new(
                Code::V008,
                element.clone(),
                format!("{} slots for a {n_units}-unit machine", instr.slots.len()),
            ));
        }
        for (si, slot) in instr.slots.iter().enumerate() {
            let Some(op) = slot else { continue };
            if si >= n_units {
                continue; // already reported above
            }
            match op.opcode {
                SlotOpcode::Basic(o) => {
                    if !machine.units()[si].can_do(o) {
                        out.push(Diagnostic::new(
                            Code::V008,
                            element.clone(),
                            format!(
                                "slot {si} issues {o}, which unit {} does not implement",
                                machine.units()[si].name
                            ),
                        ));
                    }
                }
                SlotOpcode::Complex(ci) => {
                    if ci >= machine.complexes().len() || machine.complexes()[ci].unit.index() != si
                    {
                        out.push(Diagnostic::new(
                            Code::V008,
                            element.clone(),
                            format!(
                                "slot {si} issues a complex instruction not declared on that unit"
                            ),
                        ));
                    }
                }
            }
        }
        let mut bus_used = vec![0u32; machine.buses().len()];
        for xfer in &instr.xfers {
            bus_used[xfer.bus.index()] += 1;
            if bus_used[xfer.bus.index()] == machine.bus(xfer.bus).capacity + 1 {
                out.push(Diagnostic::new(
                    Code::V008,
                    element.clone(),
                    format!(
                        "bus {} carries more transfers than its capacity {}",
                        machine.bus(xfer.bus).name,
                        machine.bus(xfer.bus).capacity
                    ),
                ));
            }
        }
        match instr.control {
            Some(ControlOp::Jump(t)) | Some(ControlOp::BranchNz { target: t, .. })
                if !starts.contains(&t) =>
            {
                out.push(Diagnostic::new(
                    Code::V008,
                    element,
                    format!("control transfer targets instruction {t}, which is not a block start"),
                ));
            }
            _ => {}
        }
    }

    // Def-before-use, per block. Blocks only communicate through
    // memory (variables) — registers never carry values across block
    // boundaries — so each block must define every register it reads.
    let mut bounds: Vec<(usize, usize)> = Vec::new();
    for (bi, &start) in program.block_starts.iter().enumerate() {
        let end = program
            .block_starts
            .get(bi + 1)
            .copied()
            .unwrap_or(program.instructions.len());
        bounds.push((start, end));
    }
    for (bi, &(start, end)) in bounds.iter().enumerate() {
        let mut defined: HashSet<Reg> = HashSet::new();
        for i in start..end.min(program.instructions.len()) {
            let instr = &program.instructions[i];
            for r in instr_reads(instr) {
                if !defined.contains(&r) {
                    out.push(Diagnostic::new(
                        Code::V005,
                        format!("block {bi}, instruction {i}"),
                        format!("reads {r} before any write in the block defines it"),
                    ));
                }
            }
            for r in instr_writes(instr) {
                defined.insert(r);
            }
        }
    }
}

/// Every register an instruction reads (pre-write state).
fn instr_reads(instr: &VliwInstruction) -> Vec<Reg> {
    fn operand(reads: &mut Vec<Reg>, a: &AsmOperand) {
        if let AsmOperand::Reg(r) = a {
            reads.push(*r);
        }
    }
    let mut reads = Vec::new();
    for slot in instr.slots.iter().flatten() {
        for a in &slot.args {
            operand(&mut reads, a);
        }
    }
    for xfer in &instr.xfers {
        match &xfer.kind {
            TransferKind::Move { from, .. } => reads.push(*from),
            TransferKind::StoreVar { value, .. } => operand(&mut reads, value),
            TransferKind::LoadDyn { addr, .. } => reads.push(*addr),
            TransferKind::StoreDyn { addr, value } => {
                reads.push(*addr);
                reads.push(*value);
            }
            TransferKind::LoadVar { .. } => {}
        }
    }
    match &instr.control {
        Some(ControlOp::BranchNz { cond, .. }) => operand(&mut reads, cond),
        Some(ControlOp::Return(Some(v))) => operand(&mut reads, v),
        _ => {}
    }
    reads
}

/// Every register an instruction writes.
fn instr_writes(instr: &VliwInstruction) -> Vec<Reg> {
    let mut writes = Vec::new();
    for slot in instr.slots.iter().flatten() {
        writes.push(slot.dst);
    }
    for xfer in &instr.xfers {
        match &xfer.kind {
            TransferKind::Move { to, .. }
            | TransferKind::LoadVar { to, .. }
            | TransferKind::LoadDyn { to, .. } => writes.push(*to),
            TransferKind::StoreVar { .. } | TransferKind::StoreDyn { .. } => {}
        }
    }
    writes
}
