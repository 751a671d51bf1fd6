//! # aviv-baseline — sequential phase-ordered code generation
//!
//! The comparison point the paper argues against: "most current code
//! generation systems address them sequentially. ... decisions made in
//! one phase have a profound effect on the other phases" (§I-B). This
//! generator runs the classic pipeline:
//!
//! 1. **Instruction selection** — each operation is bound to a functional
//!    unit greedily (least-loaded capable unit), with no knowledge of the
//!    transfers or parallelism that binding implies;
//! 2. **Scheduling** — critical-path list scheduling packs the bound
//!    operations and the now-required transfers into VLIW instructions;
//! 3. **Register allocation** — the same graph coloring as AVIV, with
//!    on-demand spilling when a bank overflows.
//!
//! It reuses AVIV's cover-graph, legality, allocation, and emission
//! machinery so the *only* difference measured is concurrent vs
//! sequential decision-making.

#![warn(missing_docs)]

use aviv::assign::Assignment;
use aviv::cliques::conflict;
use aviv::cover::{spill_victim, CoverError, Schedule};
use aviv::covergraph::{CnId, CoverGraph, Operand};
use aviv::regalloc::allocate;
use aviv::verify_schedule;
use aviv::{CodegenError, VliwInstruction};
use aviv_ir::{BitSet, BlockDag, MemLayout, SymbolTable};
use aviv_isdl::{Machine, Target};
use aviv_splitdag::{AltKind, Exec, SplitNodeDag};

/// Result of compiling one block with the baseline generator.
#[derive(Debug, Clone)]
pub struct BaselineResult {
    /// The emitted instructions.
    pub instructions: Vec<VliwInstruction>,
    /// Number of VLIW instructions (code size).
    pub size: usize,
    /// Spills inserted.
    pub spills: usize,
}

/// The sequential phase-ordered generator.
///
/// ```
/// use aviv_baseline::BaselineGenerator;
/// use aviv_ir::{parse_function, MemLayout};
/// use aviv_isdl::archs;
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let f = parse_function("func f(a, b, c) { x = (a + b) * c; }")?;
/// let generator = BaselineGenerator::new(archs::example_arch(4));
/// let mut syms = f.syms.clone();
/// let mut layout = MemLayout::for_function(&f);
/// let result = generator.compile_block(&f.blocks[0].dag, &mut syms, &mut layout)?;
/// assert!(result.size > 0);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone)]
pub struct BaselineGenerator {
    target: Target,
}

impl BaselineGenerator {
    /// Create a baseline generator for `machine`.
    pub fn new(machine: Machine) -> Self {
        BaselineGenerator {
            target: Target::new(machine),
        }
    }

    /// Create from a prebuilt target.
    pub fn with_target(target: Target) -> Self {
        BaselineGenerator { target }
    }

    /// The target in use.
    pub fn target(&self) -> &Target {
        &self.target
    }

    /// Compile one basic block sequentially.
    ///
    /// # Errors
    ///
    /// Same failure modes as the AVIV pipeline ([`CodegenError`]).
    pub fn compile_block(
        &self,
        dag: &BlockDag,
        syms: &mut SymbolTable,
        layout: &mut MemLayout,
    ) -> Result<BaselineResult, CodegenError> {
        let sndag = SplitNodeDag::build(dag, &self.target)?;

        // Phase 1: greedy least-loaded unit binding, one node at a time,
        // with no transfer or parallelism awareness. Complex alternatives
        // are never considered — classic selectors match tree patterns
        // per-node.
        let mut unit_load = vec![0usize; self.target.machine.units().len()];
        let mut bus_load = vec![0usize; self.target.machine.buses().len()];
        let mut choice: Vec<Option<usize>> = vec![None; dag.len()];
        for (orig, _) in dag.iter() {
            let alts = sndag.alts(orig);
            if alts.is_empty() {
                continue;
            }
            let pick = alts
                .iter()
                .enumerate()
                .filter(|(_, a)| !matches!(a.kind, AltKind::Complex { .. }))
                .min_by_key(|(i, a)| match a.exec {
                    Exec::Unit(u) => (unit_load[u.index()], *i),
                    Exec::MemPort { bus, .. } => (bus_load[bus.index()], *i),
                })
                .map(|(i, _)| i)
                .expect("every op has a non-complex alternative");
            match alts[pick].exec {
                Exec::Unit(u) => unit_load[u.index()] += 1,
                Exec::MemPort { bus, .. } => bus_load[bus.index()] += 1,
            }
            choice[orig.index()] = Some(pick);
        }
        let assignment = Assignment {
            choice,
            complex_covered: vec![false; dag.len()],
            est_cost: 0,
        };

        // Phase 2: transfers materialize, then critical-path list
        // scheduling with the same pressure bound and spill mechanism.
        let mut graph = CoverGraph::build(dag, &sndag, &self.target, &assignment);
        let schedule = match list_schedule(&mut graph, &self.target, syms) {
            Ok(s) => s,
            Err(_) => {
                // Same sequential fallback as the AVIV driver.
                graph = CoverGraph::build(dag, &sndag, &self.target, &assignment);
                aviv::cover::cover_sequential(&mut graph, &self.target, syms)
                    .map_err(CodegenError::Cover)?
            }
        };
        debug_assert_eq!(verify_schedule(&graph, &self.target, &schedule), []);

        // Phase 3: detailed allocation and emission (shared with AVIV).
        let alloc = allocate(&graph, &self.target, &schedule).map_err(CodegenError::RegAlloc)?;
        for (sym, _) in syms.iter() {
            if sym.index() >= layout.known_symbols() {
                layout.reserve_slot(sym);
            }
        }
        let instructions =
            aviv::emit::emit_block(&graph, &self.target, &schedule, &alloc, syms, layout)
                .map_err(CodegenError::Internal)?;
        Ok(BaselineResult {
            size: instructions.len(),
            spills: schedule.spills.len(),
            instructions,
        })
    }
}

/// Critical-path list scheduling over the cover graph: at each step, fill
/// one instruction greedily from the ready list in priority order
/// (longest remaining path first), subject to resource legality and the
/// register-pressure bound; spill when stuck.
fn list_schedule(
    graph: &mut CoverGraph,
    target: &Target,
    syms: &mut SymbolTable,
) -> Result<Schedule, CoverError> {
    let mut covered = BitSet::new(graph.len());
    let mut steps: Vec<Vec<CnId>> = Vec::new();
    let mut spills = Vec::new();
    let spill_limit = 4 * graph.len().max(8);

    loop {
        if covered.count() >= graph.live_len() {
            break;
        }
        // Ready nodes by descending level-from-top (critical path first).
        let mut ready: Vec<CnId> = graph
            .alive()
            .filter(|&n| {
                !covered.contains(n.index()) && graph.preds(n).all(|p| covered.contains(p.index()))
            })
            .collect();
        ready.sort_by_key(|&n| (std::cmp::Reverse(graph.level_top(n)), n));

        // Pressure bookkeeping.
        let mut pinned = BitSet::new(graph.len());
        for &(_, op) in graph.live_out() {
            if let Operand::Cn(c) = op {
                pinned.insert(c.index());
            }
        }
        let remaining = |n: CnId, covered: &BitSet| {
            graph
                .uses(n)
                .iter()
                .filter(|u| !covered.contains(u.index()))
                .count()
        };
        let mut pressure = vec![0usize; target.machine.banks().len()];
        for n in graph.alive() {
            if covered.contains(n.index()) {
                if let Some(b) = graph.node(n).dest_bank(target) {
                    if remaining(n, &covered) > 0 || pinned.contains(n.index()) {
                        pressure[b.index()] += 1;
                    }
                }
            }
        }

        let mut group: Vec<CnId> = Vec::new();
        for &cand in &ready {
            if conflict(graph, target, group.iter().copied().chain([cand])).is_some() {
                continue;
            }
            let mut probe = group.clone();
            probe.push(cand);
            // Pressure check for the probe group.
            let mut p = pressure.clone();
            for n in graph.alive() {
                if !covered.contains(n.index()) || pinned.contains(n.index()) {
                    continue;
                }
                let rem = remaining(n, &covered);
                if rem > 0 {
                    let in_group = graph.uses(n).iter().filter(|u| probe.contains(u)).count();
                    if in_group >= rem {
                        if let Some(b) = graph.node(n).dest_bank(target) {
                            p[b.index()] -= 1;
                        }
                    }
                }
            }
            let mut ok = true;
            for &g in &probe {
                if let Some(b) = graph.node(g).dest_bank(target) {
                    p[b.index()] += 1;
                    if p[b.index()] > target.machine.bank(b).size as usize {
                        ok = false;
                    }
                }
            }
            if ok {
                group = probe;
            }
        }

        if group.is_empty() {
            // Stuck on pressure: spill the least-used live value from the
            // fullest bank (same mechanism as AVIV's engine).
            if spills.len() >= spill_limit {
                return Err(CoverError::SpillLimit);
            }
            // The bank blocking the most ready nodes (falling back to the
            // fullest bank when nothing is directly blocked).
            let mut blocked = vec![0usize; target.machine.banks().len()];
            for &r in &ready {
                if let Some(b) = graph.node(r).dest_bank(target) {
                    if pressure[b.index()] >= target.machine.bank(b).size as usize {
                        blocked[b.index()] += 1;
                    }
                }
            }
            let bank = (0..target.machine.banks().len())
                .max_by_key(|&b| (blocked[b], pressure[b]))
                .map(|b| aviv_isdl::BankId(b as u32))
                .expect("machine has banks");
            let victim = spill_victim(graph, target, &covered, bank, |_| false);
            let Some(victim) = victim else {
                return Err(CoverError::RegisterPressure { bank });
            };
            let (slot, outcome) = graph
                .relieve_pressure(target, syms, victim, &covered)
                .map_err(CoverError::Internal)?;
            covered.grow(graph.len());
            spills.push(aviv::cover::SpillRecord {
                slot,
                victim,
                spill: outcome.spill,
                nodes: outcome.new_nodes,
            });
            continue;
        }

        for &n in &group {
            covered.insert(n.index());
        }
        steps.push(group);
    }
    Ok(Schedule { steps, spills })
}

#[cfg(test)]
mod tests {
    use super::*;
    use aviv::{CodeGenerator, CodegenOptions};
    use aviv_ir::parse_function;
    use aviv_isdl::archs;

    fn both(src: &str, machine: aviv_isdl::Machine) -> (usize, usize) {
        let f = parse_function(src).unwrap();
        let base = BaselineGenerator::new(machine.clone());
        let mut syms = f.syms.clone();
        let mut layout = MemLayout::for_function(&f);
        let b = base
            .compile_block(&f.blocks[0].dag, &mut syms, &mut layout)
            .unwrap();

        let gen = CodeGenerator::new(machine).options(CodegenOptions::heuristics_on());
        let mut syms2 = f.syms.clone();
        let mut layout2 = MemLayout::for_function(&f);
        let a = gen
            .compile_block(&f.blocks[0].dag, &mut syms2, &mut layout2)
            .unwrap();
        (a.report.instructions, b.size)
    }

    #[test]
    fn baseline_compiles_and_aviv_is_no_worse() {
        let srcs = [
            "func f(a, b, c) { t = a + b; u = t * c; v = u - t; out = v; }",
            "func f(a, b, d, e) { out = ~((d * e) - (a + b)); }",
            "func f(a, b, c, d) { x = (a + b) * (c + d); y = x - a; }",
        ];
        for src in srcs {
            let (aviv_size, base_size) = both(src, archs::example_arch(4));
            assert!(aviv_size > 0 && base_size > 0);
            assert!(
                aviv_size <= base_size,
                "{src}: aviv {aviv_size} > baseline {base_size}"
            );
        }
    }

    #[test]
    fn baseline_handles_spills() {
        let src = "func f(a, b, c, d, e, g) {
            t1 = a + b; t2 = c + d; t3 = e + g;
            t4 = t1 * t2; t5 = t4 - t3; out = t5 + t1;
        }";
        let f = parse_function(src).unwrap();
        let base = BaselineGenerator::new(archs::example_arch(2));
        let mut syms = f.syms.clone();
        let mut layout = MemLayout::for_function(&f);
        let r = base
            .compile_block(&f.blocks[0].dag, &mut syms, &mut layout)
            .unwrap();
        assert!(r.size > 0);
    }

    #[test]
    fn baseline_on_reduced_arch() {
        let (a, b) = both(
            "func f(a, b, c) { x = (a - b) * c; y = x + a; }",
            archs::arch_two(4),
        );
        assert!(a <= b);
    }
}
