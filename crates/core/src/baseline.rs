//! The phase-ordered comparator: what the paper argues against. "Most
//! current code generation systems address them sequentially. ...
//! decisions made in one phase have a profound effect on the other
//! phases" (§I-B). With [`CodegenOptions::phase_ordered`] set, every
//! block is planned by the classic pipeline instead of AVIV's search:
//!
//! 1. **Instruction selection**: each operation is bound to a functional
//!    unit greedily (the least-loaded capable unit), with no knowledge
//!    of the transfers or parallelism that binding implies, and complex
//!    instructions are never considered;
//! 2. **Scheduling**: critical-path list scheduling
//!    ([`crate::cover::list_schedule`]) packs the bound operations and
//!    the transfers they now need into VLIW instructions, spilling when
//!    stuck. If that does not converge, the block is covered again on a
//!    fresh graph by [`cover_sequential`];
//! 3. **Register allocation**: the same graph colouring as AVIV, with no
//!    peephole pass.
//!
//! The plan goes through the same cache, emission, terminator lowering
//! and views as AVIV's, so the only difference measured is concurrent
//! against sequential decision-making.
//!
//! [`CodegenOptions::phase_ordered`]: crate::CodegenOptions::phase_ordered

use crate::assign::Assignment;
use crate::codegen::{BlockPlan, BlockReport, CodeGenerator, CodegenError, CoverMode, StageTimes};
use crate::cover::{cover_sequential, list_schedule, SearchStats};
use crate::covergraph::CoverGraph;
use crate::regalloc::allocate;
use aviv_ir::{BlockDag, SymbolTable};
use aviv_isdl::Target;
use aviv_splitdag::{AltKind, Exec, SplitNodeDag};
use std::time::Instant;

/// Phase 1: bind each operation, in node order, to its capable unit (or
/// memory bus) with the fewest operations bound so far, the first such
/// alternative on ties.
fn greedy_assignment(dag: &BlockDag, sndag: &SplitNodeDag, target: &Target) -> Assignment {
    let mut unit_load = vec![0usize; target.machine.units().len()];
    let mut bus_load = vec![0usize; target.machine.buses().len()];
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
    Assignment {
        choice,
        complex_covered: vec![false; dag.len()],
        est_cost: 0,
    }
}

impl CodeGenerator {
    /// Plan `dag` phase by phase against `snapshot` (see the module doc).
    /// Budgets and plan-side fault injection do not apply. The report
    /// counts the one assignment as enumerated and explored, and names
    /// the list schedule [`CoverMode::Concurrent`] and the fallback
    /// [`CoverMode::Sequential`]; a fallback keeps the spill slots the
    /// abandoned list schedule named.
    pub(crate) fn plan_phase_ordered(
        &self,
        dag: &BlockDag,
        snapshot: &SymbolTable,
    ) -> Result<BlockPlan, CodegenError> {
        let target = self.target();
        let start = Instant::now();
        let mut stages = StageTimes::default();
        let sndag = SplitNodeDag::build(dag, target)?;
        stages.sndag = start.elapsed();

        let cover_start = Instant::now();
        let assignment = greedy_assignment(dag, &sndag, target);
        let build = || {
            CoverGraph::try_build(dag, &sndag, target, &assignment).map_err(CodegenError::Internal)
        };
        let mut graph = build()?;
        let mut syms = snapshot.clone();
        let (schedule, mode) = match list_schedule(&mut graph, target, &mut syms) {
            Ok(schedule) => (schedule, CoverMode::Concurrent),
            Err(_) => {
                graph = build()?;
                let schedule =
                    cover_sequential(&mut graph, target, &mut syms).map_err(CodegenError::Cover)?;
                (schedule, CoverMode::Sequential)
            }
        };
        stages.cover = cover_start.elapsed();

        let alloc_start = Instant::now();
        let alloc = allocate(&graph, target, &schedule).map_err(CodegenError::RegAlloc)?;
        stages.alloc = alloc_start.elapsed();

        if self.options_ref().verify {
            let verify_start = Instant::now();
            let diags =
                crate::invariants::verify_block(target, dag, &sndag, &graph, &schedule, &alloc);
            stages.verify = verify_start.elapsed();
            if !diags.is_empty() {
                return Err(CodegenError::Invariant(diags));
            }
        }

        let stats = sndag.stats(dag);
        let bounds = aviv_verify::analyze::block_bounds_from_matches(dag, target, sndag.matches());
        let report = BlockReport {
            orig_nodes: stats.orig_nodes,
            sndag_nodes: stats.sn_nodes,
            assignment_space: stats.assignment_space,
            assignments_enumerated: 1,
            assignments_explored: 1,
            truncated: false,
            spills: schedule.spills.len(),
            instructions: 0, // filled in at emission
            peephole_removed: 0,
            time: start.elapsed(),
            stages,
            node_expansions: 0,
            search: SearchStats::default(),
            peak_pressure: crate::cover::peak_pressure(&graph, target, &schedule),
            min_instructions_bound: bounds.0,
            min_pressure_bound: bounds.1,
            cached: false,
            restored: false,
            mode,
            downgrades: Vec::new(),
            exhausted: None,
            complete: true,
        };
        let appended_syms = syms
            .iter()
            .skip(snapshot.len())
            .map(|(_, name)| name.to_string())
            .collect();
        Ok(BlockPlan::from_parts(
            graph,
            schedule,
            alloc,
            appended_syms,
            snapshot.len(),
            report,
        ))
    }
}

#[cfg(test)]
mod tests {
    use crate::{CodeGenerator, CodegenOptions};
    use aviv_ir::{parse_function, MemLayout};
    use aviv_isdl::{archs, Machine};

    /// Instruction counts of the first block of `src` on `machine`,
    /// AVIV's and the comparator's.
    fn both(src: &str, machine: Machine) -> (usize, usize) {
        let f = parse_function(src).unwrap();
        let [aviv, phased] = [false, true].map(|phase_ordered| {
            let options = CodegenOptions {
                phase_ordered,
                ..CodegenOptions::heuristics_on()
            };
            let generator = CodeGenerator::new(machine.clone()).options(options);
            let mut syms = f.syms.clone();
            let mut layout = MemLayout::for_function(&f);
            generator
                .compile_block(&f.blocks[0].dag, &mut syms, &mut layout)
                .unwrap()
                .report
                .instructions
        });
        (aviv, phased)
    }

    #[test]
    fn phase_ordered_compiles_and_aviv_is_no_worse() {
        let srcs = [
            "func f(a, b, c) { t = a + b; u = t * c; v = u - t; out = v; }",
            "func f(a, b, d, e) { out = ~((d * e) - (a + b)); }",
            "func f(a, b, c, d) { x = (a + b) * (c + d); y = x - a; }",
        ];
        for src in srcs {
            let (aviv, phased) = both(src, archs::example_arch(4));
            assert!(aviv > 0 && phased > 0);
            assert!(
                aviv <= phased,
                "{src}: aviv {aviv} > phase-ordered {phased}"
            );
        }
        let (aviv, phased) = both(
            "func f(a, b, c) { x = (a - b) * c; y = x + a; }",
            archs::arch_two(4),
        );
        assert!(aviv <= phased);
    }

    #[test]
    fn phase_ordered_spills_at_two_registers() {
        let src = "func f(a, b, c, d, e, g) {
            t1 = a + b; t2 = c + d; t3 = e + g;
            t4 = t1 * t2; t5 = t4 - t3; out = t5 + t1;
        }";
        let f = parse_function(src).unwrap();
        let options = CodegenOptions {
            phase_ordered: true,
            ..CodegenOptions::heuristics_on()
        };
        let generator = CodeGenerator::new(archs::example_arch(2)).options(options);
        let (_, report) = generator.compile_function(&f).unwrap();
        assert!(report.blocks[0].instructions > 0);
    }
}
