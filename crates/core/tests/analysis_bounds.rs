//! Acceptance tests for the machine×program feasibility analyzer and
//! its admissible per-block bounds.
//!
//! The analyzer contract: a "feasible" verdict matches actual
//! `compile_function` success and an M-error verdict matches failure,
//! for every bundled machine × corpus program and for random DAGs, at
//! every worker count. The bounds contract: every block's instruction
//! and pressure lower bounds are at or below what covering achieved.

use aviv::verify::analyze_program;
use aviv::{CodeGenerator, CodegenOptions};
use aviv_ir::randdag::{random_function, RandDagConfig};
use aviv_ir::{parse_function, Function, Op};
use aviv_isdl::{archs, Machine, Target};
use proptest::prelude::*;

fn machines() -> Vec<Machine> {
    vec![
        archs::example_arch(4),
        archs::arch_two(4),
        archs::dsp_arch(4),
        // `mac` reads three registers, more than this bank holds: the
        // matcher drops its matches, so the verdict holds here too.
        archs::dsp_arch(2),
        archs::chained_arch(4),
        archs::single_alu(4),
        archs::wide_arch(4),
        archs::quad_vliw(4),
        archs::accumulator_dsp(),
    ]
}

fn corpus() -> Vec<(&'static str, Function)> {
    let sources = [
        ("dot4", include_str!("../../../assets/dot4.av")),
        ("sum_loop", include_str!("../../../assets/sum_loop.av")),
    ];
    sources
        .into_iter()
        .map(|(name, src)| (name, parse_function(src).expect("corpus parses")))
        .collect()
}

/// Analyzer soundness and bound admissibility over every bundled
/// machine × corpus program.
#[test]
fn corpus_verdicts_match_and_bounds_are_admissible() {
    for machine in machines() {
        let target = Target::new(machine.clone());
        for (prog, f) in corpus() {
            let pair = format!("{} x {}", machine.name, prog);
            let analysis = analyze_program(&f, &target);
            let outcome = CodeGenerator::new(machine.clone())
                .options(CodegenOptions::heuristics_on())
                .compile_function(&f);
            match outcome {
                Ok((_, report)) => {
                    assert!(
                        analysis.feasible(),
                        "{pair}: compiles but analyze flags an M-error: {:?}",
                        analysis.diagnostics
                    );
                    for (bi, b) in report.blocks.iter().enumerate() {
                        assert!(
                            b.min_instructions_bound <= b.instructions,
                            "{pair} bb{bi}: instruction bound {} exceeds achieved {}",
                            b.min_instructions_bound,
                            b.instructions
                        );
                        assert!(
                            b.min_pressure_bound <= b.peak_pressure,
                            "{pair} bb{bi}: pressure bound {} exceeds achieved {}",
                            b.min_pressure_bound,
                            b.peak_pressure
                        );
                    }
                }
                Err(_) => assert!(
                    !analysis.feasible(),
                    "{pair}: fails to compile but analyze reports feasible"
                ),
            }
        }
    }
}

fn soundness_cfg(n_ops: usize, with_div: bool) -> RandDagConfig {
    RandDagConfig {
        n_ops,
        n_inputs: 3,
        // With `with_div`, programs may demand a divider — several
        // bundled machines have none, exercising the M001 ⟺ failure
        // direction; without it, everything should compile everywhere.
        ops: if with_div {
            vec![Op::Add, Op::Sub, Op::Mul, Op::Div, Op::Neg]
        } else {
            vec![Op::Add, Op::Sub, Op::Mul, Op::Add, Op::Mul, Op::Neg]
        },
        n_outputs: 2,
        locality: 0.5,
        const_prob: 0.2,
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(10))]
    // Soundness: the analyzer's verdict is exactly the compiler's
    // outcome, for every bundled machine and worker count.
    #[test]
    fn analyzer_verdict_matches_compiler(
        seed in 0u64..10_000,
        n_ops in 3usize..12,
        n_blocks in 1usize..3,
        with_div in 0u64..2,
    ) {
        let f = random_function(&soundness_cfg(n_ops, with_div == 1), n_blocks, seed);
        for machine in machines() {
            let target = Target::new(machine.clone());
            let feasible = analyze_program(&f, &target).feasible();
            for jobs in [1usize, 4, 0] {
                let outcome = CodeGenerator::new(machine.clone())
                    .options(CodegenOptions::heuristics_on().with_jobs(jobs))
                    .compile_function(&f);
                prop_assert_eq!(
                    feasible,
                    outcome.is_ok(),
                    "machine {} seed {} jobs {}: analyze says {} but compile {:?}",
                    machine.name,
                    seed,
                    jobs,
                    if feasible { "feasible" } else { "infeasible" },
                    outcome.as_ref().map(|_| ()).map_err(ToString::to_string)
                );
                if let Ok((_, report)) = outcome {
                    for b in &report.blocks {
                        prop_assert!(b.min_instructions_bound <= b.instructions);
                        prop_assert!(b.min_pressure_bound <= b.peak_pressure);
                    }
                }
            }
        }
    }
}
