//! Acceptance tests for the analysis-bounds pruning and the
//! machine×program feasibility analyzer.
//!
//! The pruning contract: with `CodegenOptions::analysis_bounds` on (the
//! default) emitted code is byte-identical to a run with it off — the
//! cutoff only abandons lookahead rollouts that provably cannot change
//! the covering decision — while the charged node expansions never
//! increase, and strictly decrease somewhere on the corpus.
//!
//! The analyzer contract: a "feasible" verdict matches actual
//! `compile_function` success and an M-error verdict matches failure,
//! for every bundled machine × corpus program and for random DAGs, at
//! every worker count.

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

fn total_expansions(report: &aviv::CompileReport) -> u64 {
    report.blocks.iter().map(|b| b.node_expansions).sum()
}

/// Byte-identity pin + bound admissibility + analyzer soundness over
/// every bundled machine × corpus program, and budget monotonicity with
/// at least one strict win.
#[test]
fn corpus_output_is_byte_identical_and_bounds_admissible() {
    let mut strict_win = false;
    for machine in machines() {
        let target = Target::new(machine.clone());
        for (prog, f) in corpus() {
            let pair = format!("{} x {}", machine.name, prog);
            let analysis = analyze_program(&f, &target);

            let on = CodeGenerator::new(machine.clone())
                .options(CodegenOptions::heuristics_on())
                .compile_function(&f);
            let off = CodeGenerator::new(machine.clone())
                .options(CodegenOptions::heuristics_on().with_analysis_bounds(false))
                .compile_function(&f);

            match (on, off) {
                (Ok((prog_on, rep_on)), Ok((prog_off, rep_off))) => {
                    assert!(
                        analysis.feasible(),
                        "{pair}: compiles but analyze flags an M-error: {:?}",
                        analysis.diagnostics
                    );
                    assert_eq!(
                        prog_on.render(&target),
                        prog_off.render(&target),
                        "{pair}: analysis_bounds changed the emitted code"
                    );
                    let (e_on, e_off) = (total_expansions(&rep_on), total_expansions(&rep_off));
                    assert!(
                        e_on <= e_off,
                        "{pair}: pruning increased expansions ({e_on} > {e_off})"
                    );
                    if e_on < e_off {
                        strict_win = true;
                    }
                    for (bi, b) in rep_on.blocks.iter().enumerate() {
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
                (Err(_), Err(_)) => {
                    assert!(
                        !analysis.feasible(),
                        "{pair}: fails to compile but analyze reports feasible"
                    );
                }
                (on, off) => panic!(
                    "{pair}: analysis_bounds changed compile success: on={} off={}",
                    on.is_ok(),
                    off.is_ok()
                ),
            }
        }
    }
    assert!(
        strict_win,
        "pruning never strictly reduced node expansions on the corpus"
    );
}

/// The exhaustive preset explores the most tied covering decisions, so
/// the cutoff must show a strict node-expansion win there too (this is
/// the configuration of the search pin's `+off` rows).
#[test]
fn exhaustive_mode_prunes_strictly_on_dot4() {
    let f = parse_function(include_str!("../../../assets/dot4.av")).unwrap();
    let mut strict_win = false;
    for machine in [archs::example_arch(4), archs::dsp_arch(4)] {
        let target = Target::new(machine.clone());
        let (prog_on, rep_on) = CodeGenerator::new(machine.clone())
            .options(CodegenOptions::heuristics_off())
            .compile_function(&f)
            .expect("exhaustive compile succeeds");
        let (prog_off, rep_off) = CodeGenerator::new(machine.clone())
            .options(CodegenOptions::heuristics_off().with_analysis_bounds(false))
            .compile_function(&f)
            .expect("exhaustive compile succeeds");
        assert_eq!(
            prog_on.render(&target),
            prog_off.render(&target),
            "{}: analysis_bounds changed exhaustive-mode code",
            machine.name
        );
        let (e_on, e_off) = (total_expansions(&rep_on), total_expansions(&rep_off));
        assert!(e_on <= e_off, "{}: {e_on} > {e_off}", machine.name);
        if e_on < e_off {
            strict_win = true;
        }
    }
    assert!(
        strict_win,
        "exhaustive-mode pruning never strictly reduced expansions"
    );
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
