//! Quality degrades before strategy does: a fuel-limited compile whose
//! covering already finished keeps its concurrent schedule.
//!
//! Covering every explored assignment can spend nearly all of a rung's
//! fuel, leaving register allocation to run out. The block then holds a
//! complete schedule, so the rung salvages it (marks the block
//! `exhausted` and finishes the tail unbudgeted) instead of stepping
//! down the degradation ladder to the sequential rung.

use aviv::verify::validate_asm;
use aviv::{CodeGenerator, CodegenOptions};
use aviv_bench::kernels::DOT4;
use aviv_isdl::archs;

#[test]
fn fuel_between_half_and_full_search_never_downgrades() {
    let machine = archs::example_arch(4);
    let f = DOT4.function();
    let compile = |fuel: Option<u64>| {
        let options = CodegenOptions::heuristics_on().with_jobs(1).with_fuel(fuel);
        let generator = CodeGenerator::new(machine.clone()).options(options);
        let (program, report) = generator
            .compile_function(&f)
            .unwrap_or_else(|e| panic!("fuel {fuel:?}: {e}"));
        (program.render(generator.target()), report)
    };
    let (_, full) = compile(None);
    assert!(full.complete);
    let n: u64 = full.blocks.iter().map(|b| b.node_expansions).sum();
    // Every fourth fuel value keeps the debug run short; the failure
    // window this guards was over a hundred units wide.
    for fuel in (n / 2..n).step_by(4).chain([n]) {
        let (asm, report) = compile(Some(fuel));
        for b in &report.blocks {
            assert!(
                b.downgrades.is_empty(),
                "fuel {fuel} of {n}: {:?}",
                b.downgrades
            );
        }
        let tv = validate_asm(&f, &asm, &machine);
        assert!(tv.ok(), "fuel {fuel}: {:?}", tv.diagnostics);
        if fuel == n {
            assert_eq!(report.total_instructions, full.total_instructions);
        }
    }
}
