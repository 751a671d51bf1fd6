//! Allocation ceiling for the covering hot path.
//!
//! Compiles the `sweep-exhaustive` benchmark input — `dot4` on the
//! Example machine with every heuristic off, so every enumerated
//! assignment is selected and each one the bound does not prune is
//! covered with lookahead (2,473 node expansions with branch and bound
//! across assignments and the rollout cutoff's unit, bus and chain
//! terms; 2,680 with the clique-size term alone, 62,570 without the
//! bound, 118,252 with Fig. 8's recursion, 273,970 before the rollout
//! memo) — from source
//! bytes to assembly bytes, and counts every call into the allocator.
//! The selection loop, the rollouts, the rollout memo and clique-pool
//! generation work in one scratch workspace per thread, so a warm
//! covering call allocates only the schedule it returns. An assignment
//! the bound prunes gets no cover graph, the others are rebuilt in
//! place in one reused graph, and only those copy the symbol table; the
//! Split-Node DAG, the block bounds, the target and the dead-code check
//! work in flat storage too. The compile makes 2,222 allocations (2,759
//! with the per-node front end, 2,778 while every assignment's graph
//! was built before its bound was taken), where it made 5,397
//! when every covering call built its own scratch and generated its
//! clique pools into fresh `BitSet`s, 60,293 when every assignment
//! built a fresh graph and cloned the table, and 8,326,978 when every
//! covering step rebuilt its state on the heap. The ceiling leaves a
//! small margin over the current count.
//!
//! This file holds exactly one test: the counter is process-wide, and a
//! second test running on another thread would allocate into it.

mod common;

use aviv::{CodeGenerator, CodegenOptions};
use aviv_bench::kernels::DOT4;
use aviv_ir::parse_function;
use aviv_isdl::{archs, parse_machine, to_isdl};

/// A small margin over the allocations of one `sweep-exhaustive`
/// compile (2,222 now).
const CEILING: u64 = 2_400;

#[test]
fn exhaustive_dot4_compile_stays_under_the_allocation_ceiling() {
    let machine_src = to_isdl(&archs::example_arch(4));
    let options = CodegenOptions::heuristics_off()
        .with_jobs(1)
        .with_verify(false);

    let before = common::allocations();
    let machine = parse_machine(&machine_src).expect("Example machine parses");
    let function = parse_function(DOT4.source).expect("dot4 parses");
    let generator = CodeGenerator::new(machine).options(options);
    let (program, report) = generator
        .compile_function(&function)
        .expect("dot4 compiles on Example");
    let asm = program.render(generator.target());
    let allocs = common::allocations() - before;

    let expansions: u64 = report.blocks.iter().map(|b| b.node_expansions).sum();
    assert_eq!(expansions, 2_473, "the search itself changed");
    assert_eq!(report.total_instructions, 12);
    assert!(!asm.is_empty());
    eprintln!("{allocs} allocations for {expansions} node expansions");
    assert!(allocs < CEILING, "{allocs} allocations, ceiling {CEILING}");
}
