//! Allocation ceiling for assignment exploration.
//!
//! Counts every call into the allocator made by one `aviv::explore` call
//! on two inputs: `dot4` on the Example machine with every heuristic off
//! (the `sweep-exhaustive` input: all 432 assignments enumerated and
//! selected) and `butterfly` on Wide with the heuristics on (a beam of
//! pruned branches, eight selected). Exploration keeps its branches in
//! two flat row buffers reused across levels, so the work per branch
//! allocates nothing: what remains is the per-call set-up, the buffers'
//! growth and the selected assignments (two vectors each). The calls
//! make 944 and 116 allocations (958 and 133 while the block's consumers
//! were a vector per node); when every branch was a struct of three
//! vectors, cloned for each kept alternative, swallowed node and beam
//! survivor, they made 4,727 and 13,459. The ceilings leave a small
//! margin over the current counts.
//!
//! This file holds exactly one test: the counter is process-wide, and a
//! second test running on another thread would allocate into it.

mod common;

use aviv::{explore, CodegenOptions};
use aviv_bench::kernels::{Kernel, BUTTERFLY, DOT4};
use aviv_ir::parse_function;
use aviv_isdl::{archs, Machine, Target};
use aviv_splitdag::SplitNodeDag;

/// Explores `kernel` on `machine` under `options` and returns the
/// assignments enumerated and the allocation calls the exploration made.
fn explore_counted(kernel: &Kernel, machine: Machine, options: &CodegenOptions) -> (usize, u64) {
    let function = parse_function(kernel.source).expect("the kernel parses");
    let dag = &function.blocks[0].dag;
    let target = Target::new(machine);
    let sndag = SplitNodeDag::build(dag, &target).expect("the kernel maps onto the machine");
    let before = common::allocations();
    let result = explore(dag, &sndag, &target, options);
    let allocs = common::allocations() - before;
    assert!(!result.truncated);
    eprintln!(
        "{}: {} enumerated, {} selected, {allocs} allocations",
        kernel.name,
        result.enumerated,
        result.assignments.len()
    );
    (result.enumerated, allocs)
}

/// Ceiling for `dot4` on Example with the heuristics off (944 now).
const CEILING_DOT4: u64 = 1_000;

/// Ceiling for `butterfly` on Wide with the heuristics on (116 now).
const CEILING_BUTTERFLY: u64 = 150;

#[test]
fn exploration_stays_under_the_allocation_ceiling() {
    let (enumerated, allocs) = explore_counted(
        &DOT4,
        archs::example_arch(4),
        &CodegenOptions::heuristics_off(),
    );
    assert_eq!(enumerated, 432, "the enumeration itself changed");
    assert!(
        allocs <= CEILING_DOT4,
        "dot4: {allocs} allocations, ceiling {CEILING_DOT4}"
    );

    let (enumerated, allocs) = explore_counted(
        &BUTTERFLY,
        archs::wide_arch(4),
        &CodegenOptions::heuristics_on(),
    );
    assert_eq!(enumerated, 128, "the enumeration itself changed");
    assert!(
        allocs <= CEILING_BUTTERFLY,
        "butterfly: {allocs} allocations, ceiling {CEILING_BUTTERFLY}"
    );
}
