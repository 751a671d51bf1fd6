//! Allocation pin for clique-pool generation.
//!
//! Builds the cover graphs of all 432 assignments `aviv::explore`
//! selects for `dot4` on the Example machine with every heuristic off
//! (the `sweep-exhaustive` input), then generates the legal clique pool
//! of every graph twice into one `CliquePool`, counting every call into
//! the allocator.
//!
//! The pool keeps its parallelism matrix, Bron–Kerbosch's frames, the
//! found cliques, legalization's rows and its dedupe index in flat
//! buffers it reuses, so the first pass allocates only while the
//! buffers grow to the largest graph, and the second pass, whose
//! buffers are warm, allocates nothing: 18 allocations, then 0 (15,384
//! cliques per pass). Before the pool was flat, each generation built a
//! fresh matrix and id list, cloned a `BitSet` per maximal clique and
//! per legal clique, and filled a `HashSet`: 45,206 allocations per
//! pass. The ceiling leaves a small margin over the first pass's count.
//!
//! This file holds exactly one test: the counter is process-wide, and a
//! second test running on another thread would allocate into it.

mod common;

use aviv::cliques::CliquePool;
use aviv::{explore, Budget, CodegenOptions, CoverGraph};
use aviv_bench::kernels::DOT4;
use aviv_ir::parse_function;
use aviv_isdl::{archs, Target};
use aviv_splitdag::SplitNodeDag;

/// Ceiling for the first pass, which grows the buffers (18 now).
const CEILING_FIRST: u64 = 40;

#[test]
fn clique_pools_regenerate_without_allocating() {
    let function = parse_function(DOT4.source).expect("dot4 parses");
    let dag = &function.blocks[0].dag;
    let target = Target::new(archs::example_arch(4));
    let sndag = SplitNodeDag::build(dag, &target).expect("dot4 maps onto Example");
    let options = CodegenOptions::heuristics_off();
    let result = explore(dag, &sndag, &target, &options);
    let graphs: Vec<CoverGraph> = result
        .assignments
        .iter()
        .map(|a| CoverGraph::try_build(dag, &sndag, &target, a).expect("builds"))
        .collect();
    assert_eq!(graphs.len(), 432, "the enumeration itself changed");

    let mut pool = CliquePool::default();
    let mut counts = [(0u64, 0usize); 2];
    for (calls, cliques) in &mut counts {
        let budget = Budget::unlimited();
        let before = common::allocations();
        for graph in &graphs {
            pool.generate(
                graph,
                &target,
                graph.alive(),
                options.clique_level_window,
                &budget,
            )
            .expect("Example keeps single nodes legal");
            *cliques += pool.len();
        }
        *calls = common::allocations() - before;
    }
    let [(first, cliques), (second, again)] = counts;
    eprintln!("432 pools, {cliques} cliques: {first} allocations, then {second} warm");
    assert_eq!(again, cliques, "a warm pool differs");
    assert_eq!(cliques, 15_384, "the pools themselves changed");
    assert!(
        first <= CEILING_FIRST,
        "first pass: {first} allocations, ceiling {CEILING_FIRST}"
    );
    assert_eq!(second, 0, "warm pools allocated");
}
