//! Allocation ceiling for cover-graph construction.
//!
//! Counts every call into the allocator made while building the cover
//! graphs of all 432 assignments `aviv::explore` selects for `dot4` on
//! the Example machine with every heuristic off (the `sweep-exhaustive`
//! input), twice: once as 432 fresh graphs from
//! `CoverGraph::try_build`, once rebuilt in place into one graph with
//! `CoverGraph::try_rebuild`, as the compilation driver does.
//!
//! The builder's temporaries and the index rebuild's buffers are reused
//! on each thread, sized on a block's first build for the largest graph
//! the block can have, operands live inline in their node, and consumer
//! and successor lists are flat, so a fresh graph costs only its own
//! storage (about 13 allocations for a 20-node graph) and a graph
//! rebuilt in place costs nothing once its storage fits: the 432 fresh
//! graphs make 5,624 allocations, and the 432 rebuilt in place make 18, while its
//! storage grows to the largest graph. When every node held its operands in a `Vec`,
//! each build made fresh temporaries and the index rebuild a `Vec` per
//! node's consumers and successors, the 432 builds made 45,934. The
//! ceilings leave a small margin over the current counts.
//!
//! This file holds exactly one test: the counter is process-wide, and a
//! second test running on another thread would allocate into it.

mod common;

use aviv::{explore, CodegenOptions, CoverGraph};
use aviv_bench::kernels::DOT4;
use aviv_ir::parse_function;
use aviv_isdl::{archs, Target};
use aviv_splitdag::SplitNodeDag;

/// Ceiling for the 432 fresh graphs (5,624 now).
const CEILING_FRESH: u64 = 5_800;

/// Ceiling for the 432 graphs rebuilt in place (18 now).
const CEILING_IN_PLACE: u64 = 40;

#[test]
fn cover_graph_builds_stay_under_the_allocation_ceiling() {
    let function = parse_function(DOT4.source).expect("dot4 parses");
    let dag = &function.blocks[0].dag;
    let target = Target::new(archs::example_arch(4));
    let sndag = SplitNodeDag::build(dag, &target).expect("dot4 maps onto Example");
    let result = explore(dag, &sndag, &target, &CodegenOptions::heuristics_off());
    assert_eq!(
        result.assignments.len(),
        432,
        "the enumeration itself changed"
    );

    let before = common::allocations();
    let mut nodes = 0;
    for assignment in &result.assignments {
        let graph = CoverGraph::try_build(dag, &sndag, &target, assignment).expect("builds");
        nodes += graph.len();
    }
    let fresh = common::allocations() - before;
    eprintln!("{nodes} nodes in 432 fresh graphs: {fresh} allocations");
    assert_eq!(nodes, 8_640, "the graphs themselves changed");
    assert!(
        fresh <= CEILING_FRESH,
        "fresh graphs: {fresh} allocations, ceiling {CEILING_FRESH}"
    );

    let before = common::allocations();
    let mut graph = CoverGraph::default();
    for assignment in &result.assignments {
        graph
            .try_rebuild(dag, &sndag, &target, assignment)
            .expect("builds");
    }
    let in_place = common::allocations() - before;
    eprintln!("432 graphs rebuilt in place: {in_place} allocations");
    assert!(
        in_place <= CEILING_IN_PLACE,
        "graphs rebuilt in place: {in_place} allocations, ceiling {CEILING_IN_PLACE}"
    );
}
