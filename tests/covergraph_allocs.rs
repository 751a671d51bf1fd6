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

use aviv::{explore, CodegenOptions, CoverGraph};
use aviv_bench::kernels::DOT4;
use aviv_ir::parse_function;
use aviv_isdl::{archs, Target};
use aviv_splitdag::SplitNodeDag;
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

/// The system allocator plus a count of allocation calls.
struct Counting;

static CALLS: AtomicU64 = AtomicU64::new(0);

// SAFETY: every method forwards its arguments unchanged to `System`, so
// the `GlobalAlloc` contract holds exactly as it does for `System`; the
// counter is a lock-free atomic and never allocates.
#[allow(unsafe_code)]
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        CALLS.fetch_add(1, Ordering::Relaxed);
        // SAFETY: the caller upholds `GlobalAlloc::alloc`'s contract.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        CALLS.fetch_add(1, Ordering::Relaxed);
        // SAFETY: the caller upholds `GlobalAlloc::alloc_zeroed`'s contract.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        CALLS.fetch_add(1, Ordering::Relaxed);
        // SAFETY: the caller upholds `GlobalAlloc::realloc`'s contract.
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: the caller upholds `GlobalAlloc::dealloc`'s contract.
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

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

    let before = CALLS.load(Ordering::Relaxed);
    let mut nodes = 0;
    for assignment in &result.assignments {
        let graph = CoverGraph::try_build(dag, &sndag, &target, assignment).expect("builds");
        nodes += graph.len();
    }
    let fresh = CALLS.load(Ordering::Relaxed) - before;
    eprintln!("{nodes} nodes in 432 fresh graphs: {fresh} allocations");
    assert_eq!(nodes, 8_640, "the graphs themselves changed");
    assert!(
        fresh <= CEILING_FRESH,
        "fresh graphs: {fresh} allocations, ceiling {CEILING_FRESH}"
    );

    let before = CALLS.load(Ordering::Relaxed);
    let mut graph = CoverGraph::default();
    for assignment in &result.assignments {
        graph
            .try_rebuild(dag, &sndag, &target, assignment)
            .expect("builds");
    }
    let in_place = CALLS.load(Ordering::Relaxed) - before;
    eprintln!("432 graphs rebuilt in place: {in_place} allocations");
    assert!(
        in_place <= CEILING_IN_PLACE,
        "graphs rebuilt in place: {in_place} allocations, ceiling {CEILING_IN_PLACE}"
    );
}
