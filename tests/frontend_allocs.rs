//! Allocation ceilings for the block front end.
//!
//! For the five kernel-table machines (`example_arch(4)`, `arch_two(4)`,
//! `dsp_arch(4)`, `wide_arch(4)`, `single_alu(6)`) this counts every
//! call into the allocator for building each `Target`, then, for every
//! block of the six DSP kernels on each of them, for building the
//! Split-Node DAG and taking the block bounds from its pattern matches,
//! as `plan_block_once` does. The window runs twice: cold, while the
//! per-thread scratch grows, and warm.
//!
//! The Split-Node DAG keeps its ports, alternatives and interiors in
//! flat arenas built in per-thread scratch, a complex alternative refers
//! to its match instead of copying its nodes, the bounds reuse the
//! matches and keep their sets as bitmasks, and `Target::new` groups
//! its tables by index and hashes its fingerprint from the printer's
//! stream (with one more buffer, its unit classes, on the one machine
//! with interchangeable units): 400 allocations cold, 321 warm (24
//! blocks). Before, each
//! node had its own port vectors, the builder a hash map and copied
//! path lists, the bounds matched the block again and kept a `BTreeSet`
//! per node, and the target's tables were hash maps: 12,595, cold or
//! warm. The ceilings leave a small margin over the counts.
//!
//! This file holds exactly one test: the counter is process-wide, and a
//! second test running on another thread would allocate into it.

mod common;

use aviv::verify::analyze::block_bounds_from_matches;
use aviv_bench::kernels::{all_kernels, Kernel};
use aviv_ir::Function;
use aviv_isdl::{archs, Machine, Target};
use aviv_splitdag::SplitNodeDag;

/// The cold count plus a small margin.
const COLD_CEILING: u64 = 435;
/// The warm count plus a small margin.
const WARM_CEILING: u64 = 355;

/// Build every target, then the Split-Node DAG and bounds of every
/// block of the kernels that map onto it; returns the Split-Node DAG
/// nodes and the bounds, summed.
fn front_end(machines: Vec<Machine>, functions: &[Vec<Function>]) -> (usize, usize) {
    let mut sums = (0, 0);
    for (machine, functions) in machines.into_iter().zip(functions) {
        let target = Target::new(machine);
        for f in functions {
            for block in &f.blocks {
                let dag = &block.dag;
                let sndag = SplitNodeDag::build(dag, &target).expect("the kernel maps");
                let (instructions, pressure) =
                    block_bounds_from_matches(dag, &target, sndag.matches());
                sums.0 += sndag.len();
                sums.1 += instructions + pressure;
            }
        }
    }
    sums
}

#[test]
fn front_end_stays_under_the_allocation_ceilings() {
    let machines = [
        archs::example_arch(4),
        archs::arch_two(4),
        archs::dsp_arch(4),
        archs::wide_arch(4),
        archs::single_alu(6),
    ];
    // A kernel with an operation a machine cannot implement (`min` and
    // `abs` on the Example machine) is left out on it, as in the kernel
    // table. The check runs on its own thread so that the cold window
    // starts with this thread's scratch empty.
    let (machines, functions): (Vec<Machine>, Vec<Vec<Function>>) = std::thread::spawn(move || {
        machines
            .into_iter()
            .map(|machine| {
                let target = Target::new(machine.clone());
                let functions = all_kernels()
                    .iter()
                    .map(Kernel::function)
                    .filter(|f| {
                        f.blocks
                            .iter()
                            .all(|b| SplitNodeDag::build(&b.dag, &target).is_ok())
                    })
                    .collect();
                (machine, functions)
            })
            .unzip()
    })
    .join()
    .expect("the mapping check runs");
    let blocks: usize = functions.iter().flatten().map(|f| f.blocks.len()).sum();

    let again = machines.clone();
    let before = common::allocations();
    let cold = front_end(machines, &functions);
    let cold_allocs = common::allocations() - before;
    let before = common::allocations();
    let warm = front_end(again, &functions);
    let warm_allocs = common::allocations() - before;

    assert_eq!(cold, warm, "a warm pass changed the result");
    eprintln!(
        "front end: {cold_allocs} allocations cold, {warm_allocs} warm \
         ({blocks} blocks, {} Split-Node DAG nodes)",
        cold.0
    );
    assert!(
        cold_allocs < COLD_CEILING,
        "{cold_allocs} allocations cold, ceiling {COLD_CEILING}"
    );
    assert!(
        warm_allocs < WARM_CEILING,
        "{warm_allocs} allocations warm, ceiling {WARM_CEILING}"
    );
}
