//! Allocation ceiling for a warm recompile.
//!
//! `avivd` mostly serves repeats of programs it has already planned.
//! This test primes a `PlanCache` with `sum_loop` on the Fig. 3 machine
//! and with one seven-block function, then counts every call into the
//! allocator for one warm repeat of both: parsing the source, building
//! a generator on the shared target with the cache attached,
//! `compile_function` (every block served from the cache) and `render`.
//! The window matches the per-request `heap_allocs` of the
//! `serve-mixed` benchmark.
//!
//! Before cached plans were shared instead of cloned, the parser stopped
//! allocating per token and per expression, and the target fingerprint
//! was computed once per machine, this warm repeat made 1,173
//! allocations; after, 496. The dead-code check then moved from the
//! generic liveness solver's per-block vectors and bit sets to flat
//! rows kept per thread: it now makes 363. The ceiling leaves a small
//! margin over that count.
//!
//! This file holds exactly one test: the counter is process-wide, and a
//! second test running on another thread would allocate into it.

mod common;

use aviv::{CodeGenerator, CodegenOptions, PlanCache};
use aviv_ir::parse_function;
use aviv_isdl::{parse_machine, Target};
use std::sync::Arc;

/// Two diamonds in a row: seven blocks, each with its own plan.
const SEVEN_BLOCKS: &str = "func seven(a, b, n) {
    s = a + b;
    t = a - b;
    if (s > n) goto big;
    s = s * 2;
    t = t + s;
    goto join;
big:
    s = s - n;
    t = t * a;
join:
    u = s + t;
    if (u == 0) goto zero;
    u = u * b;
    goto out;
zero:
    u = a;
out:
    return u;
}";

/// The current count plus a small margin.
const CEILING: u64 = 400;

#[test]
fn warm_repeat_stays_under_the_allocation_ceiling() {
    let machine = parse_machine(include_str!("../assets/fig3.isdl")).expect("fig3 parses");
    let target = Arc::new(Target::new(machine));
    let sources = [include_str!("../assets/sum_loop.av"), SEVEN_BLOCKS];
    let options = CodegenOptions::heuristics_on()
        .with_jobs(1)
        .with_verify(false);
    let cache = Arc::new(PlanCache::default());

    let compile = |src: &str| {
        let f = parse_function(src).expect("program parses");
        let generator = CodeGenerator::with_shared_target(Arc::clone(&target))
            .options(options.clone())
            .with_cache(Arc::clone(&cache));
        let (program, report) = generator.compile_function(&f).expect("program compiles");
        (program.render(&target), report)
    };

    let cold: Vec<String> = sources.iter().map(|src| compile(src).0).collect();

    let before = common::allocations();
    let warm: Vec<_> = sources.iter().map(|src| compile(src)).collect();
    let allocs = common::allocations() - before;

    for ((asm, report), cold) in warm.iter().zip(&cold) {
        assert_eq!(asm, cold, "a warm compile changed the bytes");
        assert_eq!(
            report.cache_hits,
            report.blocks.len(),
            "a block missed the cache"
        );
    }
    assert_eq!(warm[1].1.blocks.len(), 7);
    eprintln!("{allocs} allocations for one warm repeat of both programs");
    assert!(allocs < CEILING, "{allocs} allocations, ceiling {CEILING}");
}
