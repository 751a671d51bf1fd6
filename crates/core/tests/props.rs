//! Property-based tests of the covering engine's invariants
//! (see DESIGN.md §7).

use aviv::assign::explore;
use aviv::cliques::{
    brute_force_max_cliques, gen_max_cliques, gen_max_cliques_budgeted, ParallelismMatrix,
};
use aviv::cover::cover;
use aviv::covergraph::CoverGraph;
use aviv::regalloc::{allocate, verify_allocation};
use aviv::{verify_schedule, Budget, CodegenOptions};
use aviv_ir::randdag::{random_block, RandDagConfig};
use aviv_ir::Op;
use aviv_isdl::{archs, Target};
use aviv_splitdag::SplitNodeDag;
use proptest::prelude::*;

// Invariant 1: the clique enumerator returns exactly the maximal cliques
// of any compatibility graph (checked against subset enumeration), in
// ascending order.
proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]
    #[test]
    fn clique_generator_matches_brute_force(
        n in 1usize..17,
        edges in prop::collection::vec((0usize..16, 0usize..16), 0..60),
    ) {
        let m = ParallelismMatrix::from_conflicts(n, &edges);
        prop_assert_eq!(gen_max_cliques(&m), brute_force_max_cliques(&m));
    }

    /// Cut short by its budget, the enumerator still returns only
    /// maximal cliques, each once: a subset of the full set.
    #[test]
    fn truncated_clique_generation_is_a_duplicate_free_subset(
        n in 1usize..17,
        edges in prop::collection::vec((0usize..16, 0usize..16), 0..60),
        fuel in 1u64..40,
    ) {
        let m = ParallelismMatrix::from_conflicts(n, &edges);
        let full = brute_force_max_cliques(&m);
        let mut cut = gen_max_cliques_budgeted(&m, &Budget::new(Some(fuel), None));
        let found = cut.len();
        cut.sort_unstable();
        cut.dedup();
        prop_assert_eq!(cut.len(), found, "a clique was returned twice");
        for c in &cut {
            prop_assert!(full.binary_search(c).is_ok(), "{:?} is not a maximal clique", c);
        }
    }
}

fn rand_cfg(n_ops: usize) -> RandDagConfig {
    RandDagConfig {
        n_ops,
        n_inputs: 3,
        ops: vec![Op::Add, Op::Sub, Op::Mul, Op::Add, Op::Mul],
        n_outputs: 2,
        locality: 0.5,
        const_prob: 0.0,
    }
}

// The same equality on the matrices covering actually builds: the live
// nodes of seeded random blocks' cover graphs, with and without the
// level window (§IV-C.2).
proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]
    #[test]
    fn cover_graph_cliques_match_brute_force(
        seed in 0u64..10_000,
        n_ops in 2usize..12,
        arch_pick in 0usize..3,
    ) {
        let machine = match arch_pick {
            0 => archs::example_arch(4),
            1 => archs::arch_two(4),
            _ => archs::wide_arch(4),
        };
        let f = random_block(&rand_cfg(n_ops), seed);
        let dag = &f.blocks[0].dag;
        let target = Target::new(machine);
        let sndag = SplitNodeDag::build(dag, &target).unwrap();
        let res = explore(dag, &sndag, &target, &CodegenOptions::heuristics_on());
        for assignment in res.assignments.iter().take(2) {
            let graph = CoverGraph::build(dag, &sndag, &target, assignment);
            let nodes: Vec<_> = graph.alive().collect();
            if nodes.len() > 20 {
                continue; // beyond the brute force's reach
            }
            for window in [None, Some(1), Some(2)] {
                let m = ParallelismMatrix::build(&graph, &target, &nodes, window);
                prop_assert_eq!(gen_max_cliques(&m), brute_force_max_cliques(&m));
            }
        }
    }
}

// Invariants 2 and 3: every alive node covered exactly once in
// dependence order, resources legal, pressure within bounds; detailed
// coloring always succeeds afterwards — across random blocks, both
// paper architectures, and tight register budgets.
proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]
    #[test]
    fn covering_invariants_hold(
        seed in 0u64..10_000,
        n_ops in 3usize..14,
        arch_pick in 0usize..4,
    ) {
        let machine = match arch_pick {
            0 => archs::example_arch(4),
            1 => archs::example_arch(2),
            2 => archs::arch_two(4),
            _ => archs::arch_two(3),
        };
        let f = random_block(&rand_cfg(n_ops), seed);
        let dag = &f.blocks[0].dag;
        let target = Target::new(machine);
        let sndag = SplitNodeDag::build(dag, &target).unwrap();
        let options = CodegenOptions::heuristics_on();
        let res = explore(dag, &sndag, &target, &options);
        prop_assert!(!res.assignments.is_empty());
        for assignment in res.assignments.iter().take(2) {
            let mut graph = CoverGraph::build(dag, &sndag, &target, assignment);
            graph.verify(&target).map_err(|e| {
                TestCaseError::fail(format!("graph invalid: {e}"))
            })?;
            let mut syms = f.syms.clone();
            // Driver semantics: the concurrent engine may refuse extreme
            // register-pressure corners; the sequential fallback then
            // must succeed.
            let (graph, schedule) = match cover(&mut graph, &target, &mut syms, &options) {
                Ok(s) => (graph, s),
                Err(_) => {
                    let mut g = CoverGraph::build(dag, &sndag, &target, assignment);
                    let mut syms2 = f.syms.clone();
                    let s = aviv::cover::cover_sequential(&mut g, &target, &mut syms2)
                        .map_err(|e| TestCaseError::fail(format!("fallback: {e}")))?;
                    syms = syms2;
                    (g, s)
                }
            };
            let _ = &syms;
            prop_assert_eq!(verify_schedule(&graph, &target, &schedule), []);
            let alloc = allocate(&graph, &target, &schedule)
                .map_err(|e| TestCaseError::fail(format!("alloc: {e}")))?;
            verify_allocation(&graph, &target, &schedule, &alloc)
                .map_err(TestCaseError::fail)?;
        }
    }
}

// Invariant 5: the Split-Node DAG's assignment space equals the product
// of per-node alternative counts, and no legal (op, unit) pair is
// dropped.
proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]
    #[test]
    fn sndag_alternatives_complete(seed in 0u64..10_000, n_ops in 2usize..12) {
        let f = random_block(&rand_cfg(n_ops), seed);
        let dag = &f.blocks[0].dag;
        let target = Target::new(archs::example_arch(4));
        let sndag = SplitNodeDag::build(dag, &target).unwrap();
        let mut product: u128 = 1;
        for (id, node) in dag.iter() {
            if node.op.is_leaf() || node.op.is_store() {
                continue;
            }
            let alts = sndag.alts(id);
            // Every capable unit appears exactly once among the simple
            // alternatives.
            let units = target.ops.units_for(node.op);
            let simple: Vec<_> = alts
                .iter()
                .filter(|a| matches!(a.kind, aviv_splitdag::AltKind::Simple(_)))
                .collect();
            prop_assert_eq!(simple.len(), units.len());
            product = product.saturating_mul(alts.len() as u128);
        }
        prop_assert_eq!(sndag.stats(dag).assignment_space, product);
    }
}

// Invariant 7 (structural half): the peephole pass never increases the
// instruction count and its output still verifies.
proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]
    #[test]
    fn peephole_never_hurts(seed in 0u64..10_000, n_ops in 3usize..12) {
        let f = random_block(&rand_cfg(n_ops), seed);
        let dag = &f.blocks[0].dag;
        let target = Target::new(archs::example_arch(2)); // force spills
        let sndag = SplitNodeDag::build(dag, &target).unwrap();
        let options = CodegenOptions::heuristics_on();
        let res = explore(dag, &sndag, &target, &options);
        let assignment = &res.assignments[0];
        let mut graph = CoverGraph::build(dag, &sndag, &target, assignment);
        let mut syms = f.syms.clone();
        let Ok(mut schedule) = cover(&mut graph, &target, &mut syms, &options) else {
            return Ok(()); // pressure-unsatisfiable assignment: skip
        };
        let before = schedule.len();
        let Ok(mut alloc) = allocate(&graph, &target, &schedule) else {
            return Err(TestCaseError::fail("allocation must succeed"));
        };
        aviv::peephole::optimize(&mut graph, &target, &mut schedule, &mut alloc);
        prop_assert!(schedule.len() <= before);
        prop_assert_eq!(verify_schedule(&graph, &target, &schedule), []);
        verify_allocation(&graph, &target, &schedule, &alloc)
            .map_err(TestCaseError::fail)?;
    }
}

// The assignment explorer's exhaustive mode really enumerates the whole
// space (product of alternative counts) when under the cap.
proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]
    #[test]
    fn exhaustive_enumeration_is_complete(seed in 0u64..10_000, n_ops in 2usize..7) {
        let f = random_block(&rand_cfg(n_ops), seed);
        let dag = &f.blocks[0].dag;
        let target = Target::new(archs::example_arch(4));
        let sndag = SplitNodeDag::build(dag, &target).unwrap();
        let space = sndag.stats(dag).assignment_space;
        prop_assume!(space <= 4096);
        let res = explore(dag, &sndag, &target, &CodegenOptions::heuristics_off());
        prop_assert_eq!(res.enumerated as u128, space);
        prop_assert!(!res.truncated);
    }
}

// The guaranteed-progress claim: the sequential fallback alone covers
// every assignment of every random block at every register budget the
// machine's operations permit (>= max arity).
proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]
    #[test]
    fn sequential_fallback_always_converges(
        seed in 0u64..100_000,
        n_ops in 2usize..16,
        regs in 2u32..5,
    ) {
        let f = random_block(&rand_cfg(n_ops), seed);
        let dag = &f.blocks[0].dag;
        let target = Target::new(archs::example_arch(regs));
        let sndag = SplitNodeDag::build(dag, &target).unwrap();
        let res = explore(dag, &sndag, &target, &CodegenOptions::heuristics_on());
        for assignment in res.assignments.iter().take(2) {
            let mut graph = CoverGraph::build(dag, &sndag, &target, assignment);
            let mut syms = f.syms.clone();
            let schedule = aviv::cover::cover_sequential(&mut graph, &target, &mut syms)
                .map_err(|e| TestCaseError::fail(format!("sequential: {e}")))?;
            prop_assert_eq!(verify_schedule(&graph, &target, &schedule), []);
            let alloc = allocate(&graph, &target, &schedule)
                .map_err(|e| TestCaseError::fail(format!("alloc: {e}")))?;
            verify_allocation(&graph, &target, &schedule, &alloc)
                .map_err(TestCaseError::fail)?;
        }
    }
}
