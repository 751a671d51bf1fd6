//! Plan-cache correctness: warm compiles must be byte-identical to cold
//! ones at every worker count, hit accounting must be exact, and a
//! single-block edit must invalidate exactly that block.
//!
//! The cache key is `(block content hash, target fingerprint, options
//! fingerprint)` — see `aviv::cache` — so the properties here are really
//! properties of the three fingerprints: stability across re-parses,
//! insensitivity to non-planning options, sensitivity to real changes.

use aviv::{CodeGenerator, CodegenOptions, PlanCache};
use aviv_ir::randdag::{random_function, RandDagConfig};
use aviv_ir::{parse_function, to_source, Function, Op};
use aviv_isdl::{parse_machine, Machine};
use proptest::prelude::*;
use std::fs;
use std::path::{Path, PathBuf};
use std::sync::Arc;

fn assets_dir() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("../../assets")
}

fn load_machine(name: &str) -> Machine {
    let src = fs::read_to_string(assets_dir().join(name)).unwrap();
    parse_machine(&src).unwrap()
}

fn load_function(name: &str) -> Function {
    let src = fs::read_to_string(assets_dir().join(name)).unwrap();
    parse_function(&src).unwrap()
}

fn rand_function(seed: u64, n_blocks: usize) -> Function {
    let cfg = RandDagConfig {
        n_ops: 8,
        n_inputs: 3,
        n_outputs: 2,
        ..Default::default()
    };
    random_function(&cfg, n_blocks, seed)
}

/// Compile with an explicit cache and worker count; returns the rendering
/// plus (hits, misses).
fn compile_cached(
    f: &Function,
    machine: Machine,
    cache: &Arc<PlanCache>,
    jobs: usize,
) -> (String, usize, usize) {
    let gen = CodeGenerator::new(machine)
        .options(CodegenOptions::default().with_jobs(jobs))
        .with_cache(Arc::clone(cache));
    let (program, report) = gen.compile_function(f).expect("compiles");
    (
        program.render(gen.target()),
        report.cache_hits,
        report.cache_misses,
    )
}

#[test]
fn warm_compile_is_all_hits_and_byte_identical_for_assets() {
    for (prog, mach) in [
        ("sum_loop.av", "fig3.isdl"),
        ("dot4.av", "fig3.isdl"),
        ("sum_loop.av", "archII.isdl"),
    ] {
        let f = load_function(prog);
        let n_blocks = f.blocks.len();
        let cache = Arc::new(PlanCache::new(1024));

        // Uncached reference.
        let gen = CodeGenerator::new(load_machine(mach));
        let (reference, report) = gen.compile_function(&f).expect("compiles");
        let reference = reference.render(gen.target());
        assert_eq!(report.cache_hits + report.cache_misses, 0);

        let (cold, hits, misses) = compile_cached(&f, load_machine(mach), &cache, 1);
        assert_eq!(cold, reference, "{prog}/{mach}: cold != uncached");
        assert_eq!((hits, misses), (0, n_blocks));

        // Warm, at several worker counts: all hits, identical bytes.
        for jobs in [1, 4, 0] {
            let (warm, hits, misses) = compile_cached(&f, load_machine(mach), &cache, jobs);
            assert_eq!(warm, reference, "{prog}/{mach}: warm jobs={jobs} differs");
            assert_eq!(
                (hits, misses),
                (n_blocks, 0),
                "{prog}/{mach}: warm jobs={jobs} not 100% hits"
            );
        }
    }
}

#[test]
fn cache_reports_surface_in_block_reports() {
    let f = load_function("sum_loop.av");
    let cache = Arc::new(PlanCache::new(64));
    let gen = CodeGenerator::new(load_machine("fig3.isdl")).with_cache(Arc::clone(&cache));
    let (_, cold) = gen.compile_function(&f).expect("compiles");
    assert!(cold.blocks.iter().all(|b| !b.cached));
    let (_, warm) = gen.compile_function(&f).expect("compiles");
    assert!(warm.blocks.iter().all(|b| b.cached));
    assert_eq!(warm.cache_hits, warm.blocks.len());
    let stats = cache.stats();
    assert_eq!(stats.hits as usize, warm.blocks.len());
    assert_eq!(stats.misses as usize, cold.blocks.len());
}

#[test]
fn same_source_reparsed_hits_the_cache() {
    // The serving path: clients send program text; every request is a
    // fresh parse. Hashes must not depend on parse identity.
    let src = fs::read_to_string(assets_dir().join("dot4.av")).unwrap();
    let cache = Arc::new(PlanCache::new(64));
    let f1 = parse_function(&src).unwrap();
    let f2 = parse_function(&src).unwrap();
    let (cold, _, _) = compile_cached(&f1, load_machine("fig3.isdl"), &cache, 1);
    let (warm, hits, misses) = compile_cached(&f2, load_machine("fig3.isdl"), &cache, 1);
    assert_eq!(cold, warm);
    assert_eq!(misses, 0);
    assert_eq!(hits, f2.blocks.len());
}

#[test]
fn different_targets_and_options_do_not_alias() {
    let f = load_function("sum_loop.av");
    let cache = Arc::new(PlanCache::new(256));
    let (_, _, m1) = compile_cached(&f, load_machine("fig3.isdl"), &cache, 1);
    assert_eq!(m1, f.blocks.len());
    // Different machine: all misses, not poisoned by fig3's plans.
    let (_, h2, m2) = compile_cached(&f, load_machine("archII.isdl"), &cache, 1);
    assert_eq!((h2, m2), (0, f.blocks.len()));
    // Different planning options: all misses again.
    let gen = CodeGenerator::new(load_machine("fig3.isdl"))
        .options(CodegenOptions::thorough())
        .with_cache(Arc::clone(&cache));
    let (_, report) = gen.compile_function(&f).expect("compiles");
    assert_eq!(report.cache_hits, 0);
}

#[test]
fn budget_and_parallelism_options_share_entries() {
    let f = load_function("sum_loop.av");
    let cache = Arc::new(PlanCache::new(256));
    let gen = CodeGenerator::new(load_machine("fig3.isdl")).with_cache(Arc::clone(&cache));
    let (cold_program, _) = gen.compile_function(&f).expect("compiles");
    let cold = cold_program.render(gen.target());

    // Generous budgets and different worker counts must serve from the
    // same entries with identical bytes: budgets decide *whether* a plan
    // degrades, and these don't.
    let warm_gen = CodeGenerator::new(load_machine("fig3.isdl"))
        .options(
            CodegenOptions::default()
                .with_jobs(4)
                .with_fuel(Some(u64::MAX / 4))
                .with_deadline_ms(Some(60_000)),
        )
        .with_cache(Arc::clone(&cache));
    let (warm_program, report) = warm_gen.compile_function(&f).expect("compiles");
    assert_eq!(report.cache_hits, f.blocks.len());
    assert_eq!(warm_program.render(warm_gen.target()), cold);
}

#[test]
fn degraded_plans_are_never_cached() {
    // Fuel tight enough to force blocks off the first rung: nothing
    // degraded may be inserted, so a rerun must replan those blocks.
    let cfg = RandDagConfig {
        n_ops: 8,
        n_inputs: 3,
        n_outputs: 2,
        ops: vec![Op::Add, Op::Sub, Op::Mul],
        ..Default::default()
    };
    let f = random_function(&cfg, 3, 1);
    let machine = aviv_isdl::archs::example_arch(3);
    let cache = Arc::new(PlanCache::new(256));
    let gen = CodeGenerator::new(machine)
        .options(CodegenOptions::default().with_fuel(Some(40)))
        .with_cache(Arc::clone(&cache));
    let (_, first) = gen.compile_function(&f).expect("compiles degraded");
    assert!(
        !first.downgrades.is_empty(),
        "fuel too generous for the test"
    );
    let (_, second) = gen.compile_function(&f).expect("compiles degraded");
    let incomplete = second.blocks.iter().filter(|b| !b.complete).count();
    let hit_incomplete = second.blocks.iter().filter(|b| !b.complete && b.cached);
    assert!(incomplete > 0);
    assert_eq!(hit_incomplete.count(), 0, "a degraded plan was cached");
}

#[test]
fn fault_injection_bypasses_the_cache() {
    let f = load_function("sum_loop.av");
    let cache = Arc::new(PlanCache::new(256));
    let faults = aviv::FaultConfig {
        seed: 7,
        rate: 1,
        stage: Some(aviv::Stage::Cover),
        kind: Some(aviv::FaultKind::Panic),
    };
    let gen = CodeGenerator::new(load_machine("fig3.isdl"))
        .options(CodegenOptions::default().with_faults(Some(faults)))
        .with_cache(Arc::clone(&cache));
    let (_, report) = gen.compile_function(&f).expect("faults degrade, not fail");
    assert_eq!(report.cache_hits + report.cache_misses, 0);
    assert!(cache.is_empty(), "fault-injected plans reached the cache");
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// Re-parse stability, generalized: hash keys come from parsing, so
    /// printing a random function and parsing it twice must hit.
    #[test]
    fn prop_reparsed_source_always_hits(seed in 0u64..5_000, n_blocks in 2usize..6) {
        let src = to_source(&rand_function(seed, n_blocks));
        let f1 = parse_function(&src).unwrap();
        let f2 = parse_function(&src).unwrap();
        let machine = aviv_isdl::archs::example_arch(4);
        let cache = Arc::new(PlanCache::new(1024));
        let gen1 = CodeGenerator::new(machine.clone()).with_cache(Arc::clone(&cache));
        let gen2 = CodeGenerator::new(machine).with_cache(Arc::clone(&cache));
        match (gen1.compile_function(&f1), gen2.compile_function(&f2)) {
            (Ok((p1, _)), Ok((p2, r2))) => {
                prop_assert_eq!(
                    p1.render(gen1.target()),
                    p2.render(gen2.target())
                );
                prop_assert_eq!(r2.cache_misses, 0, "re-parse missed the cache");
            }
            (Err(_), Err(_)) => {}
            (a, b) => {
                return Err(TestCaseError::fail(format!(
                    "parse 1 ok = {}, parse 2 ok = {}", a.is_ok(), b.is_ok()
                )));
            }
        }
    }

    /// Editing one block's constant invalidates exactly that block: the
    /// recompile hits every other block and misses only the edited one.
    #[test]
    fn prop_single_block_edit_invalidates_exactly_that_block(
        seed in 0u64..5_000,
        n_blocks in 2usize..6,
    ) {
        let f = rand_function(seed, n_blocks);
        let machine = aviv_isdl::archs::example_arch(4);
        let cache = Arc::new(PlanCache::new(1024));
        let gen = CodeGenerator::new(machine).with_cache(Arc::clone(&cache));
        let Ok((_, cold)) = gen.compile_function(&f) else {
            return Ok(()); // machine can't implement this function
        };
        prop_assume!(cold.complete); // degraded plans are never cached

        // Pick a block with a Const node and retag it to a value that
        // cannot collide with an existing node (keeps the edit semantic).
        let victim = (seed as usize) % n_blocks;
        let mut edited = f.clone();
        let dag = &mut edited.blocks[victim].dag;
        let Some(id) = dag.iter().find(|(_, n)| n.op == Op::Const).map(|(id, _)| id) else {
            return Ok(()); // no constant to edit in this block
        };
        prop_assert!(dag.set_const_value(id, 987_654));

        let (_, warm) = gen.compile_function(&edited).expect("edited compiles");
        prop_assert_eq!(warm.cache_misses, 1, "exactly the edited block misses");
        prop_assert_eq!(warm.cache_hits, n_blocks - 1);
        let miss_block = warm.blocks.iter().position(|b| !b.cached);
        prop_assert_eq!(miss_block, Some(victim));
    }

    /// Warm serving is byte-identical across worker counts — the cache
    /// must not perturb the determinism contract.
    #[test]
    fn prop_warm_compiles_identical_at_any_jobs(seed in 0u64..5_000, n_blocks in 2usize..6) {
        let f = rand_function(seed, n_blocks);
        let machine = aviv_isdl::archs::example_arch(4);
        let cache = Arc::new(PlanCache::new(1024));
        let no_cache = CodeGenerator::new(machine.clone());
        let Ok((reference, _)) = no_cache.compile_function(&f) else {
            return Ok(());
        };
        let reference = reference.render(no_cache.target());
        for jobs in [1usize, 4, 0] {
            let (text, _, _) = compile_cached(&f, machine.clone(), &cache, jobs);
            prop_assert_eq!(&text, &reference, "jobs={} differs", jobs);
        }
    }
}

/// Block X spills on a two-register Example machine and names only
/// parameters, so it hashes alike in every function declaring the same
/// parameters.
const SPILLING_X: &str = "p0 = (p1 + p2) * (p3 + p4) - (p5 + p6) * (p7 + p1);";

#[test]
fn resident_plans_are_shared_and_never_mutated() {
    let params = "p0, p1, p2, p3, p4, p5, p6, p7";
    // In `alone`, X's spill slot is the first id past the parameters. In
    // `after`, a spilling block Y takes that id first (and the label
    // another), so the cached plan of X must be rebased on emission.
    let alone = parse_function(&format!("func alone({params}) {{ {SPILLING_X} }}")).unwrap();
    let after = parse_function(&format!(
        "func after({params}) {{
            p6 = (p2 - p3) * (p4 - p5) + (p1 - p7) * (p0 - p2);
        x:
            {SPILLING_X}
        }}"
    ))
    .unwrap();
    let machine = aviv_isdl::archs::example_arch(2);
    let options = CodegenOptions::default().with_jobs(1);
    let cache = Arc::new(PlanCache::new(64));
    let gen = CodeGenerator::new(machine)
        .options(options.clone())
        .with_cache(Arc::clone(&cache));
    let cold_gen = CodeGenerator::with_shared_target(gen.shared_target()).options(options.clone());
    let (cold, cold_report) = cold_gen.compile_function(&after).expect("compiles");
    let cold = cold.render(gen.target());
    assert!(
        cold_report.blocks.iter().all(|b| b.spills > 0),
        "both blocks must spill"
    );

    gen.compile_function(&alone).expect("compiles");
    let key = aviv::CacheKey {
        block: aviv_ir::block_dag_hash(&alone.blocks[0].dag, &alone.syms),
        target: gen.target().fingerprint(),
        options: options.planning_fingerprint(),
    };
    let (resident, _) = cache.lookup_flagged(&key).expect("X was cached");
    assert!(!resident.appended_syms().is_empty());
    let pristine = aviv::persist::encode_snapshot(&[(key, Arc::clone(&resident))]);

    let (warm, report) = gen.compile_function(&after).expect("compiles");
    assert!(!report.blocks[0].cached && report.blocks[1].cached);
    assert_eq!(
        warm.render(gen.target()),
        cold,
        "a rebased hit changed the bytes"
    );

    let (again, _) = cache.lookup_flagged(&key).expect("X is still cached");
    assert!(
        Arc::ptr_eq(&resident, &again),
        "a hit copied the resident plan"
    );
    assert_eq!(
        aviv::persist::encode_snapshot(&[(key, again)]),
        pristine,
        "emission changed the resident plan"
    );

    // The resident plans survive a snapshot save and restore.
    let path = std::env::temp_dir().join(format!(
        "aviv_shared_plans_{}.avivcache",
        std::process::id()
    ));
    assert_eq!(aviv::save_snapshot(&path, &cache).unwrap(), cache.len());
    let restored = Arc::new(PlanCache::new(64));
    aviv::load_snapshot(&path, &restored).unwrap();
    let _ = fs::remove_file(&path);
    let restored_gen = CodeGenerator::with_shared_target(gen.shared_target())
        .options(options)
        .with_cache(restored);
    let (replayed, report) = restored_gen.compile_function(&after).expect("compiles");
    assert_eq!(report.restored_hits, 2);
    assert_eq!(replayed.render(gen.target()), cold);
}
