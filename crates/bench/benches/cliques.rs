//! Maximal-clique generation cost (§IV-C.2: "Generating all of the
//! maximal cliques is the most time consuming portion of our algorithm"),
//! with and without the level-window heuristic that the paper introduces
//! to tame it.

use aviv::assign::explore;
use aviv::cliques::{gen_max_cliques, legalize, ParallelismMatrix};
use aviv::covergraph::CoverGraph;
use aviv::CodegenOptions;
use aviv_bench::compare::example_arch_rand_config;
use aviv_ir::randdag::random_block;
use aviv_isdl::{archs, Target};
use aviv_splitdag::SplitNodeDag;
use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use std::hint::black_box;

fn graph_for(n_ops: usize, seed: u64) -> (CoverGraph, Target) {
    let cfg = example_arch_rand_config(n_ops);
    let f = random_block(&cfg, seed);
    let dag = &f.blocks[0].dag;
    let target = Target::new(archs::example_arch(4));
    let sndag = SplitNodeDag::build(dag, &target).unwrap();
    let res = explore(dag, &sndag, &target, &CodegenOptions::heuristics_on());
    let graph = CoverGraph::build(dag, &sndag, &target, &res.assignments[0]);
    (graph, target)
}

fn bench_clique_generation(c: &mut Criterion) {
    let mut group = c.benchmark_group("gen_max_cliques");
    for n_ops in [8usize, 12, 16, 20] {
        let (graph, target) = graph_for(n_ops, 11);
        let nodes: Vec<_> = graph.alive().collect();
        for (tag, window) in [("window2", Some(2u32)), ("no_window", None)] {
            let matrix = ParallelismMatrix::build(&graph, &target, &nodes, window);
            group.bench_with_input(BenchmarkId::new(tag, n_ops), &matrix, |b, matrix| {
                b.iter(|| black_box(gen_max_cliques(matrix).len()));
            });
        }
    }
    group.finish();
}

fn bench_legalize(c: &mut Criterion) {
    let (graph, target) = graph_for(16, 11);
    let nodes: Vec<_> = graph.alive().collect();
    let matrix = ParallelismMatrix::build(&graph, &target, &nodes, Some(2));
    let cliques = gen_max_cliques(&matrix);
    c.bench_function("legalize_16ops", |b| {
        b.iter(|| black_box(legalize(cliques.clone(), &matrix, &graph, &target).len()));
    });
}

criterion_group!(benches, bench_clique_generation, bench_legalize);
criterion_main!(benches);
