//! Focused tests of individual engine components: clique generation on
//! concrete graphs, constraint legalization, allocation behavior,
//! sequential fallback, emission text, and option toggles.

use aviv::assign::explore;
use aviv::cliques::{gen_max_cliques, is_legal, legalize, ParallelismMatrix};
use aviv::cover::{cover, cover_sequential};
use aviv::covergraph::{CnKind, CoverGraph, Resource};
use aviv::regalloc::{allocate, verify_allocation};
use aviv::{verify_schedule, CodeGenerator, CodegenOptions};
use aviv_ir::{parse_function, MemLayout, Op};
use aviv_isdl::{archs, MachineBuilder, SlotPattern, Target};
use aviv_splitdag::SplitNodeDag;

fn build_graph(
    src: &str,
    machine: aviv_isdl::Machine,
) -> (aviv_ir::Function, Target, SplitNodeDag, CoverGraph) {
    let f = parse_function(src).unwrap();
    let target = Target::new(machine);
    let sndag = SplitNodeDag::build(&f.blocks[0].dag, &target).unwrap();
    let res = explore(
        &f.blocks[0].dag,
        &sndag,
        &target,
        &CodegenOptions::heuristics_on(),
    );
    let graph = CoverGraph::build(&f.blocks[0].dag, &sndag, &target, &res.assignments[0]);
    (f, target, sndag, graph)
}

#[test]
fn matrix_conflicts_reflect_units_buses_and_paths() {
    let (_, target, _, graph) = build_graph(
        "func f(a, b, d, e) { out = (d * e) - (a + b); }",
        archs::example_arch(4),
    );
    let nodes: Vec<_> = graph.alive().collect();
    let m = ParallelismMatrix::build(&graph, &target, &nodes, None);
    for i in 0..m.len() {
        for j in 0..m.len() {
            if i == j {
                continue;
            }
            let (a, b) = (m.ids[i], m.ids[j]);
            let expect_conflict = graph.dependent(a, b)
                || match (graph.node(a).resource(), graph.node(b).resource()) {
                    (Resource::Unit(x), Resource::Unit(y)) => x == y,
                    (Resource::Bus(x), Resource::Bus(y)) => {
                        x == y && target.machine.bus(x).capacity == 1
                    }
                    _ => false,
                };
            assert_eq!(!m.compatible(i, j), expect_conflict, "{a} vs {b}");
        }
    }
}

#[test]
fn level_window_only_removes_pairs() {
    let (_, target, _, graph) = build_graph(
        "func f(a, b, c, d) { x = (a + b) * (c - d); y = x + a; }",
        archs::example_arch(4),
    );
    let nodes: Vec<_> = graph.alive().collect();
    let free = ParallelismMatrix::build(&graph, &target, &nodes, None);
    let windowed = ParallelismMatrix::build(&graph, &target, &nodes, Some(1));
    let mut free_pairs = 0;
    let mut windowed_pairs = 0;
    for i in 0..nodes.len() {
        for j in (i + 1)..nodes.len() {
            if free.compatible(i, j) {
                free_pairs += 1;
            }
            if windowed.compatible(i, j) {
                windowed_pairs += 1;
                assert!(free.compatible(i, j), "window may only remove pairs");
            }
        }
    }
    assert!(windowed_pairs <= free_pairs);
    // And the windowed matrix generates no more cliques.
    assert!(gen_max_cliques(&windowed).len() <= gen_max_cliques(&free).len() * 2);
}

#[test]
fn legalize_enforces_isdl_constraints() {
    // A machine where U1 and U2 must not both multiply in one cycle.
    let mut b = MachineBuilder::new("C");
    let u1 = b.unit("U1", &[Op::Mul, Op::Add], 4);
    let u2 = b.unit("U2", &[Op::Mul, Op::Add], 4);
    b.bus("DB", &[u1, u2], true, 2);
    b.constraint(
        1,
        vec![
            SlotPattern::UnitOp {
                unit: u1,
                op: Some(Op::Mul),
            },
            SlotPattern::UnitOp {
                unit: u2,
                op: Some(Op::Mul),
            },
        ],
    );
    let machine = b.build().unwrap();
    let (_, target, _, graph) = build_graph(
        "func f(a, b, c, d) { x = a * b; y = c * d; out = x + y; }",
        machine,
    );
    let nodes: Vec<_> = graph.alive().collect();
    let m = ParallelismMatrix::build(&graph, &target, &nodes, None);
    let raw = gen_max_cliques(&m);
    let legal = legalize(raw, &m, &graph, &target);
    for c in &legal {
        assert!(is_legal(c, &m, &graph, &target));
        // Count muls per clique across units.
        let muls = c
            .iter()
            .filter(|&i| matches!(graph.node(m.ids[i]).kind, CnKind::Op { op: Op::Mul, .. }))
            .count();
        assert!(muls <= 1, "constraint allows at most one mul per cycle");
    }
    // Coverage survives legalization.
    let mut covered = vec![false; nodes.len()];
    for c in &legal {
        for i in c.iter() {
            covered[i] = true;
        }
    }
    assert!(covered.iter().all(|&c| c));

    // The constraint shows in final schedules too.
    let f = parse_function("func f(a, b, c, d) { x = a * b; y = c * d; out = x + y; }").unwrap();
    let gen = CodeGenerator::with_target(target.clone());
    let mut syms = f.syms.clone();
    let mut layout = MemLayout::for_function(&f);
    let r = gen
        .compile_block(&f.blocks[0].dag, &mut syms, &mut layout)
        .unwrap();
    for inst in &r.instructions {
        let muls = inst
            .slots
            .iter()
            .flatten()
            .filter(|s| matches!(s.opcode, aviv::SlotOpcode::Basic(Op::Mul)))
            .count();
        assert!(muls <= 1);
    }
}

#[test]
fn allocation_reuses_registers() {
    // A long chain: values die quickly, so the allocator should cycle
    // through very few registers even though many values exist.
    let src = "func f(a) {
        x1 = a + 1; x2 = x1 + 1; x3 = x2 + 1; x4 = x3 + 1;
        x5 = x4 + 1; x6 = x5 + 1; out = x6 + 1;
    }";
    let (f, target, _, mut graph) = build_graph(src, archs::example_arch(4));
    let mut syms = f.syms.clone();
    let schedule = cover(
        &mut graph,
        &target,
        &mut syms,
        &CodegenOptions::heuristics_on(),
    )
    .unwrap();
    let alloc = allocate(&graph, &target, &schedule).unwrap();
    verify_allocation(&graph, &target, &schedule, &alloc).unwrap();
    // Distinct registers used in the busiest bank stays small (chain
    // liveness is 1-2).
    let mut used: std::collections::HashSet<aviv::Reg> = Default::default();
    for id in graph.alive() {
        if let Some(r) = alloc.get(id) {
            used.insert(r);
        }
    }
    assert!(used.len() <= 6, "used {} registers for a chain", used.len());
}

#[test]
fn sequential_fallback_matches_interpreter_costs() {
    let src = "func f(a, b, c) { t = a + b; u = t * c; v = u - t; out = v; }";
    let (f, target, sndag, _) = build_graph(src, archs::example_arch(4));
    let res = explore(
        &f.blocks[0].dag,
        &sndag,
        &target,
        &CodegenOptions::heuristics_on(),
    );
    // Sequential covering is valid but longer than concurrent covering.
    let mut g1 = CoverGraph::build(&f.blocks[0].dag, &sndag, &target, &res.assignments[0]);
    let mut syms1 = f.syms.clone();
    let concurrent = cover(
        &mut g1,
        &target,
        &mut syms1,
        &CodegenOptions::heuristics_on(),
    )
    .unwrap();
    let mut g2 = CoverGraph::build(&f.blocks[0].dag, &sndag, &target, &res.assignments[0]);
    let mut syms2 = f.syms.clone();
    let sequential = cover_sequential(&mut g2, &target, &mut syms2).unwrap();
    assert_eq!(verify_schedule(&g2, &target, &sequential), []);
    assert!(
        concurrent.len() <= sequential.len(),
        "concurrent {} > sequential {}",
        concurrent.len(),
        sequential.len()
    );
    // One node per step in sequential mode.
    for step in &sequential.steps {
        assert_eq!(step.len(), 1);
    }
}

#[test]
fn options_toggles_change_work_not_correctness() {
    let src = "func f(a, b, c, d) { x = (a + b) * (c + d); y = x - a; out = y; }";
    let f = parse_function(src).unwrap();
    for (label, opts) in [
        ("no_lookahead", {
            let mut o = CodegenOptions::heuristics_on();
            o.lookahead = false;
            o
        }),
        ("no_peephole", {
            let mut o = CodegenOptions::heuristics_on();
            o.peephole = false;
            o
        }),
        ("no_window", {
            let mut o = CodegenOptions::heuristics_on();
            o.clique_level_window = None;
            o
        }),
        ("pressure_aware", {
            let mut o = CodegenOptions::heuristics_on();
            o.pressure_aware_assignment = true;
            o
        }),
    ] {
        let gen = CodeGenerator::new(archs::example_arch(4)).options(opts);
        let mut syms = f.syms.clone();
        let mut layout = MemLayout::for_function(&f);
        let r = gen
            .compile_block(&f.blocks[0].dag, &mut syms, &mut layout)
            .unwrap_or_else(|e| panic!("{label}: {e}"));
        assert_eq!(
            verify_schedule(&r.graph, gen.target(), &r.schedule),
            [],
            "{label}"
        );
    }
}

#[test]
fn emitted_assembly_mentions_machine_resources() {
    let f = parse_function("func f(a, b) { x = a * b + 1; return x; }").unwrap();
    let gen = CodeGenerator::new(archs::example_arch(4));
    let (program, _) = gen.compile_function(&f).unwrap();
    let asm = program.render(gen.target());
    assert!(asm.contains("DB:"), "bus transfers shown\n{asm}");
    assert!(asm.contains("ret"), "return shown\n{asm}");
    assert!(
        asm.contains(";a") || asm.contains("[0]"),
        "loads annotated\n{asm}"
    );
}

#[test]
fn schedule_step_of_inverts_steps() {
    let (f, target, _, mut graph) = build_graph(
        "func f(a, b) { x = a + b; y = x * 2; }",
        archs::example_arch(4),
    );
    let mut syms = f.syms.clone();
    let schedule = cover(
        &mut graph,
        &target,
        &mut syms,
        &CodegenOptions::heuristics_on(),
    )
    .unwrap();
    let step_of = schedule.step_of(graph.len());
    for (t, step) in schedule.steps.iter().enumerate() {
        for &n in step {
            assert_eq!(step_of[n.index()], Some(t));
        }
    }
}
