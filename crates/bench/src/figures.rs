//! Regenerators for the paper's figures.
//!
//! * Fig. 2 — the example basic-block DAG;
//! * Fig. 3 — the example target architecture;
//! * Fig. 4 — the Split-Node DAG of Fig. 2 on Fig. 3's machine;
//! * Fig. 6 — incremental-cost pruning of the assignment search;
//! * Fig. 7 — the pairwise-parallelism matrix of a proposed assignment;
//! * Fig. 8 — the maximal cliques the generator produces for it;
//! * Fig. 9 — load/spill insertion under register pressure.

use aviv::assign::{explore_traced, ExploreTrace};
use aviv::cliques::{gen_max_cliques, ParallelismMatrix};
use aviv::covergraph::CoverGraph;
use aviv::{CodeGenerator, CodegenOptions};
use aviv_ir::{parse_function, Function, MemLayout};
use aviv_isdl::{archs, Target};
use aviv_splitdag::SplitNodeDag;
use std::fmt::Write as _;

/// The worked example of §IV-A: Fig. 2's block feeding a COMPL sink that
/// only U1 implements.
pub const WORKED_EXAMPLE_SRC: &str = "func worked(a, b, d, e) {
    out = ~((d * e) - (a + b));
}";

fn worked_example() -> (Function, Target, SplitNodeDag) {
    let f = parse_function(WORKED_EXAMPLE_SRC).expect("bundled source parses");
    let target = Target::new(archs::example_arch(4));
    let sndag = SplitNodeDag::build(&f.blocks[0].dag, &target).expect("supported");
    (f, target, sndag)
}

/// Fig. 2: the example basic-block DAG.
pub fn fig2() -> String {
    let (f, _, _) = worked_example();
    let mut out = String::from("Figure 2: example basic block DAG\n");
    out.push_str(&f.blocks[0].dag.render(&f.syms));
    out
}

/// Fig. 3: the example target architecture.
pub fn fig3() -> String {
    let mut out = String::from("Figure 3: example target architecture\n");
    out.push_str(&archs::example_arch(4).describe());
    out
}

/// Fig. 4: the Split-Node DAG with its statistics.
pub fn fig4() -> String {
    let (f, target, sndag) = worked_example();
    let stats = sndag.stats(&f.blocks[0].dag);
    let mut out = String::from("Figure 4: Split-Node DAG of the Fig. 2 block\n");
    let _ = writeln!(
        out,
        "orig nodes {}, split-node DAG nodes {}, assignment space {}",
        stats.orig_nodes, stats.sn_nodes, stats.assignment_space
    );
    out.push_str(&sndag.render(&f.blocks[0].dag, &target));
    out
}

/// Fig. 6: the incremental costs probed during assignment exploration,
/// with pruning decisions.
pub fn fig6() -> String {
    let (f, target, sndag) = worked_example();
    let mut trace = ExploreTrace::default();
    let mut options = CodegenOptions::heuristics_on();
    // The paper's figure uses prune-to-minimum.
    options.prune_slack = 0;
    let _ = explore_traced(
        &f.blocks[0].dag,
        &sndag,
        &target,
        &options,
        Some(&mut trace),
    );
    let mut out = String::from(
        "Figure 6: incremental costs during split-node assignment search\n\
         (X marks pruned branches, as in the paper)\n",
    );
    for e in &trace.entries {
        let dag = &f.blocks[0].dag;
        let opname = dag.node(e.node).op.mnemonic();
        let _ = writeln!(
            out,
            "  {:>6} {:<12} cost {}{}",
            opname,
            e.desc,
            e.incremental_cost,
            if e.pruned { "   X" } else { "" }
        );
    }
    out
}

/// Fig. 7 and the Fig. 8 output: the pairwise-parallelism matrix of the
/// best assignment's cover graph and its maximal cliques.
pub fn fig7_fig8() -> String {
    let (f, target, sndag) = worked_example();
    let dag = &f.blocks[0].dag;
    let res = aviv::assign::explore(dag, &sndag, &target, &CodegenOptions::heuristics_on());
    let graph = CoverGraph::build(dag, &sndag, &target, &res.assignments[0]);
    let nodes: Vec<_> = graph.alive().collect();
    let matrix = ParallelismMatrix::build(&graph, &target, &nodes, None);
    let mut out =
        String::from("Figure 7: pairwise parallelism matrix (1 = cannot execute in parallel)\n");
    out.push_str(&matrix.render());
    out.push_str("\nFigure 8 output: maximal cliques of the compatibility graph\n");
    for (i, c) in gen_max_cliques(&matrix).iter().enumerate() {
        let members: Vec<String> = c.iter().map(|k| matrix.ids[k].to_string()).collect();
        let _ = writeln!(out, "  C{}: {{{}}}", i + 1, members.join(", "));
    }
    out
}

/// Fig. 9: load/spill insertion. Compiles a register-starved block and
/// reports the spill record (slot, victim, inserted loads, removed
/// transfers).
pub fn fig9() -> String {
    let src = "func pressure(a, b, c, d, e, g) {
        t1 = a + b;
        t2 = c + d;
        t3 = e + g;
        t4 = t1 * t2;
        t5 = t4 - t3;
        out = t5 + t1;
    }";
    let f = parse_function(src).expect("bundled source parses");
    let mut options = CodegenOptions::heuristics_on();
    options.peephole = false; // show the raw insertion
    let gen = CodeGenerator::new(archs::example_arch(2)).options(options);
    let mut syms = f.syms.clone();
    let mut layout = MemLayout::for_function(&f);
    let r = gen
        .compile_block(&f.blocks[0].dag, &mut syms, &mut layout)
        .expect("compiles with spills");
    let mut out = String::from("Figure 9: inserting loads and spills into the Split-Node DAG\n");
    let _ = writeln!(
        out,
        "block needs {} instructions with 2 regs/file; {} spill(s):",
        r.report.instructions,
        r.schedule.spills.len()
    );
    for s in &r.schedule.spills {
        let spill_desc = s
            .spill
            .map_or("rematerialized".to_string(), |c| format!("spill node {c}"));
        let _ = writeln!(
            out,
            "  spill of {} to slot `{}`: {}, {} helper node(s)",
            s.victim,
            syms.name(s.slot),
            spill_desc,
            s.nodes.len()
        );
    }
    out
}

/// All figures concatenated (the `figures` binary prints this).
pub fn all_figures() -> String {
    [fig2(), fig3(), fig4(), fig6(), fig7_fig8(), fig9()].join("\n")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fig6_matches_the_papers_worked_costs() {
        let text = fig6();
        // SUB on U1 costs 0; SUB on U2 costs 1 and is pruned.
        assert!(text.contains("sub"));
        let sub_lines: Vec<&str> = text.lines().filter(|l| l.contains("sub ")).collect();
        assert!(sub_lines.iter().any(|l| l.contains("cost 0")));
        assert!(sub_lines
            .iter()
            .any(|l| l.contains("cost 1") && l.contains("X")));
        // ADD on U1 costs 2 in some branch; ADD on U2 costs 4.
        let add_lines: Vec<&str> = text.lines().filter(|l| l.contains("add ")).collect();
        assert!(add_lines.iter().any(|l| l.contains("cost 2")));
        assert!(add_lines.iter().any(|l| l.contains("cost 4")));
    }

    #[test]
    fn fig7_matrix_square_and_cliques_cover() {
        let text = fig7_fig8();
        assert!(text.contains("C1:"));
        assert!(text.contains("matrix"));
    }

    #[test]
    fn fig9_reports_spills() {
        let text = fig9();
        assert!(text.contains("spill"), "{text}");
        assert!(text.contains("__spill"), "{text}");
    }

    #[test]
    fn all_figures_nonempty() {
        let text = all_figures();
        for frag in [
            "Figure 2", "Figure 3", "Figure 4", "Figure 6", "Figure 7", "Figure 9",
        ] {
            assert!(text.contains(frag), "missing {frag}");
        }
    }
}
