//! Human-readable explanation of a compilation result: which units ran
//! what, where the transfers went, what got spilled, and the final
//! schedule — the narrative behind the numbers in [`BlockReport`].
//!
//! [`BlockReport`]: crate::codegen::BlockReport

use crate::codegen::BlockResult;
use crate::covergraph::{CnKind, CoverGraph, Operand, Resource};
use aviv_ir::SymbolTable;
use aviv_isdl::Target;
use std::fmt::Write as _;

impl BlockResult {
    /// Render a step-by-step explanation of the compiled block.
    pub fn explain(&self, target: &Target, syms: &SymbolTable) -> String {
        let mut out = String::new();
        let r = &self.report;
        let _ = writeln!(
            out,
            "block: {} DAG nodes -> {} split-node DAG nodes \
             (assignment space {}, {} enumerated, {} explored, {} pruned by bound)",
            r.orig_nodes,
            r.sndag_nodes,
            r.assignment_space,
            r.assignments_enumerated,
            r.assignments_explored,
            r.search.assignments_pruned
        );
        let _ = writeln!(
            out,
            "result: {} instructions, {} spill(s), peephole removed {}, {:.1} ms",
            r.instructions,
            r.spills,
            r.peephole_removed,
            r.time.as_secs_f64() * 1e3
        );
        for s in &self.schedule.spills {
            let kind = if s.spill.is_some() {
                "spilled to memory"
            } else {
                "rematerialized"
            };
            let _ = writeln!(
                out,
                "  value {} {} (slot `{}`)",
                s.victim,
                kind,
                syms.name(s.slot)
            );
        }
        for (t, step) in self.schedule.steps.iter().enumerate() {
            let items: Vec<String> = step
                .iter()
                .map(|&n| describe_node(&self.graph, target, syms, n))
                .collect();
            let _ = writeln!(out, "  step {t:3}: {}", items.join(" | "));
        }
        out
    }
}

fn describe_node(
    graph: &CoverGraph,
    target: &Target,
    syms: &SymbolTable,
    n: crate::covergraph::CnId,
) -> String {
    let node = graph.node(n);
    match &node.kind {
        CnKind::Op { unit, op, .. } => {
            format!("{}:{}", target.machine.unit(*unit).name, op)
        }
        CnKind::Complex { unit, index, .. } => format!(
            "{}:{}",
            target.machine.unit(*unit).name,
            target.machine.complexes()[*index].name
        ),
        CnKind::Move { from, to, .. } => format!(
            "mov {}->{}",
            target.machine.bank(*from).name,
            target.machine.bank(*to).name
        ),
        CnKind::LoadVar { sym, to, .. } => {
            format!("ld {}->{}", syms.name(*sym), target.machine.bank(*to).name)
        }
        CnKind::StoreVar { sym, .. } => format!("st {}", syms.name(*sym)),
        CnKind::LoadDyn { bank, .. } => {
            format!("ld mem[]->{}", target.machine.bank(*bank).name)
        }
        CnKind::StoreDyn { .. } => "st mem[]".to_string(),
    }
}

/// Graphviz export of a cover graph with its schedule: nodes are grouped
/// by instruction (same-rank clusters), colored by resource.
pub fn covergraph_to_dot(
    graph: &CoverGraph,
    target: &Target,
    syms: &SymbolTable,
    schedule: Option<&crate::cover::Schedule>,
) -> String {
    let mut out = String::from("digraph cover {\n  rankdir=TB;\n  node [fontsize=10];\n");
    let step_of = schedule.map(|s| s.step_of(graph.len()));
    for id in graph.alive() {
        let node = graph.node(id);
        let color = match node.resource() {
            Resource::Unit(_) => "lightblue",
            Resource::Bus(_) => "lightgrey",
        };
        let mut label = describe_node(graph, target, syms, id);
        if let Some(steps) = &step_of {
            if let Some(t) = steps[id.index()] {
                let _ = write!(label, "\\n@{t}");
            }
        }
        let _ = writeln!(
            out,
            "  {id} [label=\"{id}: {label}\", style=filled, fillcolor={color}];"
        );
        for a in &node.args {
            if let Operand::Cn(c) = a {
                let _ = writeln!(out, "  {c} -> {id};");
            }
        }
        for d in &node.deps {
            let _ = writeln!(out, "  {d} -> {id} [style=dashed];");
        }
    }
    out.push_str("}\n");
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{CodeGenerator, CodegenOptions};
    use aviv_ir::{parse_function, MemLayout};
    use aviv_isdl::archs;

    #[test]
    fn explain_mentions_schedule_and_spills() {
        let f = parse_function(
            "func f(a, b, c, d, e, g) {
                t1 = a + b; t2 = c + d; t3 = e + g;
                t4 = t1 * t2; t5 = t4 - t3; out = t5 + t1;
            }",
        )
        .unwrap();
        let gen =
            CodeGenerator::new(archs::example_arch(2)).options(CodegenOptions::heuristics_on());
        let mut syms = f.syms.clone();
        let mut layout = MemLayout::for_function(&f);
        let r = gen
            .compile_block(&f.blocks[0].dag, &mut syms, &mut layout)
            .unwrap();
        let text = r.explain(gen.target(), &syms);
        assert!(text.contains("step"), "{text}");
        assert!(text.contains("instructions"), "{text}");
        // The step count in the explanation matches the report.
        let steps = text.matches("  step").count();
        assert_eq!(steps, r.report.instructions);
    }

    #[test]
    fn dot_export_is_wellformed() {
        let f = parse_function("func f(a, b) { x = a * b + 1; }").unwrap();
        let gen = CodeGenerator::new(archs::example_arch(4));
        let mut syms = f.syms.clone();
        let mut layout = MemLayout::for_function(&f);
        let r = gen
            .compile_block(&f.blocks[0].dag, &mut syms, &mut layout)
            .unwrap();
        let dot = covergraph_to_dot(&r.graph, gen.target(), &syms, Some(&r.schedule));
        assert!(dot.starts_with("digraph cover {"));
        assert_eq!(dot.matches('{').count(), dot.matches('}').count());
        assert!(dot.contains("@0"), "schedule steps annotated\n{dot}");
        for id in r.graph.alive() {
            assert!(dot.contains(&format!("{id} [label=")), "{id} missing");
        }
    }
}
