//! Human-readable explanation of a compilation result: which units ran
//! what, where the transfers went, what got spilled, and the final
//! schedule — the narrative behind the numbers in [`BlockReport`] — and
//! its Graphviz drawing. Both read a cover graph, its schedule and symbol
//! names, so a [`BlockResult`] and a compile's
//! [`plans`](crate::CompileReport::plans) feed the same code.

use crate::codegen::{BlockReport, BlockResult};
use crate::cover::Schedule;
use crate::covergraph::{CnKind, CoverGraph, Operand, Resource};
use crate::emit::VliwProgram;
use aviv_ir::{Sym, SymbolTable};
use aviv_isdl::Target;
use std::fmt::Write as _;

/// Symbol names by id, as the explanation and the drawing print them.
pub trait SymbolNames {
    /// The name of `sym`.
    fn sym_name(&self, sym: Sym) -> &str;
}

impl SymbolNames for SymbolTable {
    fn sym_name(&self, sym: Sym) -> &str {
        self.name(sym)
    }
}

/// A compiled program's [`var_addrs`](VliwProgram::var_addrs) list every
/// symbol of its function, spill slots included, in id order.
impl SymbolNames for VliwProgram {
    fn sym_name(&self, sym: Sym) -> &str {
        &self.var_addrs[sym.index()].0
    }
}

impl BlockResult {
    /// Render a step-by-step explanation of the compiled block.
    pub fn explain(&self, target: &Target, syms: &SymbolTable) -> String {
        explain_block(&self.graph, &self.schedule, &self.report, target, syms)
    }
}

/// Render a step-by-step explanation of a compiled block: its sizes and
/// [`BlockReport`] counts, each spill, and the schedule one instruction
/// per line. Its "P pruned by bound" count is
/// [`crate::SearchStats::assignments_pruned`]: the assignments skipped
/// because their lower bound reached the best length so far, relabelled
/// twins of a spill-free cover included (`bound.rs`, "The exact twin
/// bound").
pub fn explain_block(
    graph: &CoverGraph,
    schedule: &Schedule,
    report: &BlockReport,
    target: &Target,
    syms: &(impl SymbolNames + ?Sized),
) -> String {
    let mut out = String::new();
    let _ = writeln!(
        out,
        "block: {} DAG nodes -> {} split-node DAG nodes \
         (assignment space {}, {} enumerated, {} explored, {} pruned by bound)",
        report.orig_nodes,
        report.sndag_nodes,
        report.assignment_space,
        report.assignments_enumerated,
        report.assignments_explored,
        report.search.assignments_pruned
    );
    let _ = writeln!(
        out,
        "result: {} instructions, {} spill(s), peephole removed {}, {:.1} ms",
        report.instructions,
        report.spills,
        report.peephole_removed,
        report.time.as_secs_f64() * 1e3
    );
    for s in &schedule.spills {
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
            syms.sym_name(s.slot)
        );
    }
    for (t, step) in schedule.steps.iter().enumerate() {
        let items: Vec<String> = step
            .iter()
            .map(|&n| describe_node(graph, target, syms, n))
            .collect();
        let _ = writeln!(out, "  step {t:3}: {}", items.join(" | "));
    }
    out
}

fn describe_node(
    graph: &CoverGraph,
    target: &Target,
    syms: &(impl SymbolNames + ?Sized),
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
            format!(
                "ld {}->{}",
                syms.sym_name(*sym),
                target.machine.bank(*to).name
            )
        }
        CnKind::StoreVar { sym, .. } => format!("st {}", syms.sym_name(*sym)),
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
    syms: &(impl SymbolNames + ?Sized),
    schedule: Option<&Schedule>,
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

    /// `text` with the milliseconds of its `result:` line dropped.
    fn without_ms(text: &str) -> String {
        text.lines()
            .map(|l| match l.rsplit_once(", ") {
                Some((head, _)) if l.starts_with("result: ") => head,
                _ => l,
            })
            .collect::<Vec<_>>()
            .join("\n")
    }

    #[test]
    fn compiled_plans_render_like_compiled_blocks() {
        // Both blocks spill on two registers per bank, so the spill
        // slots the second block appends after the first block's are
        // named through the program's symbols too.
        let f = parse_function(
            "func f(a, b, c, d, e, g) {
                t1 = a + b; t2 = c + d; t3 = e + g;
                t4 = t1 * t2; t5 = t4 - t3; out = t5 + t1;
                goto next;
            next:
                u1 = out + a; u2 = b + c; u3 = d + e;
                u4 = u1 * u2; u5 = u4 - u3; res = u5 + u1;
                return res;
            }",
        )
        .unwrap();
        let gen =
            CodeGenerator::new(archs::example_arch(2)).options(CodegenOptions::heuristics_on());
        let target = gen.target();
        let (program, report) = gen.compile_function(&f).unwrap();
        let planned = gen.planned_function(&f);
        let mut syms = planned.syms.clone();
        let mut layout = MemLayout::for_function(&planned);
        assert_eq!(report.plans.len(), planned.blocks.len());
        for (i, block) in planned.blocks.iter().enumerate() {
            let r = gen
                .compile_block(&block.dag, &mut syms, &mut layout)
                .unwrap();
            assert!(!r.schedule.spills.is_empty(), "block {i} spills");
            let plan = &report.plans[i];
            let explained = explain_block(
                plan.graph(),
                plan.schedule(),
                &report.blocks[i],
                target,
                &program,
            );
            assert_eq!(
                without_ms(&explained),
                without_ms(&r.explain(target, &syms))
            );
            assert_eq!(
                covergraph_to_dot(plan.graph(), target, &program, Some(plan.schedule())),
                covergraph_to_dot(&r.graph, target, &syms, Some(&r.schedule))
            );
        }
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
