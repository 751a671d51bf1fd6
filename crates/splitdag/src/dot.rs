//! Graphviz export of Split-Node DAGs — the practical way to *see* the
//! structure the paper draws in its Fig. 4.

use crate::sndag::{SnId, SnKind, SplitNodeDag};
use aviv_ir::BlockDag;
use aviv_isdl::{Location, Target};
use std::fmt::Write as _;

/// Render the Split-Node DAG in Graphviz `dot` syntax. Split nodes are
/// diamonds, implementation alternatives boxes, transfers ellipses,
/// leaves/immediates plain text.
pub fn sndag_to_dot(sndag: &SplitNodeDag, dag: &BlockDag, target: &Target) -> String {
    let mut out = String::from("digraph sndag {\n  rankdir=BT;\n  node [fontsize=10];\n");
    for (i, node) in sndag.nodes().iter().enumerate() {
        let id = SnId(i as u32);
        let (label, shape) = match &node.kind {
            SnKind::Split { orig } => (format!("split {orig}\\n{}", dag.node(*orig).op), "diamond"),
            SnKind::Alt { orig, unit, op } => (
                format!("{} on {}\\n[{orig}]", op, target.machine.unit(*unit).name),
                "box",
            ),
            SnKind::ComplexAlt {
                orig,
                complex,
                unit,
            } => (
                format!(
                    "{} on {}\\n[{orig}]",
                    target.machine.complexes()[*complex].name,
                    target.machine.unit(*unit).name
                ),
                "box",
            ),
            SnKind::MemAlt { orig, bus, bank } => (
                format!(
                    "load via {}\\ninto {} [{orig}]",
                    target.machine.bus(*bus).name,
                    target.machine.bank(*bank).name
                ),
                "box",
            ),
            SnKind::Transfer { bus, from, to } => (
                format!(
                    "xfer {} -> {}\\nvia {}",
                    loc(target, *from),
                    loc(target, *to),
                    target.machine.bus(*bus).name
                ),
                "ellipse",
            ),
            SnKind::Leaf { orig } => (format!("leaf {orig}"), "plaintext"),
            SnKind::Imm { orig } => (format!("imm {}", dag.node(*orig).imm.unwrap()), "plaintext"),
            SnKind::StoreNode { orig, .. } => (format!("store [{orig}]"), "house"),
        };
        let _ = writeln!(out, "  {id} [label=\"{label}\", shape={shape}];");
        for port in sndag.ports(id) {
            for &child in port {
                let _ = writeln!(out, "  {child} -> {id};");
            }
        }
    }
    out.push_str("}\n");
    out
}

fn loc(target: &Target, l: Location) -> String {
    match l {
        Location::Bank(b) => target.machine.bank(b).name.clone(),
        Location::Mem => "DM".to_string(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sndag::SplitNodeDag;
    use aviv_ir::parse_function;
    use aviv_isdl::archs;
    use aviv_isdl::Target;

    #[test]
    fn dot_output_is_wellformed() {
        let f = parse_function("func f(a, b, d, e) { out = (d * e) - (a + b); }").unwrap();
        let target = Target::new(archs::example_arch(4));
        let sndag = SplitNodeDag::build(&f.blocks[0].dag, &target).unwrap();
        let dot = sndag_to_dot(&sndag, &f.blocks[0].dag, &target);
        assert!(dot.starts_with("digraph sndag {"));
        assert!(dot.trim_end().ends_with('}'));
        // Every node appears, and edges reference declared nodes.
        for i in 0..sndag.len() {
            assert!(dot.contains(&format!("s{i} [label=")), "s{i} missing");
        }
        assert!(dot.contains("diamond"), "split nodes drawn");
        assert!(dot.contains("xfer"), "transfer nodes drawn");
        // Balanced braces.
        assert_eq!(dot.matches('{').count(), dot.matches('}').count());
    }
}
