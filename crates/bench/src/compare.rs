//! Extra experiments beyond the paper's tables: concurrent (AVIV) vs
//! sequential (baseline) code generation, and CPU-time scaling with block
//! size — quantifying §VI's claim that the pruning heuristics make the
//! exponential search practical.

use crate::examples::Example;
use aviv::{CodeGenerator, CodegenOptions};
use aviv_baseline::BaselineGenerator;
use aviv_ir::randdag::{random_block, RandDagConfig};
use aviv_ir::MemLayout;
use aviv_isdl::{archs, Machine, Target};
use aviv_splitdag::SplitNodeDag;
use std::time::{Duration, Instant};

/// One row of the concurrent-vs-sequential comparison.
#[derive(Debug, Clone)]
pub struct CompareRow {
    /// Block name.
    pub name: String,
    /// AVIV instruction count.
    pub aviv: usize,
    /// Sequential baseline instruction count.
    pub baseline: usize,
    /// AVIV spills.
    pub aviv_spills: usize,
    /// Baseline spills.
    pub baseline_spills: usize,
}

/// Compare AVIV against the sequential baseline on one block.
pub fn compare_block(name: &str, f: &aviv_ir::Function, machine: Machine) -> CompareRow {
    let gen = CodeGenerator::new(machine.clone()).options(CodegenOptions::heuristics_on());
    let mut syms = f.syms.clone();
    let mut layout = MemLayout::for_function(f);
    let a = gen
        .compile_block(&f.blocks[0].dag, &mut syms, &mut layout)
        .expect("block compiles");

    let base = BaselineGenerator::new(machine);
    let mut syms = f.syms.clone();
    let mut layout = MemLayout::for_function(f);
    let b = base
        .compile_block(&f.blocks[0].dag, &mut syms, &mut layout)
        .expect("block compiles");

    CompareRow {
        name: name.to_string(),
        aviv: a.report.instructions,
        baseline: b.size,
        aviv_spills: a.report.spills,
        baseline_spills: b.spills,
    }
}

/// Run the comparison over the table examples.
pub fn compare_examples() -> Vec<CompareRow> {
    crate::examples::table_examples()
        .iter()
        .map(|ex: &Example| compare_block(ex.name, &ex.function(), archs::example_arch(ex.regs)))
        .collect()
}

/// Random-block configuration restricted to the operations the example
/// architecture implements.
pub fn example_arch_rand_config(n_ops: usize) -> RandDagConfig {
    RandDagConfig {
        n_ops,
        ops: vec![
            aviv_ir::Op::Add,
            aviv_ir::Op::Sub,
            aviv_ir::Op::Mul,
            aviv_ir::Op::Add,
            aviv_ir::Op::Mul,
        ],
        ..Default::default()
    }
}

/// Run the comparison over seeded random blocks of `n_ops` operations.
pub fn compare_random(n_ops: usize, seeds: std::ops::Range<u64>) -> Vec<CompareRow> {
    let cfg = example_arch_rand_config(n_ops);
    seeds
        .map(|seed| {
            let f = random_block(&cfg, seed);
            compare_block(&format!("rand{n_ops}/{seed}"), &f, archs::example_arch(4))
        })
        .collect()
}

/// Render comparison rows.
pub fn render_compare(rows: &[CompareRow]) -> String {
    let mut out = String::from(
        "Block        | Aviv | Baseline | Aviv spills | Baseline spills\n\
         -------------+------+----------+-------------+----------------\n",
    );
    for r in rows {
        out.push_str(&format!(
            "{:12} | {:4} | {:8} | {:11} | {}\n",
            r.name, r.aviv, r.baseline, r.aviv_spills, r.baseline_spills
        ));
    }
    let total_a: usize = rows.iter().map(|r| r.aviv).sum();
    let total_b: usize = rows.iter().map(|r| r.baseline).sum();
    out.push_str(&format!(
        "total        | {total_a:4} | {total_b:8} |  ({:.1}% smaller)\n",
        100.0 * (total_b as f64 - total_a as f64) / total_b as f64
    ));
    out
}

/// One point of the CPU-time scaling sweep.
#[derive(Debug, Clone)]
pub struct ScalePoint {
    /// Operation count of the random block.
    pub n_ops: usize,
    /// Original DAG nodes.
    pub orig_nodes: usize,
    /// Split-Node DAG nodes.
    pub sndag_nodes: usize,
    /// Assignment-space size.
    pub assignment_space: u128,
    /// Compile time with heuristics on.
    pub time_on: Duration,
    /// Compile time with heuristics off (only measured at small sizes).
    pub time_off: Option<Duration>,
    /// Instruction counts (on, off).
    pub size_on: usize,
    /// Heuristics-off instruction count when measured.
    pub size_off: Option<usize>,
}

/// Sweep block sizes, reproducing the CPU-time growth the paper reports
/// (0.1 s → 10.7 s heuristics-on; 0.2 s → 89 337 s off). `off_limit`
/// bounds the op count up to which the exhaustive mode runs.
pub fn scaling_sweep(sizes: &[usize], off_limit: usize, seed: u64) -> Vec<ScalePoint> {
    sizes
        .iter()
        .map(|&n_ops| {
            let cfg = example_arch_rand_config(n_ops);
            let f = random_block(&cfg, seed);
            let dag = &f.blocks[0].dag;
            let target = Target::new(archs::example_arch(4));
            let sndag = SplitNodeDag::build(dag, &target).expect("supported ops only");
            let stats = sndag.stats(dag);

            let gen =
                CodeGenerator::new(archs::example_arch(4)).options(CodegenOptions::heuristics_on());
            let t0 = Instant::now();
            let mut syms = f.syms.clone();
            let mut layout = MemLayout::for_function(&f);
            let on = gen
                .compile_block(dag, &mut syms, &mut layout)
                .expect("compiles");
            let time_on = t0.elapsed();

            let (time_off, size_off) = if n_ops <= off_limit {
                let gen = CodeGenerator::new(archs::example_arch(4))
                    .options(CodegenOptions::heuristics_off());
                let t0 = Instant::now();
                let mut syms = f.syms.clone();
                let mut layout = MemLayout::for_function(&f);
                let off = gen
                    .compile_block(dag, &mut syms, &mut layout)
                    .expect("compiles");
                (Some(t0.elapsed()), Some(off.report.instructions))
            } else {
                (None, None)
            };

            ScalePoint {
                n_ops,
                orig_nodes: stats.orig_nodes,
                sndag_nodes: stats.sn_nodes,
                assignment_space: stats.assignment_space,
                time_on,
                time_off,
                size_on: on.report.instructions,
                size_off,
            }
        })
        .collect()
}

/// Render the scaling sweep.
pub fn render_scaling(points: &[ScalePoint]) -> String {
    let mut out = String::from(
        "n_ops | orig | SNDAG | assignments | on secs | off secs | on size | off size\n\
         ------+------+-------+-------------+---------+----------+---------+---------\n",
    );
    for p in points {
        out.push_str(&format!(
            "{:5} | {:4} | {:5} | {:>11} | {:7.3} | {:>8} | {:7} | {}\n",
            p.n_ops,
            p.orig_nodes,
            p.sndag_nodes,
            p.assignment_space.to_string(),
            p.time_on.as_secs_f64(),
            p.time_off
                .map_or("-".to_string(), |d| format!("{:.3}", d.as_secs_f64())),
            p.size_on,
            p.size_off.map_or("-".to_string(), |s| s.to_string()),
        ));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn aviv_never_loses_to_baseline_on_examples() {
        for row in compare_examples() {
            assert!(
                row.aviv <= row.baseline,
                "{}: aviv {} > baseline {}",
                row.name,
                row.aviv,
                row.baseline
            );
        }
    }

    #[test]
    fn scaling_points_are_monotone_in_structure() {
        let pts = scaling_sweep(&[6, 12], 0, 7);
        assert_eq!(pts.len(), 2);
        assert!(pts[1].orig_nodes > pts[0].orig_nodes);
        assert!(pts[1].sndag_nodes > pts[0].sndag_nodes);
        assert!(pts[1].assignment_space >= pts[0].assignment_space);
    }

    #[test]
    fn render_helpers_are_complete() {
        let rows = compare_random(6, 0..2);
        let text = render_compare(&rows);
        assert!(text.contains("rand6/0") && text.contains("total"));
    }
}
