//! Compile the DSP kernel suite for several machines and report code
//! sizes — the workload family the paper's introduction motivates.
//!
//! The search effort behind each cell (with and without the
//! analysis-bounds cutoff, and under the heuristics-off preset) is
//! pinned exactly by `tests/search_pin.rs` at the repository root.

use aviv::{CodeGenerator, CodegenOptions};
use aviv_bench::all_kernels;
use aviv_ir::{Function, MemLayout};
use aviv_isdl::{archs, Machine};

/// Instruction count of the kernel body on `machine`, or `None` when the
/// machine does not implement one of its operations.
fn body_size(machine: &Machine, f: &Function) -> Option<usize> {
    let gen = CodeGenerator::new(machine.clone()).options(CodegenOptions::heuristics_on());
    let mut syms = f.syms.clone();
    let mut layout = MemLayout::for_function(f);
    gen.compile_block(&f.blocks[0].dag, &mut syms, &mut layout)
        .ok()
        .map(|r| r.report.instructions)
}

fn main() {
    let machines = [
        archs::example_arch(4),
        archs::arch_two(4),
        archs::dsp_arch(4),
        archs::wide_arch(4),
        archs::single_alu(6),
    ];
    print!("{:12}", "kernel");
    for m in &machines {
        print!(" | {:>10}", m.name);
    }
    println!();
    println!("{}", "-".repeat(12 + machines.len() * 13));
    for k in all_kernels() {
        let f = k.function();
        print!("{:12}", k.name);
        for machine in &machines {
            match body_size(machine, &f) {
                Some(n) => print!(" | {n:>10}"),
                None => print!(" | {:>10}", "n/a"),
            }
        }
        println!();
    }
    println!("\ncells: VLIW instructions for the kernel body (n/a = kernel uses");
    println!("an operation the machine does not implement).");
}
