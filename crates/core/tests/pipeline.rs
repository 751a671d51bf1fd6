//! End-to-end pipeline tests: parse → Split-Node DAG → assignment
//! exploration → covering → allocation → peephole → emission, verified
//! with the structural oracles at every stage.

use aviv::regalloc::verify_allocation;
use aviv::{verify_schedule, CodeGenerator, CodegenOptions};
use aviv_ir::{parse_function, MemLayout};
use aviv_isdl::archs;

fn compile(src: &str, machine: aviv_isdl::Machine, options: CodegenOptions) -> aviv::BlockResult {
    let f = parse_function(src).unwrap();
    let gen = CodeGenerator::new(machine).options(options);
    let mut syms = f.syms.clone();
    let mut layout = MemLayout::for_function(&f);
    let result = gen
        .compile_block(&f.blocks[0].dag, &mut syms, &mut layout)
        .unwrap();
    assert_eq!(
        verify_schedule(&result.graph, gen.target(), &result.schedule),
        []
    );
    verify_allocation(&result.graph, gen.target(), &result.schedule, &result.alloc).unwrap();
    result
}

#[test]
fn single_op_block() {
    let r = compile(
        "func f(a, b) { x = a + b; }",
        archs::example_arch(4),
        CodegenOptions::heuristics_on(),
    );
    // Loads of a and b (bus, capacity 1 → 2 instructions), the add, the
    // store: at least 4 instructions on the Fig. 3 machine.
    assert!(r.report.instructions >= 4, "{:?}", r.report);
    assert_eq!(r.report.spills, 0);
}

#[test]
fn fig2_block_compiles_on_both_archs() {
    let src = "func f(a, b, d, e) { out = (d * e) - (a + b); }";
    let r1 = compile(src, archs::example_arch(4), CodegenOptions::heuristics_on());
    let r2 = compile(src, archs::arch_two(4), CodegenOptions::heuristics_on());
    assert!(r1.report.instructions > 0);
    assert!(r2.report.instructions > 0);
    // The reduced architecture has a smaller Split-Node DAG.
    assert!(r2.report.sndag_nodes < r1.report.sndag_nodes);
}

#[test]
fn heuristics_off_is_no_worse() {
    let src = "func f(a, b, c) { t = a + b; u = t * c; v = u - t; out = v; }";
    let on = compile(src, archs::example_arch(4), CodegenOptions::heuristics_on());
    let off = compile(
        src,
        archs::example_arch(4),
        CodegenOptions::heuristics_off(),
    );
    assert!(
        off.report.instructions <= on.report.instructions,
        "off={} on={}",
        off.report.instructions,
        on.report.instructions
    );
}

#[test]
fn two_registers_force_spills_on_wide_block() {
    // Many simultaneously-live values with only 2 registers per file.
    let src = "func f(a, b, c, d, e, g) {
        t1 = a + b;
        t2 = c + d;
        t3 = e + g;
        t4 = t1 * t2;
        t5 = t4 - t3;
        out = t5 + t1;
    }";
    let small = compile(src, archs::example_arch(2), CodegenOptions::heuristics_on());
    let big = compile(src, archs::example_arch(4), CodegenOptions::heuristics_on());
    assert!(
        small.report.instructions >= big.report.instructions,
        "fewer registers cannot make code smaller"
    );
    assert_eq!(big.report.spills, 0, "4 registers/file suffice here");
}

#[test]
fn mac_complex_instruction_is_used() {
    let r = compile(
        "func f(a, b, c) { y = a * b + c; }",
        archs::dsp_arch(4),
        CodegenOptions::heuristics_on(),
    );
    let uses_mac = r.instructions.iter().any(|inst| {
        inst.slots
            .iter()
            .flatten()
            .any(|s| matches!(s.opcode, aviv::SlotOpcode::Complex(_)))
    });
    assert!(uses_mac, "MAC should cover mul+add");
}

#[test]
fn chained_arch_multi_hop_transfers() {
    // U1's bank reaches memory only through U2's bank.
    let r = compile(
        "func f(a, b) { x = ~(a - b); }",
        archs::chained_arch(4),
        CodegenOptions::heuristics_on(),
    );
    assert!(r.report.instructions > 0);
}

#[test]
fn single_alu_sequentializes() {
    let r = compile(
        "func f(a, b, c) { x = (a + b) * c; }",
        archs::single_alu(4),
        CodegenOptions::heuristics_on(),
    );
    // One unit, one bus: 3 loads + 1 store on the bus (capacity 1) and
    // 2 unit ops, but a load can pair with an independent op — the
    // optimum is 5 instructions.
    assert!(r.report.instructions >= 5, "{}", r.report.instructions);
}

#[test]
fn whole_function_with_control_flow() {
    let src = "func abs_diff(a, b) {
        d = a - b;
        if (d >= 0) goto done;
        d = 0 - d;
    done:
        return d;
    }";
    let f = parse_function(src).unwrap();
    let gen = CodeGenerator::new(archs::example_arch(4));
    let (program, report) = gen.compile_function(&f).unwrap();
    assert_eq!(report.blocks.len(), 3);
    assert_eq!(program.block_starts.len(), 3);
    assert!(program
        .instructions
        .iter()
        .any(|i| matches!(i.control, Some(aviv::ControlOp::BranchNz { .. }))));
    assert!(program
        .instructions
        .iter()
        .any(|i| matches!(i.control, Some(aviv::ControlOp::Return(_)))));
    // Render produces text mentioning every unit used.
    let asm = program.render(gen.target());
    assert!(asm.contains("bb0:") && asm.contains("CTRL"));
}

#[test]
fn immediates_never_load() {
    let r = compile(
        "func f(a) { x = a + 1; y = x * 2; }",
        archs::example_arch(4),
        CodegenOptions::heuristics_on(),
    );
    // Constants appear as immediates, not loads.
    let loads: usize = r
        .instructions
        .iter()
        .flat_map(|i| &i.xfers)
        .filter(|x| matches!(x.kind, aviv::TransferKind::LoadVar { .. }))
        .count();
    assert_eq!(loads, 1, "only `a` is loaded");
}
