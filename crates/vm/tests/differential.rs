//! End-to-end differential tests: for each (program, machine, inputs)
//! triple, generated VLIW code simulated on the machine must compute
//! exactly what the reference interpreter computes.

use aviv::CodegenOptions;
use aviv_ir::parse_function;
use aviv_isdl::archs;
use aviv_vm::check_function;

fn check(src: &str, machine: aviv_isdl::Machine, args: &[i64]) {
    let f = parse_function(src).unwrap();
    check_function(&f, machine, CodegenOptions::heuristics_on(), args, &[])
        .unwrap_or_else(|e| panic!("{src}\n-> {e}"));
}

#[test]
fn straight_line_on_example_arch() {
    check(
        "func f(a, b, c) { t = a + b; u = t * c; v = u - t; out = v; }",
        archs::example_arch(4),
        &[3, 4, 5],
    );
}

#[test]
fn fig2_block_with_compl_sink() {
    check(
        "func f(a, b, d, e) { out = ~((d * e) - (a + b)); }",
        archs::example_arch(4),
        &[10, 20, 3, 7],
    );
}

#[test]
fn negative_and_large_values() {
    check(
        "func f(a, b) { x = a * b; y = x - 1000000; z = ~y; }",
        archs::example_arch(4),
        &[-12345, 67890],
    );
}

#[test]
fn spilling_machine_still_correct() {
    let src = "func f(a, b, c, d, e, g) {
        t1 = a + b;
        t2 = c + d;
        t3 = e + g;
        t4 = t1 * t2;
        t5 = t4 - t3;
        out = t5 + t1;
    }";
    check(src, archs::example_arch(2), &[1, 2, 3, 4, 5, 6]);
}

#[test]
fn arch_two_and_dsp_and_chained() {
    let src = "func f(a, b, c) { x = (a - b) * c; y = x + a; }";
    for m in [archs::arch_two(4), archs::dsp_arch(4), archs::wide_arch(4)] {
        check(src, m, &[9, 4, 3]);
    }
    check(
        "func f(a, b) { x = ~(a - b); }",
        archs::chained_arch(4),
        &[100, 42],
    );
}

#[test]
fn mac_fusion_preserves_semantics() {
    check(
        "func f(a, b, c, d, e) { x = a * b + c; y = d * e + x; return y; }",
        archs::dsp_arch(4),
        &[2, 3, 4, 5, 6],
    );
}

#[test]
fn control_flow_loop() {
    let src = "func sum(n) {
        s = 0;
        i = 0;
    head:
        if (i >= n) goto done;
        s = s + i;
        i = i + 1;
        goto head;
    done:
        return s;
    }";
    let f = parse_function(src).unwrap();
    for n in [0i64, 1, 5, 17] {
        check_function(
            &f,
            archs::example_arch(4),
            CodegenOptions::heuristics_on(),
            &[n],
            &[],
        )
        .unwrap_or_else(|e| panic!("n={n}: {e}"));
    }
}

#[test]
fn diamond_control_flow() {
    let src = "func max3(a, b, c) {
        m = a;
        if (b <= m) goto skip1;
        m = b;
    skip1:
        if (c <= m) goto skip2;
        m = c;
    skip2:
        return m;
    }";
    let f = parse_function(src).unwrap();
    for args in [[1, 2, 3], [3, 2, 1], [2, 3, 1], [5, 5, 5]] {
        check_function(
            &f,
            archs::example_arch(4),
            CodegenOptions::heuristics_on(),
            &args,
            &[],
        )
        .unwrap_or_else(|e| panic!("{args:?}: {e}"));
    }
}

#[test]
fn dynamic_memory_ops() {
    let src = "func f(p, v) {
        mem[p] = v;
        x = mem[p] + 1;
        mem[p + 1] = x * 2;
        return x;
    }";
    let f = parse_function(src).unwrap();
    check_function(
        &f,
        archs::example_arch(4),
        CodegenOptions::heuristics_on(),
        &[2048, 7],
        &[],
    )
    .unwrap();
}

#[test]
fn preloaded_dynamic_memory() {
    let src = "func f(p) { a = mem[p]; b = mem[p + 1]; return a * b; }";
    let f = parse_function(src).unwrap();
    check_function(
        &f,
        archs::example_arch(4),
        CodegenOptions::heuristics_on(),
        &[4096],
        &[(4096, 6), (4097, 7)],
    )
    .unwrap();
}

#[test]
fn heuristics_off_also_correct() {
    let src = "func f(a, b, d, e) { out = (d * e) - (a + b); }";
    let f = parse_function(src).unwrap();
    check_function(
        &f,
        archs::example_arch(4),
        CodegenOptions::heuristics_off(),
        &[1, 2, 3, 4],
        &[],
    )
    .unwrap();
}

#[test]
fn unrolled_loop_matches() {
    let src = "func sum(n) {
        s = 0;
        i = 0;
    head:
        s = s + i * i;
        i = i + 1;
        if (i < n) goto head;
        return s;
    }";
    let mut f = parse_function(src).unwrap();
    aviv_ir::opt::unroll_self_loop(&mut f, aviv_ir::BlockId(1), 2).unwrap();
    check_function(
        &f,
        archs::example_arch(4),
        CodegenOptions::heuristics_on(),
        &[8],
        &[],
    )
    .unwrap();
}

#[test]
fn assemble_disassemble_round_trip() {
    let src = "func f(a, b) { x = a * b + 1; if (x > 10) goto big; x = 0 - x; big: return x; }";
    let f = parse_function(src).unwrap();
    let gen = aviv::CodeGenerator::new(archs::example_arch(4));
    let (program, _) = gen.compile_function(&f).unwrap();
    let bytes = aviv_vm::assemble(gen.target(), &program).unwrap();
    let back = aviv_vm::disassemble(gen.target(), &bytes).unwrap();
    assert_eq!(program, back);

    // The decoded program simulates identically.
    let mut sim1 = aviv_vm::Simulator::new(gen.target(), &program);
    let mut sim2 = aviv_vm::Simulator::new(gen.target(), &back);
    sim1.set_var("a", 5).set_var("b", 9);
    sim2.set_var("a", 5).set_var("b", 9);
    assert_eq!(sim1.run().unwrap(), sim2.run().unwrap());
}

#[test]
fn decoder_rejects_garbage() {
    let f = parse_function("func f(a) { return a; }").unwrap();
    let gen = aviv::CodeGenerator::new(archs::example_arch(4));
    let t = gen.target();
    assert!(aviv_vm::disassemble(t, b"not a program").is_err());
    assert!(aviv_vm::disassemble(t, b"AVIV").is_err());
    let (program, _) = gen.compile_function(&f).unwrap();
    let mut bytes = aviv_vm::assemble(t, &program).unwrap();
    bytes.push(0); // trailing byte
    assert!(aviv_vm::disassemble(t, &bytes).is_err());
}
