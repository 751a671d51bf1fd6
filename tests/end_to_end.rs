//! Cross-crate integration tests: the full Fig. 1 toolchain on whole
//! programs (front end → optimizations → code generation → assembler →
//! simulator) checked against the reference interpreter.

use aviv::{CodeGenerator, CodegenOptions};
use aviv_ir::{opt, parse_function, BlockId, MemLayout};
use aviv_isdl::archs;
use aviv_vm::{assemble, check_function, disassemble, Simulator};

#[test]
fn gcd_runs_on_every_architecture() {
    let src = "func gcd(a, b) {
    head:
        if (b == 0) goto done;
        t = b;
        r = a - b;
        if (r >= 0) goto sub_ok;
        r = a;
    sub_ok:
        a = t;
        b = r - t;
        if (b >= 0) goto head;
        b = r;
        goto head;
    done:
        return a;
    }";
    // A simplified gcd-like iteration (not Euclid's, but deterministic
    // and loopy); what matters is that compiled control flow behaves
    // exactly like the interpreter on several machines.
    let f = parse_function(src).unwrap();
    for machine in [
        archs::example_arch(4),
        archs::arch_two(4),
        archs::dsp_arch(4),
        archs::single_alu(4),
        archs::wide_arch(4),
        archs::chained_arch(4),
    ] {
        let name = machine.name.clone();
        check_function(&f, machine, CodegenOptions::heuristics_on(), &[48, 18], &[])
            .unwrap_or_else(|e| panic!("{name}: {e}"));
    }
}

#[test]
fn optimization_pipeline_then_codegen() {
    let src = "func f(a, n) {
        k = 2 + 3;
        s = 0;
        i = 0;
    head:
        s = s + a * k;
        i = i + 1;
        if (i < n) goto head;
        return s;
    }";
    let mut f = parse_function(src).unwrap();
    opt::fold_constants(&mut f);
    opt::unroll_self_loop(&mut f, BlockId(1), 2).unwrap();
    opt::fold_constants(&mut f);
    f.validate().unwrap();
    check_function(
        &f,
        archs::example_arch(4),
        CodegenOptions::heuristics_on(),
        &[7, 6],
        &[],
    )
    .unwrap();
}

#[test]
fn binary_round_trip_on_control_flow_program() {
    let src = "func clamp_sum(a, b, lo, hi) {
        s = a + b;
        if (s >= lo) goto check_hi;
        s = lo;
        goto done;
    check_hi:
        if (s <= hi) goto done;
        s = hi;
    done:
        return s;
    }";
    let f = parse_function(src).unwrap();
    let gen = CodeGenerator::new(archs::example_arch(4));
    let (program, _) = gen.compile_function(&f).unwrap();
    let bytes = assemble(gen.target(), &program).unwrap();
    let loaded = disassemble(gen.target(), &bytes).unwrap();
    assert_eq!(program, loaded);
    for (a, b, lo, hi) in [(5, 7, 0, 100), (5, 7, 20, 100), (90, 80, 0, 100)] {
        let mut sim = Simulator::new(gen.target(), &loaded);
        sim.set_var("a", a)
            .set_var("b", b)
            .set_var("lo", lo)
            .set_var("hi", hi);
        let got = sim.run().unwrap().return_value.unwrap();
        let want = (a + b).clamp(lo, hi);
        assert_eq!(got, want, "clamp_sum({a},{b},{lo},{hi})");
    }
}

#[test]
fn spilled_code_is_still_faithful_at_two_registers() {
    let src = "func f(a, b, c, d, e, g, h, i) {
        t1 = a * b + c;
        t2 = d * e + g;
        t3 = t1 - t2;
        t4 = t1 * h;
        t5 = t2 + i;
        out = (t3 + t4) - t5;
    }";
    let f = parse_function(src).unwrap();
    for regs in [2, 3, 4] {
        check_function(
            &f,
            archs::example_arch(regs),
            CodegenOptions::heuristics_on(),
            &[1, 2, 3, 4, 5, 6, 7, 8],
            &[],
        )
        .unwrap_or_else(|e| panic!("regs={regs}: {e}"));
    }
}

/// The phase-ordered comparator's options: the default preset with
/// `phase_ordered` set.
fn phase_ordered() -> CodegenOptions {
    CodegenOptions {
        phase_ordered: true,
        ..CodegenOptions::heuristics_on()
    }
}

#[test]
fn baseline_output_simulates_correctly() {
    let src = "func f(a, b, c) { x = (a + b) * c; y = x - a; }";
    let f = parse_function(src).unwrap();
    let gen = CodeGenerator::new(archs::example_arch(4)).options(phase_ordered());
    let (program, report) = gen.compile_function(&f).unwrap();
    let mut sim = Simulator::new(gen.target(), &program);
    sim.set_var("a", 3).set_var("b", 4).set_var("c", 5);
    let result = sim.run().unwrap();
    assert_eq!(sim.read_var("x"), Some(35));
    assert_eq!(sim.read_var("y"), Some(32));
    assert!(result.cycles >= report.blocks[0].instructions);
    check_function(&f, archs::example_arch(4), phase_ordered(), &[3, 4, 5], &[]).unwrap();
}

#[test]
fn exploration_modes_agree_semantically() {
    // Different heuristic settings may produce different schedules but
    // must compute the same function.
    let src = "func f(a, b, c, d) { x = (a - b) * (c + d); y = x + b * c; return y; }";
    let f = parse_function(src).unwrap();
    for options in [
        CodegenOptions::heuristics_on(),
        CodegenOptions::thorough(),
        CodegenOptions::heuristics_off(),
    ] {
        check_function(&f, archs::example_arch(4), options, &[9, 3, 2, 5], &[]).unwrap();
    }
}

#[test]
fn compilation_is_deterministic() {
    // Hash-map iteration must never leak into codegen decisions: the
    // same input compiles to the identical program every time.
    let src = "func f(a, b, c, d) {
        x = (a + b) * (c - d);
        y = x * a + b;
        if (y > 0) goto pos;
        y = 0 - y;
    pos:
        return y;
    }";
    let f = parse_function(src).unwrap();
    let mut first: Option<aviv::VliwProgram> = None;
    for round in 0..5 {
        let gen = CodeGenerator::new(archs::example_arch(4));
        let (program, _) = gen.compile_function(&f).unwrap();
        match &first {
            None => first = Some(program),
            Some(p) => assert_eq!(p, &program, "nondeterminism on round {round}"),
        }
    }
}

#[test]
fn derived_machines_compile_like_builtins() {
    // The paper's Table II derivation via the machine-editing API must
    // behave exactly like the hand-built arch_two.
    use aviv_ir::Op;
    let derived = archs::example_arch(4)
        .without_op("U1", Op::Sub)
        .unwrap()
        .without_unit("U3")
        .unwrap()
        .renamed("ArchII");
    let src = "func f(a, b, c) { x = (a - b) * c; y = x + a; }";
    let f = parse_function(src).unwrap();
    let sizes: Vec<usize> = [derived, archs::arch_two(4)]
        .into_iter()
        .map(|machine| {
            let gen = CodeGenerator::new(machine);
            let mut syms = f.syms.clone();
            let mut layout = MemLayout::for_function(&f);
            gen.compile_block(&f.blocks[0].dag, &mut syms, &mut layout)
                .unwrap()
                .report
                .instructions
        })
        .collect();
    assert_eq!(sizes[0], sizes[1]);
}

/// How many members of `con` one emitted instruction issues.
fn constraint_members(instr: &aviv::VliwInstruction, con: &aviv_isdl::Constraint) -> u32 {
    use aviv::SlotOpcode;
    use aviv_isdl::SlotPattern;
    let mut members = 0;
    for pat in &con.members {
        members += match *pat {
            SlotPattern::UnitOp { unit, op } => u32::from(
                instr.slots[unit.index()]
                    .as_ref()
                    .is_some_and(|s| op.is_none_or(|o| s.opcode == SlotOpcode::Basic(o))),
            ),
            SlotPattern::BusUse { bus } => {
                instr.xfers.iter().filter(|x| x.bus == bus).count() as u32
            }
        };
    }
    members
}

#[test]
fn isdl_constraint_with_unit_and_bus_members_holds_end_to_end() {
    use aviv_ir::Op;
    use aviv_isdl::{MachineBuilder, SlotPattern};
    // U1 may not multiply while the bus carries a transfer. Two registers
    // per bank force spills, so peephole's spill undoing and compaction
    // and the baseline's list scheduler all probe the constraint too.
    let mut b = MachineBuilder::new("MulOrMove");
    let u1 = b.unit("U1", &[Op::Add, Op::Sub, Op::Mul], 2);
    let u2 = b.unit("U2", &[Op::Add, Op::Sub, Op::Mul], 2);
    let db = b.bus("DB", &[u1, u2], true, 2);
    b.constraint(
        1,
        vec![
            SlotPattern::UnitOp {
                unit: u1,
                op: Some(Op::Mul),
            },
            SlotPattern::BusUse { bus: db },
        ],
    );
    let machine = b.build().unwrap();
    // Without the constraint, both generators issue a multiply on U1
    // beside a transfer, or two transfers, in several instructions.
    let src = "func f(a, b, c, d, e, g, h, i) {
        t1 = a * b;
        t2 = c * d;
        t3 = e * g;
        t4 = h * i;
        return (t1 + t2) * (t3 - t4) + a * i;
    }";
    let f = parse_function(src).unwrap();
    let options = CodegenOptions::heuristics_on().with_verify(true);
    let within = |instrs: &[aviv::VliwInstruction], who: &str| {
        for (i, instr) in instrs.iter().enumerate() {
            for con in machine.constraints() {
                let members = constraint_members(instr, con);
                assert!(
                    members <= con.at_most,
                    "{who}: instruction {i} issues {members} members"
                );
            }
        }
    };

    let gen = CodeGenerator::new(machine.clone()).options(options.clone());
    let (program, report) = gen.compile_function(&f).unwrap();
    assert!(report.blocks.iter().any(|b| b.spills > 0), "{report:?}");
    within(&program.instructions, "AVIV");
    let asm = program.render(gen.target());
    let tv = aviv::verify::validate_asm(&f, &asm, &machine);
    assert!(tv.ok(), "{:?}", tv.diagnostics);
    check_function(&f, machine.clone(), options, &[1, 2, 3, 4, 5, 6, 7, 8], &[]).unwrap();

    let options = phase_ordered().with_verify(true);
    let base = CodeGenerator::new(machine.clone()).options(options.clone());
    let (program, report) = base.compile_function(&f).unwrap();
    assert!(report.blocks.iter().any(|b| b.spills > 0), "{report:?}");
    within(&program.instructions, "baseline");
    check_function(&f, machine, options, &[1, 2, 3, 4, 5, 6, 7, 8], &[]).unwrap();
}
