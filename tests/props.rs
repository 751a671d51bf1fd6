//! The capstone property test (DESIGN.md invariant 4): for random
//! programs on random architectures, the generated VLIW code — simulated
//! cycle by cycle — computes exactly what the reference interpreter
//! computes. Plus invariant 6: the machine-independent optimizations
//! preserve interpreter semantics.

use aviv::CodegenOptions;
use aviv_ir::randdag::{random_block, RandDagConfig};
use aviv_ir::{opt, run_function, Op};
use aviv_isdl::archs;
use aviv_vm::check_function;
use proptest::prelude::*;

fn cfg(n_ops: usize) -> RandDagConfig {
    RandDagConfig {
        n_ops,
        n_inputs: 3,
        ops: vec![Op::Add, Op::Sub, Op::Mul, Op::Add, Op::Mul],
        n_outputs: 2,
        locality: 0.5,
        const_prob: 0.0,
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(40))]
    #[test]
    fn generated_code_is_always_faithful(
        seed in 0u64..100_000,
        n_ops in 2usize..12,
        arch_pick in 0usize..5,
        a0 in -1000i64..1000,
        a1 in -1000i64..1000,
        a2 in -1000i64..1000,
    ) {
        let machine = match arch_pick {
            0 => archs::example_arch(4),
            1 => archs::example_arch(2),
            2 => archs::arch_two(4),
            3 => archs::wide_arch(3),
            _ => archs::single_alu(4),
        };
        let f = random_block(&cfg(n_ops), seed);
        check_function(
            &f,
            machine,
            CodegenOptions::heuristics_on(),
            &[a0, a1, a2],
            &[],
        )
        .map_err(|e| TestCaseError::fail(format!("{e}")))?;
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]
    #[test]
    fn mac_machine_is_faithful(
        seed in 0u64..100_000,
        n_ops in 2usize..10,
        a0 in -100i64..100,
        a1 in -100i64..100,
        a2 in -100i64..100,
    ) {
        let f = random_block(&cfg(n_ops), seed);
        check_function(
            &f,
            archs::dsp_arch(4),
            CodegenOptions::heuristics_on(),
            &[a0, a1, a2],
            &[],
        )
        .map_err(|e| TestCaseError::fail(format!("{e}")))?;
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]
    #[test]
    fn optimizations_preserve_semantics(
        seed in 0u64..100_000,
        n_ops in 2usize..20,
        a0 in -1000i64..1000,
        a1 in -1000i64..1000,
        a2 in -1000i64..1000,
    ) {
        let f = random_block(&cfg(n_ops), seed);
        let args = [a0, a1, a2];
        let before = run_function(&f, &args).unwrap();
        let mut opt_f = f.clone();
        opt::fold_constants(&mut opt_f);
        opt_f.validate().map_err(TestCaseError::fail)?;
        let after = run_function(&opt_f, &args).unwrap();
        // Every named variable agrees (addresses are stable across the
        // rewrite because the symbol table is shared).
        prop_assert_eq!(before.memory, after.memory);
        prop_assert_eq!(before.return_value, after.return_value);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]
    #[test]
    fn chained_architecture_is_faithful(
        seed in 0u64..100_000,
        n_ops in 2usize..8,
        a0 in -100i64..100,
        a1 in -100i64..100,
        a2 in -100i64..100,
    ) {
        // Only add/sub/mul exist across the two units of the chained
        // machine (mul only on U2, compl/sub only on U1).
        let f = random_block(
            &RandDagConfig {
                n_ops,
                n_inputs: 3,
                ops: vec![Op::Add, Op::Sub, Op::Mul],
                n_outputs: 1,
                locality: 0.5,
                const_prob: 0.0,
            },
            seed,
        );
        check_function(
            &f,
            archs::chained_arch(4),
            CodegenOptions::heuristics_on(),
            &[a0, a1, a2],
            &[],
        )
        .map_err(|e| TestCaseError::fail(format!("{e}")))?;
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]
    #[test]
    fn constants_as_immediates_are_faithful(
        seed in 0u64..100_000,
        n_ops in 2usize..12,
        a0 in -50i64..50,
        a1 in -50i64..50,
        a2 in -50i64..50,
    ) {
        // Heavy immediate traffic: a third of operands are constants.
        let mut c = cfg(n_ops);
        c.const_prob = 0.35;
        let f = random_block(&c, seed);
        check_function(
            &f,
            archs::example_arch(4),
            CodegenOptions::heuristics_on(),
            &[a0, a1, a2],
            &[],
        )
        .map_err(|e| TestCaseError::fail(format!("{e}")))?;
    }
}

/// Every machine of `archs` that takes a register count, at two to four
/// registers per bank, plus the accumulator DSP.
fn every_arch() -> Vec<aviv_isdl::Machine> {
    let makers = [
        archs::example_arch as fn(u32) -> _,
        archs::arch_two,
        archs::dsp_arch,
        archs::chained_arch,
        archs::single_alu,
        archs::wide_arch,
        archs::quad_vliw,
    ];
    (2..=4)
        .flat_map(|regs| makers.map(|make| make(regs)))
        .chain([archs::accumulator_dsp()])
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]
    #[test]
    fn binary_round_trip_on_random_programs(
        seed in 0u64..100_000,
        n_ops in 2usize..10,
        pick in 0usize..22,
    ) {
        // Constants put immediates in the stream.
        let mut c = cfg(n_ops);
        c.const_prob = 0.3;
        let f = random_block(&c, seed);
        let mut machines = every_arch();
        prop_assert_eq!(machines.len(), 22);
        let gen = aviv::CodeGenerator::new(machines.swap_remove(pick));
        // A compile that fails (the sequential rung can exhaust its spill
        // limit on two-register chained banks) has nothing to assemble.
        let Ok((program, _)) = gen.compile_function(&f) else {
            return Ok(());
        };
        let t = gen.target();
        let bytes = aviv_vm::assemble(t, &program)
            .map_err(|e| TestCaseError::fail(format!("{e}")))?;
        let back = aviv_vm::disassemble(t, &bytes)
            .map_err(|e| TestCaseError::fail(format!("{e}")))?;
        prop_assert_eq!(&program, &back);
        // Loading against another machine is refused.
        let other = aviv_isdl::Target::new(machines.swap_remove(pick % machines.len()));
        prop_assert!(aviv_vm::disassemble(&other, &bytes).is_err());
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]
    #[test]
    fn simplify_then_compile_is_faithful(
        seed in 0u64..100_000,
        n_ops in 2usize..12,
        a0 in -50i64..50,
        a1 in -50i64..50,
        a2 in -50i64..50,
    ) {
        let mut c = cfg(n_ops);
        c.const_prob = 0.3;
        let mut f = random_block(&c, seed);
        let before = run_function(&f, &[a0, a1, a2]).unwrap();
        aviv_ir::simplify::simplify(&mut f);
        aviv_ir::simplify::strength_reduce(&mut f);
        opt::fold_constants(&mut f);
        f.validate().map_err(TestCaseError::fail)?;
        let after = run_function(&f, &[a0, a1, a2]).unwrap();
        prop_assert_eq!(before.return_value, after.return_value);
        // Strength reduction introduces shifts the example arch lacks;
        // compile on a machine with full coverage.
        check_function(
            &f,
            archs::wide_arch(4),
            CodegenOptions::heuristics_on(),
            &[a0, a1, a2],
            &[],
        )
        .map_err(|e| TestCaseError::fail(format!("{e}")))?;
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(20))]
    #[test]
    fn packed_encoding_round_trips_random_programs(
        seed in 0u64..100_000,
        n_ops in 2usize..10,
    ) {
        let f = random_block(&cfg(n_ops), seed);
        // The DSP machine exercises complex (MAC) opcodes in the stream.
        let gen = aviv::CodeGenerator::new(archs::dsp_arch(4));
        let (program, _) = gen
            .compile_function(&f)
            .map_err(|e| TestCaseError::fail(format!("{e}")))?;
        let (bytes, bits) = aviv_vm::encode_packed(gen.target(), &program)
            .map_err(|e| TestCaseError::fail(format!("{e}")))?;
        prop_assert!(bits <= bytes.len() * 8);
        let decoded =
            aviv_vm::decode_packed(gen.target(), &bytes, program.instructions.len())
                .map_err(|e| TestCaseError::fail(format!("{e}")))?;
        // Compare modulo debug names (not part of the ROM image).
        for (a, b) in program.instructions.iter().zip(&decoded) {
            prop_assert_eq!(&a.slots, &b.slots);
            prop_assert_eq!(&a.control, &b.control);
            prop_assert_eq!(a.xfers.len(), b.xfers.len());
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(20))]
    #[test]
    fn asymmetric_banks_are_faithful(
        seed in 0u64..100_000,
        n_ops in 2usize..12,
        a0 in -50i64..50,
        a1 in -50i64..50,
        a2 in -50i64..50,
    ) {
        // The accumulator DSP has an 8-register general bank and a
        // 3-register MAC bank: per-bank pressure must be tracked
        // independently.
        let f = random_block(&cfg(n_ops), seed);
        check_function(
            &f,
            archs::accumulator_dsp(),
            CodegenOptions::heuristics_on(),
            &[a0, a1, a2],
            &[],
        )
        .map_err(|e| TestCaseError::fail(format!("{e}")))?;
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(20))]
    #[test]
    fn quad_vliw_with_two_buses_is_faithful(
        seed in 0u64..100_000,
        n_ops in 2usize..14,
        a0 in -50i64..50,
        a1 in -50i64..50,
        a2 in -50i64..50,
    ) {
        // Two capacity-1 buses: transfer-path alternatives exercise the
        // §IV-B selection heuristic on every compile.
        let f = random_block(&cfg(n_ops), seed);
        check_function(
            &f,
            archs::quad_vliw(4),
            CodegenOptions::heuristics_on(),
            &[a0, a1, a2],
            &[],
        )
        .map_err(|e| TestCaseError::fail(format!("{e}")))?;
    }
}
