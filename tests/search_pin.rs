//! Search-effort pin: the exact covering search on a fixed set of
//! program × machine pairs, against a committed golden table.
//!
//! Per pair the table records Σ `BlockReport::node_expansions` (every
//! budget unit the selection loop and the lookahead rollouts charge),
//! the emitted instruction count, and an FNV-1a hash of the rendered
//! assembly. Every pinned compile must also pass translation
//! validation. A change to the covering engine that claims to keep the
//! search — same candidates, same tie-breaks, same budget charges, same
//! bytes — must leave every row identical. When a change alters the
//! search on purpose, the failure message prints the new rows to commit
//! in `tests/golden/search_pin.txt`.

use aviv::verify::validate_asm;
use aviv::{CodeGenerator, CodegenOptions};
use aviv_bench::compare::example_arch_rand_config;
use aviv_bench::kernels::{all_kernels, BUTTERFLY, CMUL, DOT4};
use aviv_ir::randdag::random_block;
use aviv_ir::{parse_function, Function};
use aviv_isdl::{archs, parse_machine, Machine, Target};
use std::path::Path;

/// FNV-1a over `bytes`.
fn fnv1a(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

/// Whether `machine` implements every operation of `f`.
fn implements(f: &Function, machine: &Machine) -> bool {
    let target = Target::new(machine.clone());
    f.blocks
        .iter()
        .all(|b| aviv_splitdag::SplitNodeDag::build(&b.dag, &target).is_ok())
}

/// One golden row: `name expansions instructions hash`.
fn row(name: &str, machine: &Machine, f: &Function, options: CodegenOptions) -> String {
    let generator = CodeGenerator::new(machine.clone()).options(options.with_jobs(1));
    let (program, report) = generator
        .compile_function(f)
        .unwrap_or_else(|e| panic!("{name}: {e}"));
    assert!(report.complete, "{name}: compile incomplete");
    let expansions: u64 = report.blocks.iter().map(|b| b.node_expansions).sum();
    let asm = program.render(generator.target());
    let tv = validate_asm(f, &asm, machine);
    assert!(
        tv.ok(),
        "{name}: translation validation failed:\n{}",
        tv.diagnostics
            .iter()
            .map(ToString::to_string)
            .collect::<Vec<_>>()
            .join("\n")
    );
    format!(
        "{name} {expansions} {} {:016x}",
        report.total_instructions,
        fnv1a(asm.as_bytes())
    )
}

fn read(rel: &str) -> String {
    let path = Path::new(env!("CARGO_MANIFEST_DIR")).join(rel);
    std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("{}: {e}", path.display()))
}

/// Visit the pinned pairs in golden-file order.
fn pairs(mut push: impl FnMut(String, &Machine, &Function, CodegenOptions)) {
    let on = CodegenOptions::heuristics_on;
    let off = CodegenOptions::heuristics_off;
    // The kernel-table machines.
    let machines = [
        archs::example_arch(4),
        archs::arch_two(4),
        archs::dsp_arch(4),
        archs::wide_arch(4),
        archs::single_alu(6),
    ];
    // The kernel table: every DSP kernel on every kernel-table machine
    // that implements it.
    for machine in &machines {
        for k in all_kernels() {
            let f = k.function();
            if implements(&f, machine) {
                push(format!("{}@{}", k.name, machine.name), machine, &f, on());
            }
        }
    }
    // The bundled programs on the bundled machines.
    for m in ["archII", "dsp_mac", "fig3"] {
        let machine = parse_machine(&read(&format!("assets/{m}.isdl")))
            .unwrap_or_else(|e| panic!("{m}: {e}"));
        for p in ["dot4", "sum_loop"] {
            let f = parse_function(&read(&format!("assets/{p}.av")))
                .unwrap_or_else(|e| panic!("{p}: {e}"));
            push(format!("{p}.av@{m}"), &machine, &f, on());
        }
    }
    // Exhaustive assignment enumeration with lookahead on every
    // assignment (`+off`): the largest searches in the table.
    for machine in &machines {
        for k in [DOT4, CMUL] {
            let name = format!("{}@{}+off", k.name, machine.name);
            push(name, machine, &k.function(), off());
        }
    }
    // Wide at two registers per bank, where covering spills and the
    // orbits of its three interchangeable units stop covering alike.
    let wide2 = archs::wide_arch(2);
    for k in all_kernels() {
        let f = k.function();
        if implements(&f, &wide2) {
            push(format!("{}@Wide(2)", k.name), &wide2, &f, on());
        }
    }
    for k in [DOT4, CMUL] {
        let name = format!("{}@Wide(2)+off", k.name);
        push(name, &wide2, &k.function(), off());
    }
    // DspMac at two registers per bank, where `mac`'s three register
    // operands do not fit: the matcher offers it only where operands
    // repeat or are constants.
    let dsp2 = archs::dsp_arch(2);
    for k in [DOT4, CMUL, BUTTERFLY] {
        push(format!("{}@DspMac(2)", k.name), &dsp2, &k.function(), on());
    }
    // The scaling sweep's compiles: seeded random blocks on Example,
    // covered whole as `scaling_sweep`'s `compile_block` covers them (a
    // random block stores only its last values, so dead-code elimination
    // would drop most of it).
    let example = archs::example_arch(4);
    for n in [4, 6, 8, 10, 12, 14, 18, 24, 32] {
        let f = random_block(&example_arch_rand_config(n), 42);
        let options = on().with_exact_liveness(false);
        push(format!("rand{n}@{}", example.name), &example, &f, options);
    }
}

/// The heuristics-off rows on Wide, at four and at two registers, are
/// the largest searches in the table (up to about 1 M nodes), so they
/// run as a test of their own, in parallel with the rest of the table.
fn is_slow(row: &str) -> bool {
    row.contains("@Wide+off") || row.contains("@Wide(2)+off")
}

/// Compute the rows `is_slow` selects (or rejects) and check them
/// against the same selection of the golden file.
fn check(slow: bool) -> Vec<String> {
    let golden = read("tests/golden/search_pin.txt");
    let expected: Vec<&str> = golden
        .lines()
        .filter(|l| !l.is_empty() && !l.starts_with('#') && is_slow(l) == slow)
        .collect();
    let mut actual = Vec::new();
    pairs(|name, machine, f, options| {
        if is_slow(&name) == slow {
            actual.push(row(&name, machine, f, options));
        }
    });
    assert!(
        expected == actual,
        "search pin mismatch; the current rows are:\n{}",
        actual.join("\n")
    );
    actual
}

#[test]
fn covering_search_matches_the_golden_table() {
    let actual = check(false);
    // The exhaustive pair's effort, spelled out: a silent change to the
    // golden file cannot move it.
    let off = actual
        .iter()
        .find(|r| r.starts_with("dot4@Example+off "))
        .expect("dot4@Example+off is pinned");
    assert!(off.starts_with("dot4@Example+off 2473 12 "), "{off}");
}

#[test]
fn heuristics_off_on_wide_matches_the_golden_table() {
    check(true);
}
