//! Search-effort pin: the exact covering search on a fixed set of
//! program × machine pairs, against a committed golden table.
//!
//! Per pair the table records Σ `BlockReport::node_expansions` (every
//! budget unit the selection loop and the lookahead rollouts charge),
//! the emitted instruction count, and an FNV-1a hash of the rendered
//! assembly. A change to the covering engine that claims to keep the
//! search — same candidates, same tie-breaks, same budget charges, same
//! bytes — must leave every row identical. When a change alters the
//! search on purpose, the failure message prints the new table to
//! commit in place of `tests/golden/search_pin.txt`.

use aviv::{CodeGenerator, CodegenOptions};
use aviv_bench::kernels::{all_kernels, DOT4};
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
fn row(name: &str, machine: Machine, f: &Function, options: CodegenOptions) -> String {
    let generator = CodeGenerator::new(machine).options(options.with_jobs(1));
    let (program, report) = generator
        .compile_function(f)
        .unwrap_or_else(|e| panic!("{name}: {e}"));
    assert!(report.complete, "{name}: compile incomplete");
    let expansions: u64 = report.blocks.iter().map(|b| b.node_expansions).sum();
    let asm = program.render(generator.target());
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

/// The pinned pairs, in golden-file order.
fn table() -> Vec<String> {
    let mut rows = Vec::new();
    // The kernel table: every DSP kernel on every kernel-table machine
    // that implements it.
    let machines = [
        archs::example_arch(4),
        archs::arch_two(4),
        archs::dsp_arch(4),
        archs::wide_arch(4),
        archs::single_alu(6),
    ];
    for machine in &machines {
        for k in all_kernels() {
            let f = k.function();
            if implements(&f, machine) {
                let name = format!("{}@{}", k.name, machine.name);
                rows.push(row(
                    &name,
                    machine.clone(),
                    &f,
                    CodegenOptions::heuristics_on(),
                ));
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
            let name = format!("{p}.av@{m}");
            rows.push(row(
                &name,
                machine.clone(),
                &f,
                CodegenOptions::heuristics_on(),
            ));
        }
    }
    // Exhaustive assignment enumeration with lookahead on every
    // assignment: the largest search in the table.
    rows.push(row(
        "dot4@Example+exact",
        archs::example_arch(4),
        &DOT4.function(),
        CodegenOptions::heuristics_off(),
    ));
    rows
}

#[test]
fn covering_search_matches_the_golden_table() {
    let golden = read("tests/golden/search_pin.txt");
    let expected: Vec<&str> = golden
        .lines()
        .filter(|l| !l.is_empty() && !l.starts_with('#'))
        .collect();
    let actual = table();
    assert!(
        expected == actual,
        "search pin mismatch; the current table is:\n{}",
        actual.join("\n")
    );
    // The exhaustive pair's effort, spelled out: a silent change to the
    // golden file cannot move it.
    let exact = actual.last().expect("table is non-empty");
    assert!(
        exact.starts_with("dot4@Example+exact 118252 12 "),
        "{exact}"
    );
}
