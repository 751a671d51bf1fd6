//! Golden-file pin of the program parser.
//!
//! For every bundled `.av` program, every DSP kernel and twenty seeded
//! random functions (printed with `to_source` and parsed back), the file
//! `tests/golden/parser.txt` records the symbol table in id order, the
//! parameters, each block's label and terminator, and
//! `function_block_hashes` — which covers every DAG node's operation,
//! operands, immediate and symbol in node order. It also records the
//! message, line and column of the `ParseError` for a set of malformed
//! inputs. Any change to how the parser interns symbols, numbers DAG
//! nodes or reports errors fails here.

use aviv_bench::kernels::all_kernels;
use aviv_ir::randdag::{random_function, RandDagConfig};
use aviv_ir::{function_block_hashes, parse_function, to_source, Function, Op};
use std::fmt::Write as _;

fn golden_path() -> &'static str {
    concat!(env!("CARGO_MANIFEST_DIR"), "/tests/golden/parser.txt")
}

/// Malformed sources, one per error path worth pinning.
const MALFORMED: &[(&str, &str)] = &[
    ("unterminated comment", "func f() { x = 1; /* never closed"),
    (
        "number out of range",
        "func f() { x = 99999999999999999999; }",
    ),
    ("unexpected character", "func f() { x = 1 $ 2; }"),
    ("missing semicolon", "func f() { x = 1 }"),
    ("unknown label", "func f() { goto nowhere; }"),
    ("duplicate label", "func f() { a: x = 1; a: y = 2; }"),
    ("missing expression", "func f() { x = ; }"),
    ("missing func keyword", "fn f() { }"),
    ("end of input in body", "func f(a) { x = a;"),
    ("if without goto", "func f(a) { if (a) return; }"),
    (
        "branch without fallthrough",
        "func f(a) { if (a) goto l; l: x = 1; if (a) goto l; }",
    ),
    ("statement starts with a number", "func f() { 3 = x; }"),
    ("missing closing bracket", "func f(p) { x = mem[p; }"),
    ("identifier where `;` belongs", "func f(a, b) { x = a b; }"),
    ("missing parameter name", "func f(a, ) { }"),
    ("non-ASCII character", "func f() { x = é; }"),
    (
        "error after a non-ASCII comment",
        "func f() { /* café */ x = 1 }",
    ),
];

fn pin_function(out: &mut String, what: &str, f: &Function) {
    let _ = writeln!(out, "== {what}");
    let params: Vec<String> = f.params.iter().map(|p| p.0.to_string()).collect();
    let _ = writeln!(out, "func {} params [{}]", f.name, params.join(" "));
    for (s, name) in f.syms.iter() {
        let _ = writeln!(out, "sym {} {name}", s.0);
    }
    for (b, h) in f.blocks.iter().zip(function_block_hashes(f)) {
        let label = b.label.map_or_else(|| "-".to_string(), |l| l.0.to_string());
        let _ = writeln!(out, "block {h:016x} label {label} {:?}", b.term);
    }
}

fn render() -> String {
    let mut out = String::new();
    let mut assets: Vec<_> = std::fs::read_dir(concat!(env!("CARGO_MANIFEST_DIR"), "/assets"))
        .expect("assets directory")
        .map(|e| e.expect("directory entry").path())
        .filter(|p| p.extension().is_some_and(|e| e == "av"))
        .collect();
    assets.sort();
    for path in assets {
        let src = std::fs::read_to_string(&path).expect("asset readable");
        let name = path.file_name().unwrap().to_string_lossy().into_owned();
        let f = parse_function(&src).expect("bundled program parses");
        pin_function(&mut out, &format!("asset {name}"), &f);
    }
    for k in all_kernels() {
        pin_function(&mut out, &format!("kernel {}", k.name), &k.function());
    }
    for seed in 0..20u64 {
        let cfg = RandDagConfig {
            n_ops: 6 + (seed as usize % 9),
            ops: vec![Op::Add, Op::Sub, Op::Mul, Op::Neg, Op::And, Op::Min],
            const_prob: 0.25,
            ..RandDagConfig::default()
        };
        let generated = random_function(&cfg, 1 + seed as usize % 5, seed);
        let f = parse_function(&to_source(&generated)).expect("printed source parses");
        pin_function(&mut out, &format!("random seed {seed}"), &f);
    }
    for (what, src) in MALFORMED {
        let e = parse_function(src).expect_err("malformed input is rejected");
        let _ = writeln!(out, "== error {what}\n{}:{} {}", e.line, e.col, e.msg);
    }
    out
}

/// Regenerate the golden after a deliberate parser change:
/// `cargo test --test parser_golden -- --ignored regen_golden`
#[test]
#[ignore = "writes tests/golden/parser.txt; run with --ignored to regenerate"]
fn regen_golden() {
    std::fs::write(golden_path(), render()).unwrap();
}

#[test]
fn parser_output_matches_golden_file() {
    let golden = include_str!("golden/parser.txt");
    let got = render();
    if got != golden {
        let first = got
            .lines()
            .zip(golden.lines())
            .position(|(a, b)| a != b)
            .unwrap_or_else(|| got.lines().count().min(golden.lines().count()));
        panic!(
            "parser output drifted from tests/golden/parser.txt at line {}:\n  got:    {:?}\n  golden: {:?}",
            first + 1,
            got.lines().nth(first),
            golden.lines().nth(first)
        );
    }
}
