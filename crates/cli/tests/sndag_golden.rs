//! Golden-file pin of the Split-Node DAG views.
//!
//! For every bundled machine × program (`assets/*.isdl` × `assets/*.av`),
//! the file `tests/golden/sndag.txt` records the stdout of
//! `avivc --emit sndag-dot` and the `SplitNodeDag::render` text of every
//! block of the dead-code-free function `compile_function` plans. Any
//! change to the nodes, their order or their ports fails here.

use aviv::CodeGenerator;
use aviv_ir::parse_function;
use aviv_isdl::parse_machine;
use aviv_splitdag::SplitNodeDag;
use std::fmt::Write as _;
use std::path::{Path, PathBuf};
use std::process::Command;

fn golden_path() -> &'static str {
    concat!(env!("CARGO_MANIFEST_DIR"), "/tests/golden/sndag.txt")
}

/// The bundled files with extension `ext`, sorted by name.
fn assets(ext: &str) -> Vec<PathBuf> {
    let dir = Path::new(env!("CARGO_MANIFEST_DIR")).join("../../assets");
    let mut files: Vec<PathBuf> = std::fs::read_dir(dir)
        .unwrap()
        .map(|e| e.unwrap().path())
        .filter(|p| p.extension().is_some_and(|x| x == ext))
        .collect();
    files.sort();
    files
}

fn render() -> String {
    let mut out = String::new();
    for machine in assets("isdl") {
        for program in assets("av") {
            let name = |p: &Path| p.file_name().unwrap().to_string_lossy().into_owned();
            let what = format!("{} {}", name(&machine), name(&program));
            let dot = Command::new(env!("CARGO_BIN_EXE_avivc"))
                .arg("--machine")
                .arg(&machine)
                .arg(&program)
                .args(["--emit", "sndag-dot"])
                .output()
                .unwrap();
            assert!(dot.status.success(), "{what}");
            let _ = writeln!(out, "== {what} --emit sndag-dot");
            out.push_str(&String::from_utf8(dot.stdout).unwrap());

            let m = parse_machine(&std::fs::read_to_string(&machine).unwrap()).unwrap();
            let f = parse_function(&std::fs::read_to_string(&program).unwrap()).unwrap();
            let generator = CodeGenerator::new(m);
            let target = generator.target();
            for (bi, block) in generator.planned_function(&f).blocks.iter().enumerate() {
                let sndag = SplitNodeDag::build(&block.dag, target).unwrap();
                let _ = writeln!(out, "== {what} bb{bi} render");
                out.push_str(&sndag.render(&block.dag, target));
            }
        }
    }
    out
}

/// `cargo test -p aviv-cli --test sndag_golden -- --ignored regen_golden`
#[test]
#[ignore = "writes tests/golden/sndag.txt; run with --ignored to regenerate"]
fn regen_golden() {
    std::fs::write(golden_path(), render()).unwrap();
}

#[test]
fn sndag_views_match_golden_file() {
    let golden = include_str!("golden/sndag.txt");
    let got = render();
    if got != golden {
        let first = got
            .lines()
            .zip(golden.lines())
            .position(|(a, b)| a != b)
            .unwrap_or_else(|| got.lines().count().min(golden.lines().count()));
        panic!(
            "Split-Node DAG views drifted from tests/golden/sndag.txt at line {}:\n  got:    {:?}\n  golden: {:?}",
            first + 1,
            got.lines().nth(first),
            golden.lines().nth(first)
        );
    }
}
