//! Golden-file pin of `avivc`'s views of a compile.
//!
//! For every bundled machine × program (`assets/*.isdl` × `assets/*.av`)
//! under `--preset on` and `--preset off`, the file
//! `tests/golden/views.txt` records the stderr of `--explain --report`
//! (with the milliseconds of each `result:` line masked) and the stdout
//! of `--emit dot`. Any change to what the schedule explanation or the
//! cover-graph drawing shows for these compiles fails here.

use std::fmt::Write as _;
use std::path::{Path, PathBuf};
use std::process::Command;

fn golden_path() -> &'static str {
    concat!(env!("CARGO_MANIFEST_DIR"), "/tests/golden/views.txt")
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

/// `line` with the `, <t> ms` tail of a `result:` line replaced by
/// `, _ ms`; every other line unchanged.
fn mask_ms(line: &str) -> String {
    match line.rsplit_once(", ") {
        Some((head, tail)) if line.starts_with("result: ") && tail.ends_with(" ms") => {
            format!("{head}, _ ms")
        }
        _ => line.to_string(),
    }
}

fn run(machine: &Path, program: &Path, args: &[&str]) -> std::process::Output {
    let out = Command::new(env!("CARGO_BIN_EXE_avivc"))
        .arg("--machine")
        .arg(machine)
        .arg(program)
        .args(args)
        .output()
        .unwrap();
    assert!(
        out.status.success(),
        "{} {} {args:?}: {}",
        machine.display(),
        program.display(),
        String::from_utf8_lossy(&out.stderr)
    );
    out
}

fn render() -> String {
    let mut out = String::new();
    for machine in assets("isdl") {
        for program in assets("av") {
            for preset in ["on", "off"] {
                let name = |p: &Path| p.file_name().unwrap().to_string_lossy().into_owned();
                let what = format!("{} {} --preset {preset}", name(&machine), name(&program));
                let explained = run(
                    &machine,
                    &program,
                    &["--preset", preset, "--explain", "--report", "-o", "-"],
                );
                let _ = writeln!(out, "== {what} --explain --report");
                for line in String::from_utf8(explained.stderr).unwrap().lines() {
                    let _ = writeln!(out, "{}", mask_ms(line));
                }
                let dot = run(&machine, &program, &["--preset", preset, "--emit", "dot"]);
                let _ = writeln!(out, "== {what} --emit dot");
                out.push_str(&String::from_utf8(dot.stdout).unwrap());
            }
        }
    }
    out
}

/// `cargo test -p aviv-cli --test views_golden -- --ignored regen_golden`
#[test]
#[ignore = "writes tests/golden/views.txt; run with --ignored to regenerate"]
fn regen_golden() {
    std::fs::write(golden_path(), render()).unwrap();
}

#[test]
fn views_match_golden_file() {
    let golden = include_str!("golden/views.txt");
    let got = render();
    if got != golden {
        let first = got
            .lines()
            .zip(golden.lines())
            .position(|(a, b)| a != b)
            .unwrap_or_else(|| got.lines().count().min(golden.lines().count()));
        panic!(
            "views drifted from tests/golden/views.txt at line {}:\n  got:    {:?}\n  golden: {:?}",
            first + 1,
            got.lines().nth(first),
            golden.lines().nth(first)
        );
    }
}
