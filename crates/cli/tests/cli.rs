//! End-to-end tests of the `avivc` binary itself: real files, real
//! process, real exit codes.

use std::process::Command;

fn avivc() -> Command {
    Command::new(env!("CARGO_BIN_EXE_avivc"))
}

fn write_fixtures(dir: &std::path::Path) -> (String, String) {
    let machine = dir.join("m.isdl");
    let program = dir.join("p.av");
    std::fs::write(
        &machine,
        "machine M {
            unit U1 { ops { add, sub, compl, cmpge } regfile R1[4]; }
            unit U2 { ops { add, mul } regfile R2[4]; }
            memory DM;
            bus DB capacity 1 connects { R1, R2, DM };
        }",
    )
    .unwrap();
    std::fs::write(
        &program,
        "func f(a, b) {
            x = a * b;
            if (x >= 10) goto big;
            x = x + 100;
        big:
            return x;
        }",
    )
    .unwrap();
    (
        machine.to_string_lossy().into_owned(),
        program.to_string_lossy().into_owned(),
    )
}

#[test]
fn compiles_and_prints_assembly() {
    let dir = std::env::temp_dir().join("avivc_test_asm");
    std::fs::create_dir_all(&dir).unwrap();
    let (machine, program) = write_fixtures(&dir);
    let out = avivc()
        .args(["--machine", &machine, &program])
        .output()
        .unwrap();
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let asm = String::from_utf8_lossy(&out.stdout);
    assert!(asm.contains("mul"), "{asm}");
    assert!(asm.contains("bnz"), "{asm}");
}

#[test]
fn simulates_with_bindings() {
    let dir = std::env::temp_dir().join("avivc_test_sim");
    std::fs::create_dir_all(&dir).unwrap();
    let (machine, program) = write_fixtures(&dir);
    let out = avivc()
        .args(["--machine", &machine, &program, "--simulate", "a=2,b=3"])
        .output()
        .unwrap();
    assert!(out.status.success());
    let report = String::from_utf8_lossy(&out.stderr);
    // 2*3 = 6 < 10, so x = 106.
    assert!(report.contains("return Some(106)"), "{report}");
}

#[test]
fn writes_binary_to_file() {
    let dir = std::env::temp_dir().join("avivc_test_bin");
    std::fs::create_dir_all(&dir).unwrap();
    let (machine, program) = write_fixtures(&dir);
    let bin_path = dir.join("out.bin");
    let out = avivc()
        .args([
            "--machine",
            &machine,
            &program,
            "--emit",
            "bin",
            "-o",
            bin_path.to_str().unwrap(),
        ])
        .output()
        .unwrap();
    assert!(out.status.success());
    let bytes = std::fs::read(&bin_path).unwrap();
    assert_eq!(&bytes[..4], b"AVIV");
}

#[test]
fn bad_input_fails_cleanly() {
    let dir = std::env::temp_dir().join("avivc_test_bad");
    std::fs::create_dir_all(&dir).unwrap();
    let (machine, _) = write_fixtures(&dir);
    let bad = dir.join("bad.av");
    std::fs::write(&bad, "func f( { }").unwrap();
    let out = avivc()
        .args(["--machine", &machine, bad.to_str().unwrap()])
        .output()
        .unwrap();
    assert!(!out.status.success());
    assert!(String::from_utf8_lossy(&out.stderr).contains("program:"));

    // Missing files fail with a message, not a panic.
    let out = avivc()
        .args(["--machine", "/nonexistent.isdl", "/nonexistent.av"])
        .output()
        .unwrap();
    assert!(!out.status.success());
    assert!(String::from_utf8_lossy(&out.stderr).contains("cannot read"));
}

#[test]
fn help_prints_usage() {
    let out = avivc().arg("--help").output().unwrap();
    assert!(!out.status.success());
    assert!(String::from_utf8_lossy(&out.stderr).contains("usage: avivc"));
}

/// The per-block instruction counts of an `avivc` run's report: the
/// `result:` line of each `--explain` block and the `bbN:` rows of
/// `--report`.
fn explained_and_reported_counts(report: &str) -> (Vec<usize>, Vec<usize>) {
    let count = |rest: &str| rest.split_whitespace().next().unwrap().parse().unwrap();
    let explained = report
        .lines()
        .filter_map(|l| l.strip_prefix("result: "))
        .map(count)
        .collect();
    let reported = report
        .lines()
        .filter(|l| l.starts_with("bb"))
        .map(|l| count(l.split_once(": ").unwrap().1))
        .collect();
    (explained, reported)
}

#[test]
fn explain_describes_the_dead_code_eliminated_compile() {
    let dir = std::env::temp_dir().join("avivc_test_explain_dce");
    std::fs::create_dir_all(&dir).unwrap();
    let (machine, _) = write_fixtures(&dir);
    // `x = a * b` is overwritten on the only path before anything reads
    // it, so dead-code elimination leaves the first block empty.
    let program = dir.join("dead.av");
    std::fs::write(
        &program,
        "func f(a, b) {
            x = a * b;
            goto next;
        next:
            x = a + b;
            return x;
        }",
    )
    .unwrap();
    let out = avivc()
        .args(["--machine", &machine, program.to_str().unwrap()])
        .args(["--explain", "--report"])
        .output()
        .unwrap();
    let report = String::from_utf8_lossy(&out.stderr);
    assert!(out.status.success(), "{report}");
    let (explained, reported) = explained_and_reported_counts(&report);
    assert_eq!(reported.len(), 2, "{report}");
    assert_eq!(
        reported[0], 0,
        "the dead multiply was eliminated:\n{report}"
    );
    assert_eq!(explained, reported, "{report}");
}

#[test]
fn explain_describes_the_emitted_compile_under_a_deadline() {
    // A 1 ms deadline makes the covering outcome depend on timing, so a
    // second compile for the explanation could describe other code than
    // the one emitted; the views must come from the emitted compile.
    let assets = concat!(env!("CARGO_MANIFEST_DIR"), "/../../assets");
    for run in 0..20 {
        let out = avivc()
            .args(["--machine", &format!("{assets}/fig3.isdl")])
            .arg(format!("{assets}/dot4.av"))
            .args(["--preset", "off", "--timeout-ms", "1"])
            .args(["--explain", "--report", "-o", "-"])
            .output()
            .unwrap();
        let report = String::from_utf8_lossy(&out.stderr);
        assert!(out.status.success(), "run {run}: {report}");
        let (explained, reported) = explained_and_reported_counts(&report);
        assert_eq!(reported.len(), 1, "run {run}: {report}");
        assert_eq!(explained, reported, "run {run}: {report}");
    }
}

#[test]
fn dot_emissions_draw_the_dead_code_eliminated_block() {
    let dir = std::env::temp_dir().join("avivc_test_dot_dce");
    std::fs::create_dir_all(&dir).unwrap();
    // The multiply is overwritten on the only path before anything reads
    // it, so the compiled first block has none.
    let program = dir.join("dead.av");
    std::fs::write(
        &program,
        "func f(a, b) {
            x = a * b;
            goto next;
        next:
            x = a + b;
            return x;
        }",
    )
    .unwrap();
    let machine = concat!(env!("CARGO_MANIFEST_DIR"), "/../../assets/fig3.isdl");
    for emit in ["dot", "sndag-dot"] {
        let out = avivc()
            .args(["--machine", machine, program.to_str().unwrap()])
            .args(["--emit", emit])
            .output()
            .unwrap();
        let dot = String::from_utf8_lossy(&out.stdout);
        assert!(
            out.status.success(),
            "{emit}: {}",
            String::from_utf8_lossy(&out.stderr)
        );
        assert!(dot.starts_with("digraph"), "{emit}:\n{dot}");
        assert!(!dot.to_lowercase().contains("mul"), "{emit}:\n{dot}");
    }
}

/// The dot4 inputs whose dot product is 70.
const DOT4_INPUTS: &str = "x0=1,x1=2,x2=3,x3=4,y0=5,y1=6,y2=7,y3=8";

/// `--baseline` honours `--simulate` and `--stats` on the baseline's
/// program: the run prints its utilization table and block count, and
/// the simulated dot product lands in `acc` and is returned (the
/// baseline's blocks end in their terminators, as AVIV's do).
#[test]
fn baseline_simulates_and_prints_stats() {
    let assets = concat!(env!("CARGO_MANIFEST_DIR"), "/../../assets");
    let out = avivc()
        .args(["--machine", &format!("{assets}/fig3.isdl")])
        .arg(format!("{assets}/dot4.av"))
        .args(["--baseline", "--stats", "--simulate", DOT4_INPUTS])
        .output()
        .unwrap();
    let report = String::from_utf8_lossy(&out.stderr);
    assert!(out.status.success(), "{report}");
    assert!(report.contains("unit-slot utilization"), "{report}");
    assert!(
        report.contains("blocks: 1, total instructions: 15"),
        "{report}"
    );
    assert!(
        report.contains("simulation: 15 cycles, return Some(70)"),
        "{report}"
    );
    assert!(report.contains("acc = 70"), "{report}");
}

/// `--explain` describes AVIV's covering search, which the baseline
/// does not run, so `--baseline --explain` is refused; `--report`
/// prints the baseline's gap table.
#[test]
fn baseline_refuses_explain_only() {
    let assets = concat!(env!("CARGO_MANIFEST_DIR"), "/../../assets");
    let run = |flag: &str| {
        avivc()
            .args(["--machine", &format!("{assets}/fig3.isdl")])
            .arg(format!("{assets}/dot4.av"))
            .args(["--baseline", flag])
            .output()
            .unwrap()
    };
    let out = run("--explain");
    assert!(!out.status.success());
    assert!(out.stdout.is_empty());
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("does not support --baseline"), "{stderr}");
    let out = run("--report");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(out.status.success(), "{stderr}");
    assert!(stderr.contains("bb0: 14 "), "{stderr}");
}

/// The baseline's output passes the translation validator on every
/// bundled machine × program pair, the multi-block `sum_loop` included,
/// and is byte-identical at every worker count.
#[test]
fn baseline_validates_every_bundled_pair_at_any_jobs() {
    let assets = concat!(env!("CARGO_MANIFEST_DIR"), "/../../assets");
    for machine in ["fig3", "archII", "dsp_mac"] {
        for program in ["dot4", "sum_loop"] {
            let asm: Vec<Vec<u8>> = ["1", "4", "0"]
                .iter()
                .map(|jobs| {
                    let out = avivc()
                        .args(["--machine", &format!("{assets}/{machine}.isdl")])
                        .arg(format!("{assets}/{program}.av"))
                        .args(["--baseline", "--validate", "--jobs", jobs])
                        .output()
                        .unwrap();
                    let stderr = String::from_utf8_lossy(&out.stderr);
                    assert!(out.status.success(), "{machine}×{program}: {stderr}");
                    assert!(stderr.contains(", ok"), "{machine}×{program}: {stderr}");
                    out.stdout
                })
                .collect();
            assert!(asm[0].ends_with(b"ret r0.0 }\n"), "{machine}×{program}");
            assert_eq!(asm[0], asm[1], "{machine}×{program} --jobs 4");
            assert_eq!(asm[0], asm[2], "{machine}×{program} --jobs 0");
        }
    }
}

/// A constraint allowing none of its members would make each of them
/// illegal even alone; the machine is refused when read, with a
/// message, instead of compiling into a legalization that never ends.
#[test]
fn a_constraint_that_always_triggers_is_refused() {
    let dir = std::env::temp_dir().join("avivc_test_at_most_0");
    std::fs::create_dir_all(&dir).unwrap();
    let assets = concat!(env!("CARGO_MANIFEST_DIR"), "/../../assets");
    let fig3 = std::fs::read_to_string(format!("{assets}/fig3.isdl")).unwrap();
    let end = fig3.rfind('}').unwrap();
    let machine = dir.join("fig3_at_most_0.isdl");
    std::fs::write(
        &machine,
        format!(
            "{}    constraint at_most 0 {{ U3.mul, U2.mul }};\n}}\n",
            &fig3[..end]
        ),
    )
    .unwrap();
    let out = avivc()
        .args(["--machine", machine.to_str().unwrap()])
        .arg(format!("{assets}/dot4.av"))
        .args(["--fuel", "1000", "--timeout-ms", "500"])
        .output()
        .unwrap();
    assert_eq!(out.status.code(), Some(1));
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(
        stderr.contains("machine description: ISDL error at 11:5: E004 constraint #0"),
        "{stderr}"
    );
    // Lint refuses the machine too.
    let out = avivc()
        .args(["lint", machine.to_str().unwrap()])
        .output()
        .unwrap();
    assert_eq!(out.status.code(), Some(1));
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(
        stdout.contains("error[E004]") && stdout.contains("1 error"),
        "{stdout}"
    );
}
