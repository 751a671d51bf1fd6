//! Snapshot tests: each seeded-defect fixture under
//! `crates/isdl/tests/fixtures/` must produce exactly the diagnostic codes
//! it was written to demonstrate — no more, no fewer — and the codes must
//! be stable across releases (they are part of the tool's interface).

use aviv_verify::{lint_machine, render_report, Code, Format};
use std::fs;
use std::path::{Path, PathBuf};

fn fixture(name: &str) -> String {
    let path: PathBuf = Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("../isdl/tests/fixtures")
        .join(name);
    fs::read_to_string(&path).unwrap_or_else(|e| panic!("cannot read {}: {e}", path.display()))
}

fn codes_for(name: &str) -> Vec<Code> {
    let machine = aviv_isdl::parse_machine_unchecked(&fixture(name)).unwrap();
    lint_machine(&machine).into_iter().map(|d| d.code).collect()
}

#[test]
fn orphan_bank_reports_e002() {
    let codes = codes_for("orphan_bank.isdl");
    assert_eq!(codes, vec![Code::E002], "orphan_bank.isdl: {codes:?}");
}

#[test]
fn uncoverable_op_reports_e001() {
    let codes = codes_for("uncoverable_op.isdl");
    assert_eq!(codes, vec![Code::E001], "uncoverable_op.isdl: {codes:?}");
}

#[test]
fn dead_complex_reports_e003() {
    let codes = codes_for("dead_complex.isdl");
    assert_eq!(codes, vec![Code::E003], "dead_complex.isdl: {codes:?}");
}

#[test]
fn at_most_zero_reports_e004() {
    let codes = codes_for("at_most_zero.isdl");
    assert_eq!(codes, vec![Code::E004], "at_most_zero.isdl: {codes:?}");
}

#[test]
fn duplicate_endpoint_bus_reports_e004() {
    let codes = codes_for("duplicate_endpoint_bus.isdl");
    assert_eq!(
        codes,
        vec![Code::E004, Code::W004, Code::W001],
        "duplicate_endpoint_bus.isdl: {codes:?}"
    );
}

#[test]
fn inert_constraint_reports_w003_only() {
    let codes = codes_for("inert_constraint.isdl");
    assert_eq!(codes, vec![Code::W003], "inert_constraint.isdl: {codes:?}");
}

#[test]
fn orphan_bank_text_report_snapshot() {
    let machine = aviv_isdl::parse_machine_unchecked(&fixture("orphan_bank.isdl")).unwrap();
    let report = render_report(&lint_machine(&machine), Format::Text);
    assert!(report.contains("error[E002]"), "{report}");
    assert!(report.contains("RF2"), "{report}");
    assert!(report.ends_with("1 error, 0 warnings\n"), "{report}");
}

#[test]
fn json_reports_carry_codes_and_explanations() {
    for (name, code) in [
        ("orphan_bank.isdl", "E002"),
        ("uncoverable_op.isdl", "E001"),
        ("dead_complex.isdl", "E003"),
    ] {
        let machine = aviv_isdl::parse_machine_unchecked(&fixture(name)).unwrap();
        let report = render_report(&lint_machine(&machine), Format::Json);
        assert!(
            report.contains(&format!("\"code\":\"{code}\"")),
            "{name}: {report}"
        );
        assert!(report.contains("\"explanation\":"), "{name}: {report}");
        assert!(report.contains("\"errors\":1"), "{name}: {report}");
    }
}

#[test]
fn all_shipped_assets_lint_clean() {
    let dir = Path::new(env!("CARGO_MANIFEST_DIR")).join("../../assets");
    let mut linted = 0;
    for entry in fs::read_dir(&dir).unwrap() {
        let path = entry.unwrap().path();
        if path.extension().and_then(|e| e.to_str()) != Some("isdl") {
            continue;
        }
        let machine = aviv_isdl::parse_machine(&fs::read_to_string(&path).unwrap()).unwrap();
        let diags = lint_machine(&machine);
        assert!(diags.is_empty(), "{}: {diags:?}", path.display());
        linted += 1;
    }
    assert!(linted > 0, "no .isdl assets found under {}", dir.display());
}
