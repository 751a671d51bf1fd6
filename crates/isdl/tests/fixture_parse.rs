//! The fixtures under `tests/fixtures/` feed the verifier-crate snapshot
//! tests. This file pins which of them the strict parser refuses: every
//! fixture with an error-coded defect, at that defect's declaration,
//! while the unchecked parse accepts them so the linter can see them.
//! A syntax error (`trailing_input.isdl`) fails both parses.

use aviv_isdl::{parse_machine, parse_machine_unchecked};
use std::fs;
use std::path::{Path, PathBuf};

fn fixture(name: &str) -> String {
    let path: PathBuf = Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("tests/fixtures")
        .join(name);
    fs::read_to_string(&path).unwrap_or_else(|e| panic!("cannot read {}: {e}", path.display()))
}

#[test]
fn fixtures_with_errors_are_refused_at_the_defect() {
    for (name, line, col, start) in [
        ("orphan_bank.isdl", 5, 32, "E002 bank RF2: "),
        ("uncoverable_op.isdl", 8, 5, "E001 complex mac: "),
        ("dead_complex.isdl", 8, 5, "E003 complex dead: "),
        ("at_most_zero.isdl", 11, 5, "E004 constraint #0: "),
        ("duplicate_endpoint_bus.isdl", 10, 5, "E004 bus X: "),
    ] {
        let src = fixture(name);
        let err = parse_machine(&src).expect_err(name);
        assert!(err.msg.starts_with(start), "{name}: {err}");
        assert_eq!((err.line, err.col), (line, col), "{name}: {err}");
        parse_machine_unchecked(&src).unwrap_or_else(|e| panic!("{name}: {e}"));
    }
}

/// Input after the machine's closing brace is a syntax error for both
/// parses, so the lint and the loader refuse it together.
#[test]
fn input_after_the_machine_is_refused_by_both_parses() {
    let src = fixture("trailing_input.isdl");
    for err in [
        parse_machine(&src).map(|_| ()).unwrap_err(),
        parse_machine_unchecked(&src).map(|_| ()).unwrap_err(),
    ] {
        assert!(err.msg.starts_with("expected end of input"), "{err}");
        assert_eq!((err.line, err.col), (12, 1), "{err}");
    }
}

#[test]
fn a_constraint_that_can_never_trigger_loads() {
    let machine = parse_machine(&fixture("inert_constraint.isdl")).unwrap();
    assert_eq!(machine.constraints().len(), 1);
}
