//! The structured-diagnostic framework shared by the ISDL lint and the
//! pipeline invariant verifier.
//!
//! A [`Diagnostic`] pairs a stable [`Code`] with the machine element (or
//! pipeline location) it refers to and a one-line message. Codes are
//! namespaced by pass: `E`/`W` for machine-description lints, `V` for
//! pipeline invariants, `P` for source-program checks, `M` for
//! machine×program feasibility analysis, `T` for translation
//! validation of emitted assembly. The registry is
//! documented in `docs/diagnostics.md`; codes are append-only so tooling
//! can match on them.

use std::fmt;
use std::str::FromStr;

/// How serious a diagnostic is.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Severity {
    /// The subject is broken: the machine cannot compile some programs,
    /// or the pipeline violated an invariant the paper guarantees.
    Error,
    /// The subject is suspicious but usable.
    Warning,
}

impl fmt::Display for Severity {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Severity::Error => write!(f, "error"),
            Severity::Warning => write!(f, "warning"),
        }
    }
}

/// Stable diagnostic codes. See `docs/diagnostics.md` for the registry.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Code {
    /// Operation referenced by the machine with no implementing unit.
    E001,
    /// Register bank cannot exchange values with data memory.
    E002,
    /// Complex-instruction pattern that can never match any DAG.
    E003,
    /// Degenerate hardware resource (empty unit, zero-size bank, …).
    E004,
    /// Dead or shadowed data-transfer path.
    W001,
    /// Bank smaller than an instruction's register-operand needs.
    W002,
    /// Constraint that can never trigger.
    W003,
    /// Duplicate capability (op or complex listed twice).
    W004,
    /// Covering broke exactly-once: an IR op is covered by zero or
    /// several cover nodes, or the schedule dropped/duplicated a node.
    V001,
    /// Missing transfer: an operand is consumed from the wrong bank.
    V002,
    /// A scheduled step is not a pairwise-parallel clique.
    V003,
    /// Per-bank register pressure exceeds bank capacity at some step.
    V004,
    /// Emitted assembly reads a register before any write defines it.
    V005,
    /// Register allocation violation (bank, range, or live overlap).
    V006,
    /// Split-node alternative mapped to an incapable execution resource.
    V007,
    /// Malformed emitted program structure (branch target, slot, bus).
    V008,
    /// Use of a possibly-uninitialized variable: some path reaches the
    /// read without assigning it.
    P001,
    /// Basic block unreachable from the function entry.
    P002,
    /// Dead store: the value is overwritten on every path before any
    /// read observes it.
    P003,
    /// Function parameter whose incoming value is never read.
    P004,
    /// Redundant copy: a variable is stored back into itself.
    P005,
    /// Branch whose condition folds to a constant.
    P006,
    /// Lowered control flow is inconsistent: a pending branch target
    /// refers to a non-control instruction or an unknown block.
    C001,
    /// A block live-out value (branch condition or return value) was
    /// never materialized by covering.
    C002,
    /// Cover-graph construction received malformed input: a constant
    /// without an immediate, a variable node without a symbol, a node
    /// without a chosen alternative, or a machine with no transfer path
    /// between a used bank and memory.
    C003,
    /// The covering engine wedged or its spill machinery hit a defect:
    /// uncovered nodes with nothing ready, a spill victim producing no
    /// value, an empty candidate group set, or a node illegal on its
    /// own (no legal clique covers it).
    C004,
    /// A deterministic fault injected by the test harness
    /// (`CodegenOptions::faults`) was converted into a diagnostic.
    C005,
    /// Machine×program feasibility: a program operation has no
    /// implementing unit and no complex pattern covers it on the target
    /// machine, so covering must fail before it starts.
    M001,
    /// Machine×program feasibility: a def→use value route is missing —
    /// no transfer path (even via a memory round trip) connects any bank
    /// the producer can write to any bank the consumer can read, or the
    /// machine has no memory port at all for a value that must cross the
    /// memory boundary.
    M002,
    /// Complex-instruction alternative shadowed by another declaration
    /// with identical shape on the same unit at strictly lower cost: the
    /// costlier alternative can never win.
    W005,
    /// Emission received a malformed schedule or allocation: a unit
    /// double-booked within one instruction, an immediate where a
    /// register operand is required, or a cover node with no allocated
    /// register.
    C006,
    /// Translation validation: the emitted assembly text does not parse
    /// back under the grammar `VliwProgram::render` produces.
    T001,
    /// Translation validation: control structure of the emitted program
    /// disagrees with the source CFG (block boundaries, jump/branch
    /// targets, a stray or missing control field).
    T002,
    /// Translation validation: a named variable's value at block exit is
    /// not congruent to its source term.
    T003,
    /// Translation validation: the dynamic-memory state at block exit is
    /// not congruent to its source term.
    T004,
    /// Translation validation: a branch condition or return value is not
    /// congruent to its source term.
    T005,
    /// Translation validation: the emitted code reads a register no
    /// earlier packet of the block wrote (block-entry register contents
    /// are undefined; values cross blocks only through memory).
    T006,
    /// The compile was cancelled cooperatively: a `CancelToken` threaded
    /// through the compile budget was fired (by a client request, a
    /// dropped connection, or a server shutdown) and the in-flight
    /// search aborted at its next budget check.
    C007,
}

impl Code {
    /// The code as printed, e.g. `"E001"`.
    pub fn as_str(self) -> &'static str {
        match self {
            Code::E001 => "E001",
            Code::E002 => "E002",
            Code::E003 => "E003",
            Code::E004 => "E004",
            Code::W001 => "W001",
            Code::W002 => "W002",
            Code::W003 => "W003",
            Code::W004 => "W004",
            Code::V001 => "V001",
            Code::V002 => "V002",
            Code::V003 => "V003",
            Code::V004 => "V004",
            Code::V005 => "V005",
            Code::V006 => "V006",
            Code::V007 => "V007",
            Code::V008 => "V008",
            Code::P001 => "P001",
            Code::P002 => "P002",
            Code::P003 => "P003",
            Code::P004 => "P004",
            Code::P005 => "P005",
            Code::P006 => "P006",
            Code::C001 => "C001",
            Code::C002 => "C002",
            Code::C003 => "C003",
            Code::C004 => "C004",
            Code::C005 => "C005",
            Code::M001 => "M001",
            Code::M002 => "M002",
            Code::W005 => "W005",
            Code::C006 => "C006",
            Code::T001 => "T001",
            Code::T002 => "T002",
            Code::T003 => "T003",
            Code::T004 => "T004",
            Code::T005 => "T005",
            Code::T006 => "T006",
            Code::C007 => "C007",
        }
    }

    /// Every code's fixed severity. `W` codes warn; everything else is
    /// an error.
    pub fn severity(self) -> Severity {
        match self {
            Code::W001
            | Code::W002
            | Code::W003
            | Code::W004
            | Code::W005
            | Code::P002
            | Code::P003
            | Code::P004
            | Code::P005
            | Code::P006 => Severity::Warning,
            _ => Severity::Error,
        }
    }

    /// One-line explanation of what the code means, independent of any
    /// particular finding.
    pub fn explain(self) -> &'static str {
        match self {
            Code::E001 => "an operation is referenced but no functional unit implements it",
            Code::E002 => "a register bank has no data-transfer path to or from memory",
            Code::E003 => "a complex-instruction pattern can never match any expression DAG",
            Code::E004 => "a hardware resource is degenerate and unusable",
            Code::W001 => "a bus adds no connectivity beyond another bus and will never carry a transfer another could not",
            Code::W002 => "a register bank is smaller than the operand needs of an instruction executing on it",
            Code::W003 => "an instruction-legality constraint can never trigger",
            Code::W004 => "a capability is listed more than once",
            Code::V001 => "covering must select exactly one implementation for every IR operation and schedule every live cover node exactly once, after its dependencies",
            Code::V002 => "every cross-bank producer→consumer edge must carry an explicit transfer node",
            Code::V003 => "operations grouped into one VLIW step must be pairwise parallel",
            Code::V004 => "covering must keep per-bank register pressure within bank capacity",
            Code::V005 => "emitted assembly must define every register before reading it",
            Code::V006 => "detailed register allocation must respect banks, sizes, and lifetimes",
            Code::V007 => "every split-node alternative must map to an execution resource capable of the operation",
            Code::V008 => "the emitted VLIW program must be structurally well-formed",
            Code::P001 => "a variable is read on a path that never assigns it, so the value is whatever the memory cell held",
            Code::P002 => "a basic block can never execute: no path from the function entry reaches it",
            Code::P003 => "a stored value is overwritten on every path before anything reads it",
            Code::P004 => "a function parameter's incoming value is never read",
            Code::P005 => "a variable is stored back into itself, which moves no data",
            Code::P006 => "a branch condition evaluates to the same constant on every execution",
            Code::C001 => "control-flow lowering must attach every pending branch target to a control instruction of a known block",
            Code::C002 => "covering must leave every branch condition and return value in a register or immediate at block end",
            Code::C003 => "cover-graph construction requires well-formed DAG nodes, chosen alternatives, and memory-reachable banks",
            Code::C004 => "the covering engine must always have a ready node, a candidate group, and an evictable spill victim while work remains",
            Code::C005 => "a fault injected by the deterministic fault harness surfaced as a structured diagnostic instead of a crash",
            Code::M001 => "a program operation has no implementing unit and no complex pattern covering it on the target machine",
            Code::M002 => "no data-transfer route (even via a memory round trip) can carry a value from its producer's banks to its consumer's banks",
            Code::W005 => "a complex alternative is dominated by an identical-shape declaration on the same unit at strictly lower cost",
            Code::C006 => "emission must receive a well-formed schedule and allocation: one slot per unit per instruction, register operands where the field requires a register, and an allocated register for every value-producing cover node",
            Code::T001 => "emitted assembly must parse back under the grammar the emitter prints",
            Code::T002 => "the emitted program's control structure must mirror the source CFG block for block",
            Code::T003 => "every named variable's block-exit value in the emitted code must be congruent to its source term",
            Code::T004 => "the dynamic-memory state at block exit in the emitted code must be congruent to its source term",
            Code::T005 => "every branch condition and return value in the emitted code must be congruent to its source term",
            Code::T006 => "emitted code must write a register before reading it within the block; block-entry register contents are undefined",
            Code::C007 => "a cancelled compile must abort at its next budget check without caching or emitting anything",
        }
    }
}

impl fmt::Display for Code {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.as_str())
    }
}

/// One finding: a coded defect at a specific machine element or pipeline
/// location.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Diagnostic {
    /// The stable code identifying the class of defect.
    pub code: Code,
    /// The machine element or pipeline location the finding refers to,
    /// e.g. `"bank RF2"` or `"block 1, step 3"`.
    pub element: String,
    /// What is wrong with this particular element.
    pub message: String,
}

impl Diagnostic {
    /// Build a diagnostic.
    pub fn new(code: Code, element: impl Into<String>, message: impl Into<String>) -> Diagnostic {
        Diagnostic {
            code,
            element: element.into(),
            message: message.into(),
        }
    }

    /// The code's severity.
    pub fn severity(&self) -> Severity {
        self.code.severity()
    }

    /// One finding as a JSON object (hand-rolled; no serde in tree).
    pub fn to_json(&self) -> String {
        format!(
            "{{\"code\":\"{}\",\"severity\":\"{}\",\"element\":\"{}\",\"message\":\"{}\",\"explanation\":\"{}\"}}",
            self.code,
            self.severity(),
            json_escape(&self.element),
            json_escape(&self.message),
            json_escape(self.code.explain()),
        )
    }
}

impl fmt::Display for Diagnostic {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}[{}]: {}: {}",
            self.severity(),
            self.code,
            self.element,
            self.message
        )
    }
}

/// Output format for [`render_report`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Format {
    /// One human-readable line per finding plus a summary line.
    #[default]
    Text,
    /// A single JSON document for tooling.
    Json,
}

impl FromStr for Format {
    type Err = String;

    fn from_str(s: &str) -> Result<Format, String> {
        match s {
            "text" => Ok(Format::Text),
            "json" => Ok(Format::Json),
            other => Err(format!("unknown format `{other}` (expected text or json)")),
        }
    }
}

/// Render a batch of findings in the requested format. Errors sort
/// before warnings; within a severity the original order is kept.
pub fn render_report(diags: &[Diagnostic], format: Format) -> String {
    let mut sorted: Vec<&Diagnostic> = diags.iter().collect();
    sorted.sort_by_key(|d| d.severity());
    let errors = diags
        .iter()
        .filter(|d| d.severity() == Severity::Error)
        .count();
    let warnings = diags.len() - errors;
    match format {
        Format::Text => {
            let mut out = String::new();
            for d in &sorted {
                out.push_str(&d.to_string());
                out.push('\n');
            }
            out.push_str(&format!(
                "{} error{}, {} warning{}\n",
                errors,
                if errors == 1 { "" } else { "s" },
                warnings,
                if warnings == 1 { "" } else { "s" },
            ));
            out
        }
        Format::Json => {
            let items: Vec<String> = sorted.iter().map(|d| d.to_json()).collect();
            format!(
                "{{\"errors\":{errors},\"warnings\":{warnings},\"diagnostics\":[{}]}}\n",
                items.join(",")
            )
        }
    }
}

/// Escape a string for embedding in a JSON string literal (quotes not
/// included). The workspace's one JSON string escaper: `aviv::jsonv`
/// re-exports it as `escape`, and its parser inverts it.
pub fn json_escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn codes_round_trip_severity() {
        assert_eq!(Code::E001.severity(), Severity::Error);
        assert_eq!(Code::W002.severity(), Severity::Warning);
        assert_eq!(Code::V005.severity(), Severity::Error);
    }

    #[test]
    fn text_report_sorts_errors_first() {
        let diags = vec![
            Diagnostic::new(Code::W001, "bus X", "shadowed"),
            Diagnostic::new(Code::E002, "bank RF1", "orphan"),
        ];
        let text = render_report(&diags, Format::Text);
        let e = text.find("error[E002]").unwrap();
        let w = text.find("warning[W001]").unwrap();
        assert!(e < w);
        assert!(text.contains("1 error, 1 warning"));
    }

    #[test]
    fn json_report_escapes_and_counts() {
        let diags = vec![Diagnostic::new(Code::E001, "op \"mul\"", "line1\nline2")];
        let json = render_report(&diags, Format::Json);
        assert!(json.contains("\"errors\":1"));
        assert!(json.contains("op \\\"mul\\\""));
        assert!(json.contains("line1\\nline2"));
    }

    #[test]
    fn format_parses() {
        assert_eq!("json".parse::<Format>().unwrap(), Format::Json);
        assert_eq!("text".parse::<Format>().unwrap(), Format::Text);
        assert!("yaml".parse::<Format>().is_err());
    }
}
