//! # aviv-cli — command-line driver for the AVIV code generator
//!
//! The `avivc` binary ties the toolchain together the way the paper's
//! Fig. 1 draws it: a machine description and a source program in, and —
//! depending on the flags — assembly, a binary, Graphviz, statistics, or
//! a simulation out.
//!
//! ```text
//! avivc --machine fig3.isdl program.av              # print assembly
//! avivc --machine fig3.isdl program.av --emit bin -o prog.bin
//! avivc --machine fig3.isdl program.av --emit dot   # cover-graph graphviz
//! avivc --machine fig3.isdl program.av --simulate a=3,b=4
//! avivc --machine fig3.isdl program.av --stats --explain
//! avivc --machine fig3.isdl program.av --baseline   # sequential codegen
//! avivc --machine fig3.isdl program.av --verify     # invariant-checked
//! avivc lint fig3.isdl                              # machine lint
//! avivc lint fig3.isdl --format json
//! avivc check program.av                            # program dataflow check
//! avivc check program.av --machine fig3.isdl --deny-warnings
//! avivc analyze program.av --machine fig3.isdl      # feasibility pre-flight
//! avivc analyze program.av --machine fig3.isdl --format json
//! ```
//!
//! The argument parser is deliberately dependency-free; see
//! [`Command::parse`] for the accepted grammar.

#![warn(missing_docs)]

pub mod serve;

use aviv::verify::{
    analyze_program, check_program, lint_machine, render_analysis, render_report, validate_asm,
    Format, Severity,
};
use aviv::{CodeGenerator, CodegenError, CodegenOptions, CompileReport, VliwProgram};
use aviv_ir::{parse_function, Function};
use aviv_isdl::{parse_machine, parse_machine_unchecked, Target};
use std::fmt::Write as _;

/// What the driver should produce.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Emit {
    /// Assembly text (default).
    Asm,
    /// Binary: the `Rom` stream behind a header (machine fingerprint,
    /// variables, block starts) that `aviv_vm::disassemble` loads back.
    Bin,
    /// Raw bit-packed ROM image (machine-derived field widths).
    Rom,
    /// Graphviz of the scheduled cover graph of the first block.
    Dot,
    /// Graphviz of the Split-Node DAG of the first block.
    SndagDot,
    /// ISDL echo of the parsed machine (round-trip check).
    Isdl,
}

/// Parsed command-line options.
#[derive(Debug, Clone)]
pub struct Options {
    /// Path to the machine description.
    pub machine_path: String,
    /// Path to the source program.
    pub program_path: String,
    /// Additional program paths (batch mode): every program is compiled
    /// for the same machine, across the worker pool when `--jobs` is not
    /// 1, and the outputs are concatenated in argument order.
    pub extra_programs: Vec<String>,
    /// What to emit.
    pub emit: Emit,
    /// Output path (`-` or absent = stdout).
    pub output: Option<String>,
    /// Heuristic preset: "on" (default), "thorough", or "off".
    pub preset: String,
    /// Worker threads for per-block covering: 1 = sequential (default),
    /// 0 = one per available core. Output is identical for any value.
    pub jobs: usize,
    /// Simulate with `name=value` bindings after compiling.
    pub simulate: Option<Vec<(String, i64)>>,
    /// Print utilization statistics.
    pub stats: bool,
    /// Print the per-block compilation explanation.
    pub explain: bool,
    /// Print the per-block optimality-gap table: achieved instruction
    /// count and peak pressure against the static lower bounds from
    /// `aviv_verify::analyze`.
    pub report: bool,
    /// Plan with the sequential phase-ordered comparator instead of
    /// AVIV (`CodegenOptions::phase_ordered`).
    pub baseline: bool,
    /// Force the pipeline invariant verifier on (it already defaults on
    /// in debug builds).
    pub verify: bool,
    /// Run the translation validator on the emitted assembly: re-parse
    /// it and prove every block's exit-live values congruent to the
    /// source function (`T` diagnostics on divergence).
    pub validate: bool,
    /// Node-expansion fuel per block per degradation-ladder rung
    /// (`None` = unlimited).
    pub fuel: Option<u64>,
    /// Wall-clock deadline for the whole compile in milliseconds
    /// (`None` = no deadline).
    pub timeout_ms: Option<u64>,
}

/// What `avivc` was asked to do.
#[derive(Debug, Clone)]
pub enum Command {
    /// Compile a program for a machine (the default mode).
    Compile(Options),
    /// `avivc lint <machine.isdl>`: statically analyze a machine
    /// description and report coded diagnostics.
    Lint(LintOptions),
    /// `avivc check <program.av>`: statically analyze a source program
    /// with the global dataflow framework and report coded diagnostics.
    Check(CheckOptions),
    /// `avivc analyze <program.av> --machine <m.isdl>`: machine×program
    /// feasibility pre-flight with `M`-coded diagnostics and admissible
    /// per-block lower bounds.
    Analyze(AnalyzeOptions),
}

/// Options for the `lint` subcommand.
#[derive(Debug, Clone)]
pub struct LintOptions {
    /// Path to the machine description to lint.
    pub machine_path: String,
    /// Report format.
    pub format: Format,
    /// Exit nonzero on warnings, not just errors.
    pub deny_warnings: bool,
}

/// Options for the `check` subcommand.
#[derive(Debug, Clone)]
pub struct CheckOptions {
    /// Path to the source program to check.
    pub program_path: String,
    /// Optional machine description: when present, the program is also
    /// compiled for that machine with the pipeline invariant verifier
    /// on, and any `V` diagnostics join the report.
    pub machine_path: Option<String>,
    /// Report format.
    pub format: Format,
    /// Exit nonzero on warnings, not just errors.
    pub deny_warnings: bool,
}

/// Options for the `analyze` subcommand.
#[derive(Debug, Clone)]
pub struct AnalyzeOptions {
    /// Path to the source program to analyze.
    pub program_path: String,
    /// Path to the machine description to analyze against (required —
    /// feasibility is a property of the pair).
    pub machine_path: String,
    /// Report format.
    pub format: Format,
    /// Exit nonzero on warnings, not just errors.
    pub deny_warnings: bool,
}

impl Command {
    /// Parse an argument vector (without the program name), dispatching
    /// on the `lint` subcommand.
    ///
    /// # Errors
    ///
    /// Returns a [`CliError`] describing the first problem.
    pub fn parse(args: &[String]) -> Result<Command, CliError> {
        if args.first().is_some_and(|a| a == "lint") {
            let mut machine_path = None;
            let mut format = Format::Text;
            let mut deny_warnings = false;
            let mut it = args[1..].iter();
            while let Some(a) = it.next() {
                match a.as_str() {
                    "-h" | "--help" => return Err(err(USAGE)),
                    "--format" => {
                        let f = it.next().ok_or_else(|| err("--format needs text|json"))?;
                        format = f.parse().map_err(err)?;
                    }
                    "--deny-warnings" => deny_warnings = true,
                    other if !other.starts_with('-') && machine_path.is_none() => {
                        machine_path = Some(other.to_string());
                    }
                    other => return Err(err(format!("unknown argument `{other}`\n{USAGE}"))),
                }
            }
            Ok(Command::Lint(LintOptions {
                machine_path: machine_path.ok_or_else(|| err("lint needs a machine path"))?,
                format,
                deny_warnings,
            }))
        } else if args.first().is_some_and(|a| a == "check") {
            let mut program_path = None;
            let mut machine_path = None;
            let mut format = Format::Text;
            let mut deny_warnings = false;
            let mut it = args[1..].iter();
            while let Some(a) = it.next() {
                match a.as_str() {
                    "-h" | "--help" => return Err(err(USAGE)),
                    "--format" => {
                        let f = it.next().ok_or_else(|| err("--format needs text|json"))?;
                        format = f.parse().map_err(err)?;
                    }
                    "--machine" => {
                        machine_path = Some(
                            it.next()
                                .ok_or_else(|| err("--machine needs a path"))?
                                .clone(),
                        );
                    }
                    "--deny-warnings" => deny_warnings = true,
                    other if !other.starts_with('-') && program_path.is_none() => {
                        program_path = Some(other.to_string());
                    }
                    other => return Err(err(format!("unknown argument `{other}`\n{USAGE}"))),
                }
            }
            Ok(Command::Check(CheckOptions {
                program_path: program_path.ok_or_else(|| err("check needs a program path"))?,
                machine_path,
                format,
                deny_warnings,
            }))
        } else if args.first().is_some_and(|a| a == "analyze") {
            let mut program_path = None;
            let mut machine_path = None;
            let mut format = Format::Text;
            let mut deny_warnings = false;
            let mut it = args[1..].iter();
            while let Some(a) = it.next() {
                match a.as_str() {
                    "-h" | "--help" => return Err(err(USAGE)),
                    "--format" => {
                        let f = it.next().ok_or_else(|| err("--format needs text|json"))?;
                        format = f.parse().map_err(err)?;
                    }
                    "--machine" => {
                        machine_path = Some(
                            it.next()
                                .ok_or_else(|| err("--machine needs a path"))?
                                .clone(),
                        );
                    }
                    "--deny-warnings" => deny_warnings = true,
                    other if !other.starts_with('-') && program_path.is_none() => {
                        program_path = Some(other.to_string());
                    }
                    other => return Err(err(format!("unknown argument `{other}`\n{USAGE}"))),
                }
            }
            Ok(Command::Analyze(AnalyzeOptions {
                program_path: program_path.ok_or_else(|| err("analyze needs a program path"))?,
                machine_path: machine_path
                    .ok_or_else(|| err("analyze needs --machine <file.isdl>"))?,
                format,
                deny_warnings,
            }))
        } else {
            Options::parse(args).map(Command::Compile)
        }
    }
}

/// A user-facing driver error.
#[derive(Debug)]
pub struct CliError(pub String);

impl std::fmt::Display for CliError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(&self.0)
    }
}

impl std::error::Error for CliError {}

fn err(msg: impl Into<String>) -> CliError {
    CliError(msg.into())
}

/// Usage text.
pub const USAGE: &str = "\
usage: avivc --machine <file.isdl> <program.av> [more.av ...] [options]
       avivc lint <file.isdl> [--format text|json] [--deny-warnings]
       avivc check <program.av> [--machine <file.isdl>]
                                [--format text|json] [--deny-warnings]
       avivc analyze <program.av> --machine <file.isdl>
                                [--format text|json] [--deny-warnings]

options:
  --emit asm|bin|rom|dot|sndag-dot|isdl
                                      what to produce (default: asm);
                                      bin is the rom stream plus the
                                      header that loads it back
  -o, --output <path>                 write to a file instead of stdout
  --preset on|thorough|off            heuristic preset (default: on)
  --jobs <n>                          worker threads (1 = sequential,
                                      0 = one per core; default: 1).
                                      With one program the pool covers
                                      blocks; with several programs it
                                      covers whole programs. The output
                                      is identical for every value
  --simulate k=v[,k=v...]             run the program with these inputs
  --stats                             print utilization statistics
  --explain                           print per-block decisions (the
                                      schedule of the compile that
                                      produced the output)
  --report                            print the per-block optimality-gap
                                      table: achieved instructions and
                                      peak pressure vs the static lower
                                      bounds
  --baseline                          plan with the sequential
                                      phase-ordered comparator instead
                                      of AVIV; every other option
                                      applies but --explain, which has
                                      no search to explain
  --verify                            run the pipeline invariant verifier
                                      (default in debug builds); compile
                                      fails on any violation
  --validate                          re-parse the emitted assembly and
                                      statically prove every block's
                                      exit-live values congruent to the
                                      source function; the compile fails
                                      with `T` diagnostics on divergence
  --fuel <n>                          node-expansion fuel per block per
                                      degradation-ladder rung; on
                                      exhaustion the block falls back to
                                      simpler covering modes and the
                                      downgrade is reported (default:
                                      unlimited)
  --timeout-ms <n>                    wall-clock deadline for the whole
                                      compile; blocks still in flight
                                      when it passes degrade like fuel
                                      exhaustion (default: none)
  --format text|json                  lint/check report format
                                      (default: text)
  --deny-warnings                     lint/check exit nonzero on
                                      warnings, not just errors
  -h, --help                          this text

`avivc lint` statically analyzes a machine description and reports coded
diagnostics (see docs/diagnostics.md); it exits nonzero when any
error-severity finding is reported (or any finding at all under
`--deny-warnings`).

Passing several program paths compiles each of them for the same
machine (batch mode) and concatenates the assembly in argument order,
each chunk under a `; program <name>` banner. Batch mode supports
`--emit asm` only.

`avivc check` statically analyzes a source program with the global
dataflow framework — uninitialized uses, unreachable blocks, dead
stores, unused parameters, redundant copies, constant branches — and
reports `P`-coded diagnostics under the same exit-code contract. With
`--machine`, the program is additionally compiled for that machine with
the pipeline invariant verifier on.

`avivc --validate` runs the translation validator on every compile: the
emitted assembly is parsed back and each block's exit-live values are
proven congruent to the source IR over symbolic terms (see
docs/diagnostics.md, `T` codes). A clean run adds a one-line
`validate: ...` report; divergence fails the compile with the full
`T`-coded report.

`avivc analyze` runs the machine×program feasibility pre-flight: it
proves every operation coverable and every def→use value route present
on the given machine, reporting `M`-coded errors naming the exact node,
op, and bank pair otherwise, and prints admissible per-block lower
bounds on instruction count and register pressure. Exit status follows
the lint/check contract: nonzero on any error-severity finding, or on
any finding at all under `--deny-warnings`.
";

impl Options {
    /// Parse an argument vector (without the program name).
    ///
    /// # Errors
    ///
    /// Returns a [`CliError`] describing the first problem; `--help`
    /// yields an error carrying the usage text.
    pub fn parse(args: &[String]) -> Result<Options, CliError> {
        let mut machine_path = None;
        let mut program_path = None;
        let mut extra_programs = Vec::new();
        let mut emit = Emit::Asm;
        let mut output = None;
        let mut preset = "on".to_string();
        let mut jobs = 1usize;
        let mut simulate = None;
        let mut stats = false;
        let mut explain = false;
        let mut report = false;
        let mut baseline = false;
        let mut verify = false;
        let mut validate = false;
        let mut fuel = None;
        let mut timeout_ms = None;

        let mut it = args.iter();
        while let Some(a) = it.next() {
            match a.as_str() {
                "-h" | "--help" => return Err(err(USAGE)),
                "--machine" => {
                    machine_path = Some(
                        it.next()
                            .ok_or_else(|| err("--machine needs a path"))?
                            .clone(),
                    );
                }
                "--emit" => {
                    let kind = it.next().ok_or_else(|| err("--emit needs a kind"))?;
                    emit = match kind.as_str() {
                        "asm" => Emit::Asm,
                        "bin" => Emit::Bin,
                        "rom" => Emit::Rom,
                        "dot" => Emit::Dot,
                        "sndag-dot" => Emit::SndagDot,
                        "isdl" => Emit::Isdl,
                        other => return Err(err(format!("unknown emit kind `{other}`"))),
                    };
                }
                "-o" | "--output" => {
                    output = Some(
                        it.next()
                            .ok_or_else(|| err("--output needs a path"))?
                            .clone(),
                    );
                }
                "--preset" => {
                    preset = it
                        .next()
                        .ok_or_else(|| err("--preset needs a name"))?
                        .clone();
                    if CodegenOptions::preset(&preset).is_none() {
                        return Err(err(format!("unknown preset `{preset}`")));
                    }
                }
                "--jobs" => {
                    let n = it.next().ok_or_else(|| err("--jobs needs a count"))?;
                    jobs = n
                        .parse()
                        .map_err(|_| err(format!("bad worker count `{n}`")))?;
                }
                "--simulate" => {
                    let spec = it.next().ok_or_else(|| err("--simulate needs k=v list"))?;
                    let mut bindings = Vec::new();
                    for pair in spec.split(',').filter(|s| !s.is_empty()) {
                        let (k, v) = pair
                            .split_once('=')
                            .ok_or_else(|| err(format!("bad binding `{pair}`")))?;
                        let v: i64 = v
                            .parse()
                            .map_err(|_| err(format!("bad value in `{pair}`")))?;
                        bindings.push((k.to_string(), v));
                    }
                    simulate = Some(bindings);
                }
                "--fuel" => {
                    let n = it.next().ok_or_else(|| err("--fuel needs a unit count"))?;
                    fuel = Some(
                        n.parse()
                            .map_err(|_| err(format!("bad fuel count `{n}`")))?,
                    );
                }
                "--timeout-ms" => {
                    let n = it
                        .next()
                        .ok_or_else(|| err("--timeout-ms needs milliseconds"))?;
                    timeout_ms = Some(n.parse().map_err(|_| err(format!("bad timeout `{n}`")))?);
                }
                "--stats" => stats = true,
                "--explain" => explain = true,
                "--report" => report = true,
                "--baseline" => baseline = true,
                "--verify" => verify = true,
                "--validate" => validate = true,
                other if !other.starts_with('-') && program_path.is_none() => {
                    program_path = Some(other.to_string());
                }
                other if !other.starts_with('-') => {
                    extra_programs.push(other.to_string());
                }
                other => return Err(err(format!("unknown argument `{other}`\n{USAGE}"))),
            }
        }
        if baseline && explain {
            return Err(err(
                "--explain does not support --baseline (the baseline runs \
                 no covering search to explain)",
            ));
        }
        Ok(Options {
            machine_path: machine_path.ok_or_else(|| err("missing --machine"))?,
            program_path: program_path.ok_or_else(|| err("missing program path"))?,
            extra_programs,
            emit,
            output,
            preset,
            jobs,
            simulate,
            stats,
            explain,
            report,
            baseline,
            verify,
            validate,
            fuel,
            timeout_ms,
        })
    }
}

/// The driver's product: the bytes/text to write plus log lines for
/// stderr-style reporting.
#[derive(Debug, Default)]
pub struct Outcome {
    /// Primary output (respecting `--emit`).
    pub output: Vec<u8>,
    /// Human-readable report lines (stats, explanation, simulation).
    pub report: String,
}

/// Run the driver on in-memory sources (the testable core of `main`).
///
/// Every view of the compile (`--explain`, `--report`, `--stats`,
/// `--emit dot`) reads the one compile whose code is emitted.
///
/// # Errors
///
/// Returns a [`CliError`] with a user-facing message.
pub fn drive(options: &Options, machine_src: &str, program_src: &str) -> Result<Outcome, CliError> {
    let machine =
        parse_machine(machine_src).map_err(|e| err(format!("machine description: {e}")))?;
    let function = parse_function(program_src).map_err(|e| err(format!("program: {e}")))?;

    if options.emit == Emit::Isdl {
        return Ok(Outcome {
            output: aviv_isdl::to_isdl(&machine).into_bytes(),
            report: String::new(),
        });
    }

    let generator = CodeGenerator::new(machine).options(build_preset(options));
    let target = generator.target();
    let mut outcome = Outcome::default();

    // The Split-Node DAG precedes covering: draw it from the
    // dead-code-free function that `compile_function` would compile.
    if options.emit == Emit::SndagDot {
        let planned = generator.planned_function(&function);
        let dag = &planned.blocks[0].dag;
        let sndag = aviv_splitdag::SplitNodeDag::build(dag, target)
            .map_err(|e| err(format!("unsupported: {e}")))?;
        outcome.output = aviv_splitdag::sndag_to_dot(&sndag, dag, target).into_bytes();
        return Ok(outcome);
    }

    let (program, report) = generator
        .compile_function(&function)
        .map_err(|e| err(format!("compile: {e}")))?;
    let asm = report_compile(
        options,
        "",
        &function,
        target,
        &program,
        &report,
        &mut outcome.report,
    )?;
    if let Some(bindings) = &options.simulate {
        run_simulation(target, &program, bindings, &mut outcome)?;
    }

    outcome.output = if options.emit == Emit::Dot {
        let plan = &report.plans[0];
        aviv::covergraph_to_dot(plan.graph(), target, &program, Some(plan.schedule())).into_bytes()
    } else {
        emit_code(options.emit, target, &program, asm, &mut outcome.report)?
    };
    Ok(outcome)
}

/// The `asm`, `bin` or `rom` output of a program: `asm` is the assembly
/// if already rendered, and `--emit rom` adds its size line to `report`.
fn emit_code(
    emit: Emit,
    target: &Target,
    program: &VliwProgram,
    asm: Option<String>,
    report: &mut String,
) -> Result<Vec<u8>, CliError> {
    Ok(match emit {
        Emit::Bin => {
            aviv_vm::assemble(target, program).map_err(|e| err(format!("assemble: {e}")))?
        }
        Emit::Rom => {
            let (bytes, bits) = aviv_vm::encode_packed(target, program)
                .map_err(|e| err(format!("packed encoding: {e}")))?;
            let _ = writeln!(
                report,
                "ROM image: {bits} bits ({} bytes, {} instructions)",
                bytes.len(),
                program.instructions.len()
            );
            bytes
        }
        Emit::Asm => asm.unwrap_or_else(|| program.render(target)).into_bytes(),
        Emit::Dot | Emit::SndagDot | Emit::Isdl => unreachable!("drawn by `drive`"),
    })
}

/// Append one compiled program's report lines to `out`, each prefixed
/// with `prefix` (`"<name>: "` in batch mode): degradation notes, then
/// `--validate`, `--report`, `--explain` and `--stats` as requested.
/// Returns the rendered assembly when `--emit asm` or `--validate` needs
/// it, so it is rendered once.
///
/// # Errors
///
/// Fails when `--validate` finds the assembly diverging from `function`.
fn report_compile(
    options: &Options,
    prefix: &str,
    function: &Function,
    target: &Target,
    program: &VliwProgram,
    report: &CompileReport,
    out: &mut String,
) -> Result<Option<String>, CliError> {
    // Surface every degradation-ladder step: a budgeted compile that
    // stepped down still succeeds, but never silently.
    for d in &report.downgrades {
        let _ = writeln!(out, "{prefix}downgrade: {d}");
    }
    if !report.complete {
        let _ = writeln!(
            out,
            "{prefix}note: compile incomplete under the given budget; output \
             is correct but may be slower than an unbudgeted compile"
        );
    }
    let asm = (options.emit == Emit::Asm || options.validate).then(|| program.render(target));
    if let Some(asm) = asm.as_deref().filter(|_| options.validate) {
        let (blocks, obligations) =
            check_translation(function, asm, target).map_err(|e| err(format!("{prefix}{e}")))?;
        let _ = writeln!(
            out,
            "{prefix}validate: {blocks} block(s), {obligations} obligation(s), ok"
        );
    }
    if options.report {
        let _ = writeln!(
            out,
            "{prefix}block  instrs  bound  gap  pressure  bound  gap  rollouts  steps  hits  cut  cliq  prun"
        );
        for (bi, b) in report.blocks.iter().enumerate() {
            let _ = writeln!(
                out,
                "{prefix}bb{bi}: {} {} {} {} {} {} {} {} {} {} {} {}",
                b.instructions,
                b.min_instructions_bound,
                b.instructions.saturating_sub(b.min_instructions_bound),
                b.peak_pressure,
                b.min_pressure_bound,
                b.peak_pressure.saturating_sub(b.min_pressure_bound),
                b.search.rollouts,
                b.search.rollout_steps,
                b.search.memo_hits,
                b.search.rollouts_cut,
                b.search.clique_steps,
                b.search.assignments_pruned,
            );
        }
    }
    if options.explain {
        for (bi, (plan, b)) in report.plans.iter().zip(&report.blocks).enumerate() {
            let _ = writeln!(out, "{prefix}--- block bb{bi} ---");
            push_prefixed(
                out,
                prefix,
                &aviv::explain_block(plan.graph(), plan.schedule(), b, target, program),
            );
        }
    }
    if options.stats {
        push_prefixed(
            out,
            prefix,
            &aviv_vm::program_stats(target, program).render(target),
        );
        let _ = writeln!(
            out,
            "{prefix}blocks: {}, total instructions: {}",
            report.blocks.len(),
            report.total_instructions
        );
    }
    Ok(asm)
}

/// Append `text` to `out` with `prefix` before each of its lines.
fn push_prefixed(out: &mut String, prefix: &str, text: &str) {
    for line in text.split_inclusive('\n') {
        out.push_str(prefix);
        out.push_str(line);
    }
}

/// Run the translation validator on rendered assembly: the number of
/// blocks and obligations it proved, or the failure message with the
/// full `T`-coded report. `avivc --validate` and avivd's `validate`
/// share it.
pub(crate) fn check_translation(
    function: &Function,
    asm: &str,
    target: &Target,
) -> Result<(usize, usize), String> {
    let tv = validate_asm(function, asm, &target.machine);
    if tv.ok() {
        Ok((tv.blocks, tv.obligations))
    } else {
        Err(format!(
            "validate: emitted assembly diverges from the source\n{}",
            render_report(&tv.diagnostics, Format::Text)
        ))
    }
}

/// The codegen options `options` asks for. An unknown preset name
/// (refused by [`Options::parse`]) falls back to the default preset.
fn build_preset(options: &Options) -> CodegenOptions {
    let mut preset = CodegenOptions::preset(&options.preset)
        .unwrap_or_else(CodegenOptions::heuristics_on)
        .with_jobs(options.jobs)
        .with_fuel(options.fuel)
        .with_deadline_ms(options.timeout_ms);
    if options.verify {
        preset = preset.with_verify(true);
    }
    preset.phase_ordered = options.baseline;
    preset
}

/// Run the driver in batch mode: compile every program for the same
/// machine across the worker pool and concatenate the rendered assembly
/// in input order, each chunk under a `; program <name>` banner.
///
/// Programs are distributed over `--jobs` workers at whole-program
/// granularity (see `CodeGenerator::compile_batch`); the concatenated
/// output and the per-program report lines, each prefixed with the
/// program's name, are byte-identical for any worker count.
///
/// # Errors
///
/// Returns a [`CliError`] for unparsable sources, for the first failing
/// compile (prefixed with the program's name), or when an option that
/// has no batch meaning (`--emit` other than `asm`, `--simulate`,
/// `--explain`) was combined with multiple programs.
pub fn drive_batch(
    options: &Options,
    machine_src: &str,
    programs: &[(String, String)],
) -> Result<Outcome, CliError> {
    if options.emit != Emit::Asm {
        return Err(err(
            "batch mode (multiple programs) supports --emit asm only",
        ));
    }
    if options.simulate.is_some() || options.explain {
        return Err(err(
            "batch mode (multiple programs) does not support --simulate \
             or --explain",
        ));
    }
    let machine =
        parse_machine(machine_src).map_err(|e| err(format!("machine description: {e}")))?;
    let mut functions = Vec::with_capacity(programs.len());
    for (name, src) in programs {
        functions.push(parse_function(src).map_err(|e| err(format!("{name}: {e}")))?);
    }

    let generator = CodeGenerator::new(machine).options(build_preset(options));
    let target = generator.target();
    let mut outcome = Outcome::default();
    let results = generator.compile_batch(&functions);
    for (((name, _), function), result) in programs.iter().zip(&functions).zip(results) {
        let (program, report) = result.map_err(|e| err(format!("{name}: compile: {e}")))?;
        let prefix = format!("{name}: ");
        let asm = report_compile(
            options,
            &prefix,
            function,
            target,
            &program,
            &report,
            &mut outcome.report,
        )?;
        let asm = asm.unwrap_or_else(|| program.render(target));
        outcome
            .output
            .extend_from_slice(format!("; program {name}\n").as_bytes());
        outcome.output.extend_from_slice(asm.as_bytes());
    }
    Ok(outcome)
}

/// Run the `lint` subcommand on an in-memory machine description.
///
/// Returns the rendered report plus whether the binary should exit
/// nonzero: any error-severity finding, or — under `--deny-warnings` —
/// any finding at all. The machine is read by the unchecked parse, so
/// every finding of the rules the loader applies is reported, not just
/// the first; the lint errors exactly when the loader refuses.
///
/// # Errors
///
/// Returns a [`CliError`] only for lexical/syntax problems; rule
/// findings become diagnostics.
pub fn run_lint(options: &LintOptions, machine_src: &str) -> Result<(String, bool), CliError> {
    let machine = parse_machine_unchecked(machine_src)
        .map_err(|e| err(format!("machine description: {e}")))?;
    let diags = lint_machine(&machine);
    let fail = diags.iter().any(|d| d.severity() == Severity::Error)
        || (options.deny_warnings && !diags.is_empty());
    Ok((render_report(&diags, options.format), fail))
}

/// Run the `check` subcommand on an in-memory program (and, when
/// `--machine` was given, its machine description).
///
/// Returns the rendered report plus whether the binary should exit
/// nonzero, under the same contract as [`run_lint`]. When a machine is
/// supplied the program is also compiled for it with the pipeline
/// invariant verifier forced on; invariant violations join the report
/// as `V` diagnostics.
///
/// # Errors
///
/// Returns a [`CliError`] for unparsable sources or for compile
/// failures other than invariant violations (unsupported operations,
/// covering failures).
pub fn run_check(
    options: &CheckOptions,
    program_src: &str,
    machine_src: Option<&str>,
) -> Result<(String, bool), CliError> {
    let function = parse_function(program_src).map_err(|e| err(format!("program: {e}")))?;
    let mut diags = check_program(&function);
    if let Some(machine_src) = machine_src {
        let machine =
            parse_machine(machine_src).map_err(|e| err(format!("machine description: {e}")))?;
        let generator =
            CodeGenerator::new(machine).options(CodegenOptions::default().with_verify(true));
        match generator.compile_function(&function) {
            Ok(_) => {}
            Err(CodegenError::Invariant(v)) => diags.extend(v),
            Err(e) => return Err(err(format!("compile: {e}"))),
        }
    }
    let fail = diags.iter().any(|d| d.severity() == Severity::Error)
        || (options.deny_warnings && !diags.is_empty());
    Ok((render_report(&diags, options.format), fail))
}

/// Run the `analyze` subcommand on an in-memory program and machine
/// description: the machine×program feasibility pre-flight behind
/// `avivc analyze`.
///
/// Returns the rendered analysis plus whether the binary should exit
/// nonzero, under the same contract as [`run_lint`]: any `M`-coded
/// error (uncoverable op, missing value route), or — under
/// `--deny-warnings` — any finding at all, including machine lints.
///
/// # Errors
///
/// Returns a [`CliError`] for unparsable sources only; feasibility
/// defects become diagnostics in the report.
pub fn run_analyze(
    options: &AnalyzeOptions,
    program_src: &str,
    machine_src: &str,
) -> Result<(String, bool), CliError> {
    let machine =
        parse_machine(machine_src).map_err(|e| err(format!("machine description: {e}")))?;
    let function = parse_function(program_src).map_err(|e| err(format!("program: {e}")))?;
    let target = Target::new(machine);
    let analysis = analyze_program(&function, &target);
    let machine_error = analysis
        .machine
        .diagnostics
        .iter()
        .any(|d| d.severity() == Severity::Error);
    let n_findings = analysis.machine.diagnostics.len() + analysis.diagnostics.len();
    let fail = !analysis.feasible() || machine_error || (options.deny_warnings && n_findings > 0);
    Ok((render_analysis(&analysis, options.format), fail))
}

fn run_simulation(
    target: &Target,
    program: &VliwProgram,
    bindings: &[(String, i64)],
    outcome: &mut Outcome,
) -> Result<(), CliError> {
    let mut sim = aviv_vm::Simulator::new(target, program);
    for (name, v) in bindings {
        if program.var_addrs.iter().any(|(n, _)| n == name) {
            sim.set_var(name, *v);
        } else {
            return Err(err(format!("unknown variable `{name}`")));
        }
    }
    let result = sim.run().map_err(|e| err(format!("simulate: {e}")))?;
    let _ = writeln!(
        outcome.report,
        "simulation: {} cycles, return {:?}",
        result.cycles, result.return_value
    );
    // Report the final value of every named, non-internal variable.
    let mut names: Vec<&str> = program
        .var_addrs
        .iter()
        .map(|(n, _)| n.as_str())
        .filter(|n| !n.starts_with("__"))
        .collect();
    names.sort_unstable();
    for name in names {
        if let Some(v) = sim.read_var(name) {
            let _ = writeln!(outcome.report, "  {name} = {v}");
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    const MACHINE: &str = "machine M {
        unit U1 { ops { add, sub, compl, cmpgt } regfile R1[4]; }
        unit U2 { ops { add, mul } regfile R2[4]; }
        memory DM;
        bus DB capacity 1 connects { R1, R2, DM };
    }";

    const PROGRAM: &str = "func f(a, b) { x = a * b + 1; return x; }";

    fn opts(extra: &[&str]) -> Options {
        let mut args = vec![
            "--machine".to_string(),
            "m.isdl".to_string(),
            "prog.av".to_string(),
        ];
        args.extend(extra.iter().map(std::string::ToString::to_string));
        Options::parse(&args).unwrap()
    }

    #[test]
    fn parse_rejects_bad_args() {
        assert!(Options::parse(&["--emit".into()]).is_err());
        assert!(Options::parse(&["prog.av".into()]).is_err());
        assert!(Options::parse(&[
            "--machine".into(),
            "m".into(),
            "p".into(),
            "--emit".into(),
            "wat".into()
        ])
        .is_err());
        let help = Options::parse(&["--help".into()]).unwrap_err();
        assert!(help.0.contains("usage"));
    }

    #[test]
    fn asm_emission_works() {
        let out = drive(&opts(&[]), MACHINE, PROGRAM).unwrap();
        let text = String::from_utf8(out.output).unwrap();
        assert!(text.contains("mul"), "{text}");
        assert!(text.contains("ret"), "{text}");
    }

    /// `--emit bin` loads back into the program whose assembly the same
    /// options print, AVIV's and the baseline's alike.
    #[test]
    fn bin_emission_round_trips() {
        let target = Target::new(parse_machine(MACHINE).unwrap());
        for extra in [&[][..], &["--baseline"]] {
            let bin = drive(
                &opts(&[extra, &["--emit", "bin"]].concat()),
                MACHINE,
                PROGRAM,
            )
            .unwrap();
            let asm = drive(&opts(extra), MACHINE, PROGRAM).unwrap();
            let program = aviv_vm::disassemble(&target, &bin.output).unwrap();
            assert!(!program.instructions.is_empty());
            assert_eq!(
                program.render(&target).into_bytes(),
                asm.output,
                "{extra:?}"
            );
        }
    }

    #[test]
    fn baseline_honours_emit() {
        let rom = drive(&opts(&["--baseline", "--emit", "rom"]), MACHINE, PROGRAM).unwrap();
        assert!(rom.report.contains("ROM image:"), "{}", rom.report);
        let target = Target::new(parse_machine(MACHINE).unwrap());
        let bin = drive(&opts(&["--baseline", "--emit", "bin"]), MACHINE, PROGRAM).unwrap();
        let program = aviv_vm::disassemble(&target, &bin.output).unwrap();
        let (stream, _) = aviv_vm::encode_packed(&target, &program).unwrap();
        assert_eq!(rom.output, stream);
        // The baseline's plans are drawn like AVIV's.
        for kind in ["dot", "sndag-dot"] {
            let out = drive(&opts(&["--baseline", "--emit", kind]), MACHINE, PROGRAM).unwrap();
            let text = String::from_utf8(out.output).unwrap();
            assert!(text.starts_with("digraph"), "{kind}: {text}");
        }
    }

    #[test]
    fn dot_emissions_are_graphviz() {
        for kind in ["dot", "sndag-dot"] {
            let out = drive(&opts(&["--emit", kind]), MACHINE, PROGRAM).unwrap();
            let text = String::from_utf8(out.output).unwrap();
            assert!(text.starts_with("digraph"), "{kind}: {text}");
        }
        // The cover graph is drawn from the whole compile, so the views
        // of that compile come along.
        let out = drive(
            &opts(&["--emit", "dot", "--validate", "--stats"]),
            MACHINE,
            PROGRAM,
        )
        .unwrap();
        assert!(
            out.report.contains("validate: 1 block(s)"),
            "{}",
            out.report
        );
        assert!(out.report.contains("total instructions"), "{}", out.report);
    }

    #[test]
    fn isdl_echo_round_trips() {
        let out = drive(&opts(&["--emit", "isdl"]), MACHINE, PROGRAM).unwrap();
        let text = String::from_utf8(out.output).unwrap();
        assert!(aviv_isdl::parse_machine(&text).is_ok(), "{text}");
    }

    #[test]
    fn simulation_reports_variables() {
        let out = drive(&opts(&["--simulate", "a=6,b=7"]), MACHINE, PROGRAM).unwrap();
        assert!(out.report.contains("return Some(43)"), "{}", out.report);
        assert!(out.report.contains("x = 43"), "{}", out.report);
        // Unknown variables are rejected.
        assert!(drive(&opts(&["--simulate", "zz=1"]), MACHINE, PROGRAM).is_err());
    }

    #[test]
    fn stats_and_explain_produce_reports() {
        let out = drive(&opts(&["--stats", "--explain"]), MACHINE, PROGRAM).unwrap();
        assert!(out.report.contains("instructions"), "{}", out.report);
        assert!(out.report.contains("block bb0"), "{}", out.report);
    }

    #[test]
    fn baseline_mode_compiles() {
        let out = drive(&opts(&["--baseline", "--stats"]), MACHINE, PROGRAM).unwrap();
        assert!(
            out.report.contains("blocks: 1, total instructions: "),
            "{}",
            out.report
        );
        let text = String::from_utf8(out.output).unwrap();
        assert!(text.contains("mul"), "{text}");
        assert!(text.contains("ret"), "{text}");
        // --explain has no search to explain.
        assert!(Options::parse(
            &["--machine", "m", "p", "--baseline", "--explain"].map(String::from)
        )
        .is_err());
    }

    #[test]
    fn rom_emission_reports_bits() {
        let out = drive(&opts(&["--emit", "rom"]), MACHINE, PROGRAM).unwrap();
        assert!(!out.output.is_empty());
        assert!(out.report.contains("ROM image:"), "{}", out.report);
    }

    #[test]
    fn jobs_flag_parses_and_output_matches_sequential() {
        assert_eq!(opts(&[]).jobs, 1);
        assert_eq!(opts(&["--jobs", "4"]).jobs, 4);
        assert_eq!(opts(&["--jobs", "0"]).jobs, 0);
        assert!(Options::parse(&[
            "--machine".into(),
            "m".into(),
            "p".into(),
            "--jobs".into(),
            "lots".into()
        ])
        .is_err());

        let program = "func f(a, b) { x = a * b + 1; if (x > 3) goto t;
            y = x + 2; t: return x; }";
        let seq = drive(&opts(&[]), MACHINE, program).unwrap();
        let par = drive(&opts(&["--jobs", "4"]), MACHINE, program).unwrap();
        assert_eq!(seq.output, par.output, "--jobs must not change output");
    }

    #[test]
    fn batch_parse_collects_extra_programs() {
        let o = Options::parse(&[
            "--machine".into(),
            "m.isdl".into(),
            "a.av".into(),
            "b.av".into(),
            "c.av".into(),
        ])
        .unwrap();
        assert_eq!(o.program_path, "a.av");
        assert_eq!(
            o.extra_programs,
            vec!["b.av".to_string(), "c.av".to_string()]
        );
        assert!(opts(&[]).extra_programs.is_empty());
    }

    /// A batch, AVIV's or the baseline's, is the single-program outputs
    /// under their banners, at every worker count.
    #[test]
    fn batch_output_is_banner_separated_and_jobs_invariant() {
        let second = "func g(a, b) { y = a + b; z = y * y; return z; }";
        let programs = vec![
            ("first.av".to_string(), PROGRAM.to_string()),
            ("second.av".to_string(), second.to_string()),
        ];
        for extra in [&[][..], &["--baseline"]] {
            let batch = drive_batch(&opts(extra), MACHINE, &programs).unwrap();
            let text = String::from_utf8(batch.output.clone()).unwrap();
            // Input order is preserved and each chunk matches the
            // single-program driver byte for byte.
            let one = drive(&opts(extra), MACHINE, PROGRAM).unwrap();
            let two = drive(&opts(extra), MACHINE, second).unwrap();
            let mut expected = b"; program first.av\n".to_vec();
            expected.extend_from_slice(&one.output);
            expected.extend_from_slice(b"; program second.av\n");
            expected.extend_from_slice(&two.output);
            assert_eq!(batch.output, expected, "{extra:?}: {text}");
            // Worker count never changes the bytes.
            for jobs in ["0", "4"] {
                let par = drive_batch(
                    &opts(&[extra, &["--jobs", jobs]].concat()),
                    MACHINE,
                    &programs,
                )
                .unwrap();
                assert_eq!(par.output, batch.output, "{extra:?} --jobs {jobs}");
                assert_eq!(par.report, batch.report, "{extra:?} --jobs {jobs}");
            }
        }
    }

    #[test]
    fn batch_rejects_single_program_modes() {
        let programs = vec![
            ("a.av".to_string(), PROGRAM.to_string()),
            ("b.av".to_string(), PROGRAM.to_string()),
        ];
        assert!(drive_batch(&opts(&["--emit", "bin"]), MACHINE, &programs).is_err());
        assert!(drive_batch(&opts(&["--simulate", "a=1"]), MACHINE, &programs).is_err());
        assert!(drive_batch(&opts(&["--explain"]), MACHINE, &programs).is_err());
    }

    #[test]
    fn batch_reports_are_name_prefixed() {
        let programs = vec![
            ("a.av".to_string(), PROGRAM.to_string()),
            ("b.av".to_string(), PROGRAM.to_string()),
        ];
        let views = ["--fuel", "1", "--report", "--stats"];
        let out = drive_batch(&opts(&views), MACHINE, &programs).unwrap();
        assert!(out.report.contains("a.av: downgrade:"), "{}", out.report);
        assert!(out.report.contains("b.av: downgrade:"), "{}", out.report);
        // Every line names its program, and each program's lines are the
        // single-program report, `--stats` table included.
        assert!(
            out.report
                .lines()
                .all(|l| l.starts_with("a.av: ") || l.starts_with("b.av: ")),
            "{}",
            out.report
        );
        let single = drive(&opts(&views), MACHINE, PROGRAM).unwrap();
        assert!(single.report.contains("  unit U1"), "{}", single.report);
        for prefix in ["a.av: ", "b.av: "] {
            let own: Vec<&str> = out
                .report
                .lines()
                .filter_map(|l| l.strip_prefix(prefix))
                .collect();
            assert_eq!(own, single.report.lines().collect::<Vec<_>>());
        }
        // Batch mode refuses `--explain`, but its body lines take the
        // prefix like every other view's.
        let function = parse_function(PROGRAM).unwrap();
        let options = opts(&["--explain"]);
        let generator =
            CodeGenerator::new(parse_machine(MACHINE).unwrap()).options(build_preset(&options));
        let (program, report) = generator.compile_function(&function).unwrap();
        let explain = |prefix: &str| {
            let mut text = String::new();
            report_compile(
                &options,
                prefix,
                &function,
                generator.target(),
                &program,
                &report,
                &mut text,
            )
            .unwrap();
            text
        };
        let plain = explain("");
        assert!(plain.contains("  step   0:"), "{plain}");
        let named: String = plain.lines().map(|l| format!("a.av: {l}\n")).collect();
        assert_eq!(explain("a.av: "), named);
        // `--report` rows come from the same per-program path as a
        // single program's, under the program's name.
        let single = drive(&opts(&["--fuel", "1", "--report"]), MACHINE, PROGRAM).unwrap();
        let rows = |prefix: &str| -> Vec<String> {
            out.report
                .lines()
                .filter_map(|l| l.strip_prefix(prefix))
                .filter(|l| l.starts_with("bb"))
                .map(str::to_string)
                .collect()
        };
        let single_rows: Vec<String> = single
            .report
            .lines()
            .filter(|l| l.starts_with("bb"))
            .map(str::to_string)
            .collect();
        assert!(!single_rows.is_empty(), "{}", single.report);
        assert_eq!(rows("a.av: "), single_rows, "{}", out.report);
        assert_eq!(rows("b.av: "), single_rows, "{}", out.report);
        let bad = vec![("broken.av".to_string(), "func f( {".to_string())];
        let e = drive_batch(&opts(&[]), MACHINE, &bad).unwrap_err();
        assert!(e.0.starts_with("broken.av:"), "{e}");
    }

    #[test]
    fn fuel_and_timeout_flags_parse() {
        assert_eq!(opts(&[]).fuel, None);
        assert_eq!(opts(&[]).timeout_ms, None);
        assert_eq!(opts(&["--fuel", "500"]).fuel, Some(500));
        assert_eq!(opts(&["--timeout-ms", "2000"]).timeout_ms, Some(2000));
        assert!(Options::parse(&[
            "--machine".into(),
            "m".into(),
            "p".into(),
            "--fuel".into(),
            "lots".into()
        ])
        .is_err());
        assert!(Options::parse(&[
            "--machine".into(),
            "m".into(),
            "p".into(),
            "--timeout-ms".into(),
            "-3".into()
        ])
        .is_err());
    }

    #[test]
    fn generous_fuel_output_matches_unlimited() {
        let unlimited = drive(&opts(&[]), MACHINE, PROGRAM).unwrap();
        let budgeted = drive(&opts(&["--fuel", "1000000"]), MACHINE, PROGRAM).unwrap();
        assert_eq!(unlimited.output, budgeted.output);
        assert!(
            !budgeted.report.contains("downgrade:"),
            "{}",
            budgeted.report
        );
    }

    #[test]
    fn tight_fuel_degrades_but_still_compiles_correctly() {
        let out = drive(
            &opts(&["--fuel", "1", "--verify", "--simulate", "a=6,b=7"]),
            MACHINE,
            PROGRAM,
        )
        .unwrap();
        assert!(out.report.contains("downgrade:"), "{}", out.report);
        assert!(out.report.contains("compile incomplete"), "{}", out.report);
        // Degraded code is still correct code.
        assert!(out.report.contains("return Some(43)"), "{}", out.report);
    }

    #[test]
    fn presets_are_accepted() {
        for preset in ["on", "thorough", "off"] {
            let out = drive(&opts(&["--preset", preset]), MACHINE, PROGRAM).unwrap();
            assert!(!out.output.is_empty(), "{preset}");
        }
    }

    #[test]
    fn verify_flag_compiles_clean_programs() {
        let out = drive(&opts(&["--verify"]), MACHINE, PROGRAM).unwrap();
        assert!(!out.output.is_empty());
        assert!(opts(&["--verify"]).verify);
        assert!(!opts(&[]).verify);
    }

    #[test]
    fn validate_flag_proves_emitted_asm() {
        assert!(!opts(&[]).validate);
        assert!(opts(&["--validate"]).validate);
        let out = drive(&opts(&["--validate"]), MACHINE, PROGRAM).unwrap();
        assert!(
            out.report.contains("validate: 1 block(s)"),
            "{}",
            out.report
        );
        assert!(out.report.contains("ok"), "{}", out.report);
        // Multi-block control flow validates too.
        let branchy = "func f(a, b) { x = a * b + 1; if (x > 3) goto t;
            x = x + 2; t: return x; }";
        let out = drive(&opts(&["--validate"]), MACHINE, branchy).unwrap();
        assert!(out.report.contains("validate: "), "{}", out.report);
        assert!(out.report.contains("ok"), "{}", out.report);
        // Degraded (spill-heavy) compiles still validate clean.
        let out = drive(&opts(&["--validate", "--fuel", "1"]), MACHINE, PROGRAM).unwrap();
        assert!(out.report.contains("downgrade:"), "{}", out.report);
        assert!(out.report.contains("validate: "), "{}", out.report);
        // The baseline's output validates, multi-block programs too.
        for program in [PROGRAM, branchy] {
            let out = drive(&opts(&["--validate", "--baseline"]), MACHINE, program).unwrap();
            assert!(out.report.contains("validate: "), "{}", out.report);
        }
    }

    #[test]
    fn batch_validate_is_name_prefixed() {
        let programs = vec![
            ("a.av".to_string(), PROGRAM.to_string()),
            ("b.av".to_string(), PROGRAM.to_string()),
        ];
        let out = drive_batch(&opts(&["--validate"]), MACHINE, &programs).unwrap();
        assert!(out.report.contains("a.av: validate: "), "{}", out.report);
        assert!(out.report.contains("b.av: validate: "), "{}", out.report);
    }

    #[test]
    fn lint_subcommand_parses() {
        let cmd = Command::parse(&["lint".into(), "m.isdl".into()]).unwrap();
        let Command::Lint(lint) = cmd else {
            panic!("expected lint command");
        };
        assert_eq!(lint.machine_path, "m.isdl");
        assert_eq!(lint.format, Format::Text);

        let cmd = Command::parse(&[
            "lint".into(),
            "m.isdl".into(),
            "--format".into(),
            "json".into(),
        ])
        .unwrap();
        let Command::Lint(lint) = cmd else {
            panic!("expected lint command");
        };
        assert_eq!(lint.format, Format::Json);

        assert!(Command::parse(&["lint".into()]).is_err());
        assert!(
            Command::parse(&["lint".into(), "m".into(), "--format".into(), "yaml".into()]).is_err()
        );
        // Non-lint argument vectors still parse as compiles.
        assert!(matches!(
            Command::parse(&["--machine".into(), "m".into(), "p".into()]),
            Ok(Command::Compile(_))
        ));
    }

    #[test]
    fn lint_reports_clean_machine() {
        let lint = LintOptions {
            machine_path: "m.isdl".into(),
            format: Format::Text,
            deny_warnings: false,
        };
        let (report, has_errors) = run_lint(&lint, MACHINE).unwrap();
        assert!(!has_errors);
        assert!(report.contains("0 errors, 0 warnings"), "{report}");
    }

    #[test]
    fn lint_reports_orphan_bank_with_code() {
        // RF2 is on no bus: the loader refuses this machine and the lint
        // reports the same finding as E002.
        let broken = "machine Broken {
            unit U1 { ops { add } regfile R1[4]; }
            unit U2 { ops { add } regfile R2[4]; }
            memory DM;
            bus DB capacity 1 connects { R1, DM };
        }";
        assert!(aviv_isdl::parse_machine(broken).is_err());
        let lint = LintOptions {
            machine_path: "m.isdl".into(),
            format: Format::Text,
            deny_warnings: false,
        };
        let (report, has_errors) = run_lint(&lint, broken).unwrap();
        assert!(has_errors);
        assert!(report.contains("error[E002]"), "{report}");

        let json = LintOptions {
            machine_path: "m.isdl".into(),
            format: Format::Json,
            deny_warnings: false,
        };
        let (report, _) = run_lint(&json, broken).unwrap();
        assert!(report.contains("\"code\":\"E002\""), "{report}");
        assert!(report.contains("\"errors\":1"), "{report}");
    }

    /// A constraint that can never trigger changes no legality decision:
    /// fig3 with each such constraint loads, lints W003 only, and compiles
    /// every bundled program to plain fig3's bytes.
    #[test]
    fn never_triggering_constraints_load_and_change_no_byte() {
        let assets = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../../assets");
        let read = |path: &std::path::Path| std::fs::read_to_string(path).unwrap();
        let fig3 = read(&assets.join("fig3.isdl"));
        let end = fig3.rfind('}').unwrap();
        let mut programs: Vec<_> = std::fs::read_dir(&assets)
            .unwrap()
            .map(|e| e.unwrap().path())
            .filter(|p| p.extension().is_some_and(|x| x == "av"))
            .collect();
        programs.sort();
        assert!(programs.len() >= 2, "{programs:?}");
        let opts = Options::parse(&["--machine".into(), "m.isdl".into(), "p.av".into()]).unwrap();
        for line in [
            "constraint at_most 1 { U3.mul };",
            "constraint at_most 2 { U3.mul, U2.mul };",
            "constraint at_most 1 { U3.sub, U2.mul };",
        ] {
            let machine = format!("{}    {line}\n}}\n", &fig3[..end]);
            let diags = lint_machine(&parse_machine(&machine).unwrap());
            assert!(
                !diags.is_empty() && diags.iter().all(|d| d.code == aviv::verify::Code::W003),
                "{line}: {diags:?}"
            );
            for p in &programs {
                let program = read(p);
                assert_eq!(
                    drive(&opts, &machine, &program).unwrap().output,
                    drive(&opts, &fig3, &program).unwrap().output,
                    "{line} {}",
                    p.display()
                );
            }
        }
    }

    fn check_opts(extra: &[&str]) -> CheckOptions {
        let mut args = vec!["check".to_string(), "prog.av".to_string()];
        args.extend(extra.iter().map(std::string::ToString::to_string));
        let Command::Check(check) = Command::parse(&args).unwrap() else {
            panic!("expected check command");
        };
        check
    }

    #[test]
    fn check_subcommand_parses() {
        let check = check_opts(&[]);
        assert_eq!(check.program_path, "prog.av");
        assert_eq!(check.machine_path, None);
        assert_eq!(check.format, Format::Text);
        assert!(!check.deny_warnings);

        let check = check_opts(&["--machine", "m.isdl", "--format", "json", "--deny-warnings"]);
        assert_eq!(check.machine_path.as_deref(), Some("m.isdl"));
        assert_eq!(check.format, Format::Json);
        assert!(check.deny_warnings);

        assert!(Command::parse(&["check".into()]).is_err());
        assert!(Command::parse(&["check".into(), "p".into(), "--wat".into()]).is_err());
    }

    #[test]
    fn lint_accepts_deny_warnings() {
        let cmd =
            Command::parse(&["lint".into(), "m.isdl".into(), "--deny-warnings".into()]).unwrap();
        let Command::Lint(lint) = cmd else {
            panic!("expected lint command");
        };
        assert!(lint.deny_warnings);
    }

    #[test]
    fn check_reports_clean_program() {
        let (report, fail) = run_check(&check_opts(&["--deny-warnings"]), PROGRAM, None).unwrap();
        assert!(!fail);
        assert!(report.contains("0 errors, 0 warnings"), "{report}");
        // A machine only adds invariant checking; the program stays clean.
        let (_, fail) =
            run_check(&check_opts(&["--deny-warnings"]), PROGRAM, Some(MACHINE)).unwrap();
        assert!(!fail);
    }

    #[test]
    fn check_reports_uninitialized_use_as_error() {
        let bad = "func f(a) { y = x + 1; return y; }";
        let (report, fail) = run_check(&check_opts(&[]), bad, None).unwrap();
        assert!(fail);
        assert!(report.contains("error[P001]"), "{report}");

        let (report, _) = run_check(&check_opts(&["--format", "json"]), bad, None).unwrap();
        assert!(report.contains("\"code\":\"P001\""), "{report}");
    }

    #[test]
    fn check_deny_warnings_fails_on_warnings_only() {
        // An unused parameter is warning-severity: clean exit normally,
        // nonzero under --deny-warnings.
        let warn = "func f(a, b) { return a; }";
        let (report, fail) = run_check(&check_opts(&[]), warn, None).unwrap();
        assert!(!fail, "{report}");
        assert!(report.contains("warning[P004]"), "{report}");
        let (_, fail) = run_check(&check_opts(&["--deny-warnings"]), warn, None).unwrap();
        assert!(fail);
    }

    fn analyze_opts(extra: &[&str]) -> AnalyzeOptions {
        let mut args = vec![
            "analyze".to_string(),
            "prog.av".to_string(),
            "--machine".to_string(),
            "m.isdl".to_string(),
        ];
        args.extend(extra.iter().map(std::string::ToString::to_string));
        let Command::Analyze(analyze) = Command::parse(&args).unwrap() else {
            panic!("expected analyze command");
        };
        analyze
    }

    #[test]
    fn analyze_subcommand_parses() {
        let a = analyze_opts(&[]);
        assert_eq!(a.program_path, "prog.av");
        assert_eq!(a.machine_path, "m.isdl");
        assert_eq!(a.format, Format::Text);
        assert!(!a.deny_warnings);

        let a = analyze_opts(&["--format", "json", "--deny-warnings"]);
        assert_eq!(a.format, Format::Json);
        assert!(a.deny_warnings);

        // The machine is required: feasibility is a property of the pair.
        assert!(Command::parse(&["analyze".into(), "p.av".into()]).is_err());
        assert!(Command::parse(&["analyze".into()]).is_err());
        assert!(Command::parse(&["analyze".into(), "p".into(), "--wat".into()]).is_err());
    }

    #[test]
    fn analyze_reports_feasible_program() {
        let (report, fail) = run_analyze(&analyze_opts(&[]), PROGRAM, MACHINE).unwrap();
        assert!(!fail, "{report}");
        assert!(report.contains("feasible"), "{report}");
        assert!(report.contains(">="), "{report}");
        assert!(report.contains("0 errors"), "{report}");
    }

    #[test]
    fn analyze_flags_unsupported_op_as_m001() {
        // MACHINE has no divider, so `/` is statically uncoverable.
        let bad = "func f(a, b) { x = a / b; return x; }";
        let (report, fail) = run_analyze(&analyze_opts(&[]), bad, MACHINE).unwrap();
        assert!(fail);
        assert!(report.contains("error[M001]"), "{report}");
        assert!(report.contains("INFEASIBLE"), "{report}");

        let (json, fail) = run_analyze(&analyze_opts(&["--format", "json"]), bad, MACHINE).unwrap();
        assert!(fail);
        assert!(json.contains("\"code\":\"M001\""), "{json}");
        assert!(json.contains("\"feasible\":false"), "{json}");
    }

    #[test]
    fn analyze_json_is_schema_stable() {
        let (json, fail) =
            run_analyze(&analyze_opts(&["--format", "json"]), PROGRAM, MACHINE).unwrap();
        assert!(!fail);
        for key in [
            "\"schema_version\":1",
            "\"machine\":\"M\"",
            "\"program\":\"f\"",
            "\"feasible\":true",
            "\"ops\":{",
            "\"routes\":[",
            "\"blocks\":[",
            "\"min_instructions\":",
            "\"min_pressure\":",
            "\"errors\":0",
        ] {
            assert!(json.contains(key), "missing {key} in {json}");
        }
    }

    #[test]
    fn report_flag_prints_gap_table() {
        assert!(!opts(&[]).report);
        assert!(opts(&["--report"]).report);
        let out = drive(&opts(&["--report"]), MACHINE, PROGRAM).unwrap();
        assert!(
            out.report.contains("block  instrs  bound  gap"),
            "{}",
            out.report
        );
        assert!(
            out.report
                .contains("rollouts  steps  hits  cut  cliq  prun"),
            "{}",
            out.report
        );
        assert!(out.report.contains("bb0:"), "{}", out.report);
    }
}
