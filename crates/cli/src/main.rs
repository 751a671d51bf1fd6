//! `avivc` — compile programs for ISDL-described machines.

use aviv_cli::{drive, drive_batch, run_analyze, run_check, run_lint, CliError, Command};
use std::io::Write as _;
use std::process::ExitCode;

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match Command::parse(&args) {
        Ok(Command::Lint(options)) => {
            diagnose(|| run_lint(&options, &read(&options.machine_path)?))
        }
        Ok(Command::Check(options)) => diagnose(|| {
            let program_src = read(&options.program_path)?;
            let machine_src = options.machine_path.as_deref().map(read).transpose()?;
            run_check(&options, &program_src, machine_src.as_deref())
        }),
        Ok(Command::Analyze(options)) => diagnose(|| {
            let program_src = read(&options.program_path)?;
            let machine_src = read(&options.machine_path)?;
            run_analyze(&options, &program_src, &machine_src)
        }),
        Ok(Command::Compile(options)) => {
            let machine_src = match read(&options.machine_path) {
                Ok(s) => s,
                Err(e) => return fail(&e),
            };
            let mut programs = Vec::new();
            for path in std::iter::once(&options.program_path).chain(&options.extra_programs) {
                match read(path) {
                    Ok(s) => programs.push((path.clone(), s)),
                    Err(e) => return fail(&e),
                }
            }
            let outcome = if programs.len() > 1 {
                drive_batch(&options, &machine_src, &programs)
            } else {
                drive(&options, &machine_src, &programs[0].1)
            };
            match outcome {
                Ok(outcome) => {
                    if !outcome.report.is_empty() {
                        eprint!("{}", outcome.report);
                    }
                    match options.output.as_deref() {
                        None | Some("-") => {
                            let mut stdout = std::io::stdout().lock();
                            if stdout.write_all(&outcome.output).is_err() {
                                return ExitCode::FAILURE;
                            }
                        }
                        Some(path) => {
                            if let Err(e) = std::fs::write(path, &outcome.output) {
                                return fail(&format!("cannot write {path}: {e}"));
                            }
                        }
                    }
                    ExitCode::SUCCESS
                }
                Err(e) => fail(&e),
            }
        }
        Err(e) => fail(&e),
    }
}

/// The contents of the file at `path`, or why it cannot be read.
fn read(path: &str) -> Result<String, CliError> {
    std::fs::read_to_string(path).map_err(|e| CliError(format!("cannot read {path}: {e}")))
}

/// Print `e` to stderr and exit nonzero.
fn fail(e: &dyn std::fmt::Display) -> ExitCode {
    eprintln!("{e}");
    ExitCode::FAILURE
}

/// Finish a `lint`, `check` or `analyze` run: print its report to stdout
/// and exit nonzero when the report says so, or print why it could not
/// run.
fn diagnose(run: impl FnOnce() -> Result<(String, bool), CliError>) -> ExitCode {
    match run() {
        Ok((report, failed)) => {
            print!("{report}");
            if failed {
                ExitCode::FAILURE
            } else {
                ExitCode::SUCCESS
            }
        }
        Err(e) => fail(&e),
    }
}
