//! The standalone `mnemo-lint` binary — what the `lint-invariants` CI
//! job runs. Thin: argument handling plus exit-code policy; all logic
//! lives in the library so it is unit- and fixture-testable.
//!
//! ```text
//! mnemo-lint [--root DIR] [--format human|json|sarif]
//!            [--deny-warnings] [--explain CODE]
//! ```
//!
//! Exit codes: 0 clean, 1 findings (errors, or warnings under
//! `--deny-warnings`), 2 usage/IO error.

use mnemo_lint::{explain_code, lint_tree, render, Format};
use std::path::PathBuf;

fn main() {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    match run(&argv) {
        Ok((output, failed)) => {
            print!("{output}");
            if failed {
                std::process::exit(1);
            }
        }
        Err(msg) => {
            eprintln!("mnemo-lint: {msg}");
            std::process::exit(2);
        }
    }
}

const USAGE: &str = "usage: mnemo-lint [--root DIR] [--format human|json|sarif] \
                     [--deny-warnings] [--explain CODE]\n";

/// Returns the rendered report and whether the run should fail.
fn run(argv: &[String]) -> Result<(String, bool), String> {
    let mut root = PathBuf::from(".");
    let mut format = Format::Human;
    let mut deny_warnings = false;
    let mut iter = argv.iter();
    while let Some(arg) = iter.next() {
        match arg.as_str() {
            "--root" => {
                root = PathBuf::from(
                    iter.next()
                        .ok_or_else(|| "--root needs a directory".to_string())?,
                );
            }
            "--format" => {
                let v = iter
                    .next()
                    .ok_or_else(|| "--format needs human|json|sarif".to_string())?;
                format = Format::parse(v).ok_or_else(|| format!("unknown format '{v}'"))?;
            }
            "--deny-warnings" => deny_warnings = true,
            "--explain" => {
                let v = iter
                    .next()
                    .ok_or_else(|| "--explain needs a lint code (e.g. D006)".to_string())?;
                return Ok((explain_code(v)?, false));
            }
            "--help" | "-h" => {
                return Ok((USAGE.to_string(), false));
            }
            other => return Err(format!("unknown argument '{other}'")),
        }
    }
    let report = lint_tree(&root).map_err(|e| e.to_string())?;
    let failed = report.is_failure(deny_warnings);
    Ok((render(&report, format), failed))
}

#[cfg(test)]
mod tests {
    use super::run;

    #[test]
    fn unknown_arguments_are_usage_errors() {
        let argv = ["--cache-dir".to_string(), "d".to_string()];
        assert_eq!(
            run(&argv),
            Err("unknown argument '--cache-dir'".to_string())
        );
    }
}
