//! `mclint` — standalone entry point for the workspace linter.
//!
//! Exit codes: 0 clean, 1 findings, 2 usage error. This binary is the
//! linter's only front end; it depends on nothing else in the workspace,
//! so the lint runs even when the rest of the workspace does not build.

use std::path::PathBuf;
use std::process::ExitCode;

const USAGE: &str = "\
mclint — project-native static analysis for the mcsched workspace

USAGE:
    mclint [--root DIR] [--json] [--list-rules]

OPTIONS:
    --root DIR        workspace root to scan (default: .)
    --json            emit the JSON report instead of human output
    --list-rules      print the rule table and exit
    -h, --help        print this help

EXIT CODES:
    0  no findings    1  findings    2  usage error
";

struct Args {
    root: PathBuf,
    json: bool,
    list_rules: bool,
}

fn parse(argv: &[String]) -> Result<Args, String> {
    let mut args = Args {
        root: PathBuf::from("."),
        json: false,
        list_rules: false,
    };
    let mut it = argv.iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--root" => {
                args.root = PathBuf::from(
                    it.next()
                        .ok_or_else(|| "--root needs a directory".to_owned())?,
                )
            }
            "--json" => args.json = true,
            "--list-rules" => args.list_rules = true,
            "-h" | "--help" => return Err(String::new()),
            other => return Err(format!("unknown argument `{other}`")),
        }
    }
    Ok(args)
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse(&argv) {
        Ok(a) => a,
        Err(msg) if msg.is_empty() => {
            // -h / --help: usage on stdout, success.
            print!("{USAGE}");
            return ExitCode::SUCCESS;
        }
        Err(msg) => {
            eprintln!("error: {msg}\n");
            eprint!("{USAGE}");
            return ExitCode::from(2);
        }
    };
    if args.list_rules {
        print!("{}", mcsched_lint::render_rules());
        return ExitCode::SUCCESS;
    }
    let opts = mcsched_lint::Options { root: args.root };
    match mcsched_lint::run(&opts) {
        Ok(report) => {
            if args.json {
                print!("{}", mcsched_lint::render_json(&report));
            } else {
                print!("{}", mcsched_lint::render_human(&report));
            }
            if report.is_clean() {
                ExitCode::SUCCESS
            } else {
                ExitCode::FAILURE
            }
        }
        Err(msg) => {
            eprintln!("error: {msg}");
            ExitCode::from(2)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::parse;

    fn argv(xs: &[&str]) -> Vec<String> {
        xs.iter().map(|s| (*s).to_owned()).collect()
    }

    #[test]
    fn defaults() {
        let a = parse(&argv(&[])).unwrap();
        assert_eq!(a.root, std::path::PathBuf::from("."));
        assert!(!a.json && !a.list_rules);
    }

    #[test]
    fn full_flags() {
        let a = parse(&argv(&["--root", "/x", "--json", "--list-rules"])).unwrap();
        assert_eq!(a.root, std::path::PathBuf::from("/x"));
        assert!(a.json && a.list_rules);
    }

    #[test]
    fn rejections() {
        assert!(parse(&argv(&["--root"])).is_err());
        assert!(parse(&argv(&["--frob"])).is_err());
        // The removed baseline and span modes are unknown arguments.
        assert!(parse(&argv(&["--baseline", "x"])).is_err());
        assert!(parse(&argv(&["--fixable"])).is_err());
    }

    #[test]
    fn help_is_the_empty_error() {
        assert_eq!(parse(&argv(&["--help"])).err().as_deref(), Some(""));
    }
}
