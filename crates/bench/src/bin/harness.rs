//! The experiment harness: regenerates every table of EXPERIMENTS.md.
//!
//! Usage:
//!
//! ```text
//! cargo run -p omq-bench --bin harness --release                # full suite
//! cargo run -p omq-bench --bin harness --release -- --quick     # smaller sizes
//! cargo run -p omq-bench --bin harness --release -- E3 E5       # selected experiments
//! ```
//!
//! An unknown flag or experiment id exits 2 before anything runs.

use omq_bench::experiments::{find_experiment, run_all, Experiment};

/// Splits the command line into the `--quick` switch and the selected
/// experiments (none selected means the whole suite).
fn parse_args(args: &[String]) -> Result<(bool, Vec<Experiment>), String> {
    let mut quick = false;
    let mut selected = Vec::new();
    for arg in args {
        if arg == "--quick" {
            quick = true;
        } else if arg.starts_with('-') {
            return Err(format!("unknown flag `{arg}` (expected --quick)"));
        } else {
            selected.push(
                find_experiment(arg)
                    .ok_or_else(|| format!("unknown experiment `{arg}` (expected E1..E11)"))?,
            );
        }
    }
    Ok((quick, selected))
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let (quick, selected) = parse_args(&args).unwrap_or_else(|message| {
        eprintln!("{message}");
        std::process::exit(2);
    });
    let tables = if selected.is_empty() {
        run_all(quick)
    } else {
        selected.iter().map(|(_, run)| run(quick)).collect()
    };
    for table in &tables {
        println!("{}", table.render());
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The parsed switch and the selected ids.
    fn parse(args: &[&str]) -> Result<(bool, Vec<&'static str>), String> {
        let args: Vec<String> = args.iter().map(|a| (*a).to_owned()).collect();
        parse_args(&args).map(|(quick, selected)| {
            let ids = selected.into_iter().map(|(id, _)| id).collect();
            (quick, ids)
        })
    }

    #[test]
    fn selection_and_quick_are_parsed() {
        assert_eq!(parse(&[]), Ok((false, vec![])));
        assert_eq!(
            parse(&["e3", "--quick", "E11"]),
            Ok((true, vec!["E3", "E11"]))
        );
    }

    #[test]
    fn unknown_ids_and_flags_are_errors() {
        // A retired id fails the whole invocation, whatever else is named.
        assert!(parse(&["E1", "E12"]).unwrap_err().contains("E12"));
        assert!(parse(&["E0"]).is_err());
        assert!(parse(&["--json-dir", "out"]).is_err());
        assert!(parse(&["--no-json"]).is_err());
    }
}
