//! Regenerate the paper's tables and figures.
//!
//! ```text
//! cargo run -p sim --bin repro --release                   # everything
//! cargo run -p sim --bin repro --release -- fig7           # one experiment
//! cargo run -p sim --bin repro --release -- --out results  # + .txt/.json/.csv/.svg files
//! cargo run -p sim --bin repro --release -- --list         # list names
//! ```
//!
//! Exit codes: 0 ok, 1 an output file could not be written, 2 bad
//! arguments (including an unknown experiment name).

use std::env;
use std::fs;
use std::path::PathBuf;
use std::process::ExitCode;

use sim::experiments::{self, ALL};

const USAGE: &str = "usage: repro [--list] [--out DIR] [EXPERIMENT...]";

fn main() -> ExitCode {
    let mut args: Vec<String> = env::args().skip(1).collect();
    if args.iter().any(|a| a == "--help" || a == "-h") {
        println!("{USAGE}\nexperiments: {} (default: all)", ALL.join(" "));
        return ExitCode::SUCCESS;
    }
    if args.iter().any(|a| a == "--list") {
        for name in ALL {
            println!("{name}");
        }
        return ExitCode::SUCCESS;
    }
    let out_dir: Option<PathBuf> = args.iter().position(|a| a == "--out").map(|i| {
        let dir = args
            .get(i + 1)
            .unwrap_or_else(|| {
                eprintln!("--out requires a directory");
                std::process::exit(2);
            })
            .clone();
        args.drain(i..=i + 1);
        PathBuf::from(dir)
    });
    if let Some(dir) = &out_dir {
        if let Err(e) = fs::create_dir_all(dir) {
            eprintln!("cannot create {}: {e}", dir.display());
            return ExitCode::FAILURE;
        }
    }
    let selected: Vec<&str> = if args.is_empty() {
        ALL.to_vec()
    } else {
        args.iter().map(String::as_str).collect()
    };
    for name in selected {
        let out = match experiments::run(name) {
            Ok(out) => out,
            Err(e) => {
                eprintln!("repro: {e}\n{USAGE}");
                return ExitCode::from(2);
            }
        };
        println!("{}", "=".repeat(72));
        println!("{}", out.text);
        if let Some(dir) = &out_dir {
            for (file, contents) in &out.files {
                if let Err(e) = fs::write(dir.join(file), contents) {
                    eprintln!("cannot write {file}: {e}");
                    return ExitCode::FAILURE;
                }
            }
        }
    }
    ExitCode::SUCCESS
}
