//! `smcsim` — run one streaming computation on a configurable Direct RDRAM
//! memory system and report effective bandwidth.
//!
//! See `smcsim --help` for the options. Exit codes: 0 ok, 1 a failed run,
//! a conformance violation or a gate regression, 2 bad arguments.

use std::env;
use std::process::ExitCode;

fn main() -> ExitCode {
    let args: Vec<String> = env::args().skip(1).collect();
    match sim::cli::run(&args) {
        Ok(out) => {
            print!("{out}");
            ExitCode::SUCCESS
        }
        Err((code, message)) => {
            eprintln!("smcsim: {message}");
            ExitCode::from(code)
        }
    }
}
