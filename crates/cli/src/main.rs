//! `sirupctl` — command-line front end; all logic lives in `sirup_cli`.

use std::process::ExitCode;

fn main() -> ExitCode {
    let raw: Vec<String> = std::env::args().skip(1).collect();
    match sirup_cli::parse_args(raw).and_then(|args| sirup_cli::run(&args)) {
        Ok(report) => {
            print!("{report}");
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("sirupctl: {e}");
            ExitCode::FAILURE
        }
    }
}
