//! The `fairem` CLI binary — see `fairem360::cli::usage`.
//!
//! Exit codes (also listed in the usage text): 0 = success, 1 = usage
//! error, 2 = data error, 3 = completed but degraded, 4 = a deadline
//! budget expired, 130 = interrupted (Ctrl-C) with partial results.

use std::process::ExitCode;

fn main() -> ExitCode {
    fairem360::cli::install_sigint_handler();
    let argv: Vec<String> = std::env::args().skip(1).collect();
    match fairem360::cli::run_with_token(&argv, fairem360::cli::global_cancel_token()) {
        Ok(out) => {
            println!("{}", out.text);
            ExitCode::from(out.exit_code() as u8)
        }
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::from(e.exit as u8)
        }
    }
}
