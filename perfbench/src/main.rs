//! `perfbench --workload <name> --seed <n> --seconds <n> --trace <0|1>`:
//! run one benchmark workload and print its result as the last line.

use std::process::ExitCode;

fn main() -> ExitCode {
    // Start the benchmark clock: set-up time counts from here.
    let _ = fairem_perfbench::clock::now_ns();
    let argv: Vec<String> = std::env::args().skip(1).collect();
    match fairem_perfbench::run(&argv) {
        Ok(outcome) => {
            for line in &outcome.notes {
                println!("{line}");
            }
            println!("{}", outcome.result);
            if outcome.correct {
                ExitCode::SUCCESS
            } else {
                ExitCode::from(1)
            }
        }
        Err(e) => {
            eprintln!("perfbench: {e}");
            ExitCode::from(2)
        }
    }
}
