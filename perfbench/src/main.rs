//! `troll-perfbench --troll <path> --workload <name> --seed <n>
//! --seconds <s> --trace <0|1>`: one benchmark run. The last line of
//! standard output is the JSON result.

use std::process::ExitCode;
use troll_perfbench::run::{run, Args};

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let Some(args) = Args::parse(&args) else {
        eprintln!(
            "usage: troll-perfbench --troll <path> --workload <name> --seed <n> --seconds <s> --trace <0|1>"
        );
        return ExitCode::from(2);
    };
    match run(&args) {
        Ok(result) => {
            println!("{}", result.line);
            if result.correct {
                ExitCode::SUCCESS
            } else {
                eprintln!("troll-perfbench: correctness check failed");
                ExitCode::FAILURE
            }
        }
        Err(e) => {
            eprintln!("troll-perfbench: {e}");
            ExitCode::FAILURE
        }
    }
}
