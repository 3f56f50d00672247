//! `hdtest-perfbench --workload <rand|gauss> --seed <n> --seconds <s> --trace <0|1>`
//!
//! Prints a config header, the serving phases' accounting, and last one
//! JSON result line; exits 1 when any output failed its check.

use std::process::ExitCode;

const USAGE: &str =
    "usage: hdtest-perfbench --workload <rand|gauss> --seed <n> --seconds <s> --trace <0|1>";

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse(argv: &[String]) -> Result<Args, String> {
    let mut args = Args { workload: String::new(), seed: 0, seconds: 55.0, trace: false };
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |e: &dyn std::fmt::Display| format!("{flag} {value}: {e}");
        match flag.as_str() {
            "--workload" => args.workload = value.clone(),
            "--seed" => args.seed = value.parse().map_err(|e| bad(&e))?,
            "--seconds" => args.seconds = value.parse().map_err(|e| bad(&e))?,
            "--trace" => {
                args.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad(&"expected 0 or 1")),
                }
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    if args.workload.is_empty() {
        return Err("--workload is required".into());
    }
    if !(args.seconds > 0.0 && args.seconds <= 120.0) {
        return Err("--seconds must be in (0, 120]".into());
    }
    Ok(args)
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse(&argv) {
        Ok(args) => args,
        Err(e) => {
            eprintln!("{e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let plan = hdtest_perfbench::Plan::full(args.seconds);
    match hdtest_perfbench::run(&args.workload, args.seed, args.seconds, &plan, args.trace) {
        Ok(report) => {
            for line in &report.lines {
                println!("{line}");
            }
            println!("{}", report.result_line());
            if report.correct() {
                ExitCode::SUCCESS
            } else {
                for failure in &report.failures {
                    eprintln!("check failed: {failure}");
                }
                ExitCode::FAILURE
            }
        }
        Err(e) => {
            eprintln!("benchmark stopped: {e}");
            ExitCode::FAILURE
        }
    }
}
