//! `perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>`
//!
//! Prints the host fingerprint, one line per metric with its unit and
//! sample count, the balance report of a traced run, and as its last line
//! the result object. Exits 1 if any operation failed its check, 2 on a
//! usage error.

use std::process::ExitCode;

use perfbench::report::{result_line, table};
use perfbench::{run, Plan, Workload};

const USAGE: &str =
    "usage: perfbench --workload <dag-grain|scrape-10k> --seed <n> --seconds <s> --trace <0|1>";

struct Args {
    workload: Workload,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = 0;
    let mut seconds = 10;
    let mut trace = false;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or(format!("{flag} needs a value"))?;
        let bad = |_| format!("bad value `{value}` for {flag}");
        match flag.as_str() {
            "--workload" => {
                workload =
                    Some(Workload::parse(&value).ok_or(format!("unknown workload `{value}`"))?)
            }
            "--seed" => seed = value.parse().map_err(bad)?,
            "--seconds" => seconds = value.parse().map_err(bad)?,
            "--trace" => {
                trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("bad value `{value}` for --trace")),
                }
            }
            _ => return Err(format!("unknown flag `{flag}`")),
        }
    }
    if !(1..=3600).contains(&seconds) {
        return Err("--seconds must be from 1 to 3600".into());
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed,
        seconds,
        trace,
    })
}

fn main() -> ExitCode {
    let args = match parse() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let plan = Plan::new(args.seed, args.seconds);
    let out = run(args.workload, &plan, args.trace);
    println!("host {}", out.fingerprint);
    print!("{}", table(&out.metrics));
    print!("{}", table(&out.extra));
    println!(
        "error_rate {} ({} failed of {} attempted: {})",
        out.failed as f64 / out.attempted.max(1) as f64,
        out.failed,
        out.attempted,
        out.failures
    );
    if let Some(balance) = &out.balance {
        print!("{balance}");
    }
    let correct = out.failed == 0;
    println!(
        "{}",
        result_line(correct, out.attempted, out.failed, &out.metrics)
    );
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    }
}
