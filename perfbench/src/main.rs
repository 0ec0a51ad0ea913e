use std::path::PathBuf;
use std::process::ExitCode;

use perfbench::checks::Check;
use perfbench::metrics::{result_line, END_TO_END, PER_LAYER};
use perfbench::run::{run, Options};
use perfbench::workload::Workload;

const USAGE: &str = "usage: perfbench --workload <chronos_100k|secure_36k|daemon_resume_36k> \
--seed <n> --seconds <s> --trace <0|1> [--clients <n>] [--out <dir>] \
[--corrupt <repeat|daemon-vs-bare|restore|threads|anchors>]";

fn parse(args: &[String]) -> Result<Options, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut clients = None;
    let mut corrupt = None;
    let mut out = PathBuf::from("perfbench/out");
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it
            .next()
            .ok_or_else(|| format!("{flag} needs a value"))?
            .as_str();
        let number = |what: &str| -> Result<u64, String> {
            value
                .parse::<u64>()
                .map_err(|_| format!("{what}: {value:?} is not a whole number"))
        };
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    Workload::parse(value).ok_or_else(|| format!("unknown workload {value:?}"))?,
                )
            }
            "--seed" => seed = Some(number("--seed")?),
            "--seconds" => seconds = Some(number("--seconds")?),
            "--trace" => {
                trace = Some(match value {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace: {value:?} is neither 0 nor 1")),
                })
            }
            "--clients" => clients = Some(number("--clients")?.max(1) as usize),
            "--out" => out = PathBuf::from(value),
            "--corrupt" => {
                corrupt =
                    Some(Check::parse(value).ok_or_else(|| format!("unknown check {value:?}"))?)
            }
            other => return Err(format!("unknown flag {other:?}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    Ok(Options {
        workload,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")? as f64,
        trace: trace.ok_or("--trace is required")?,
        clients: clients.unwrap_or(workload.default_clients()),
        out,
        corrupt,
    })
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let opts = match parse(&args) {
        Ok(opts) => opts,
        Err(e) => {
            eprintln!("perfbench: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let outcome = match run(&opts) {
        Ok(outcome) => outcome,
        Err(e) => {
            eprintln!("perfbench: run could not start: {e}");
            return ExitCode::FAILURE;
        }
    };
    for line in &outcome.lines {
        println!("{line}");
    }
    let catalogue: &[(&str, &str)] = if opts.trace { &PER_LAYER } else { &END_TO_END };
    println!(
        "{}",
        result_line(
            outcome.tally.correct(),
            outcome.tally.attempted,
            outcome.tally.failed,
            catalogue,
            &outcome.values,
        )
    );
    ExitCode::SUCCESS
}
