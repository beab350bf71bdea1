//! Command line of the served-stack benchmark.
//!
//! ```text
//! perfbench --workload ci-1c|pi-2c|ci-churn --seed N --seconds S --trace 0|1
//!           [--net-seed N]
//! ```
//!
//! Prints the run's inputs, sample counts and checks as `#` lines, then, as
//! the last line, one JSON object with `correct`, `attempted`, `failed` and
//! `metrics` (end-to-end metrics, or per-layer ones with `--trace 1`).
//! Exits 1 without a result line when the run cannot complete, and 1 after
//! the result line when a check failed.

use perfbench::{result_json, run, workload, Options, WORKLOADS};
use std::process::ExitCode;

fn parse<T: std::str::FromStr>(flag: &str, value: Option<String>) -> Result<T, String> {
    let v = value.ok_or_else(|| format!("{flag} needs a value"))?;
    v.parse().map_err(|_| format!("{flag}: cannot parse {v:?}"))
}

fn options() -> Result<Options, String> {
    let mut args = std::env::args().skip(1);
    let (mut name, mut seed, mut seconds, mut trace, mut net_seed) =
        (None, 1u64, 10.0, false, None);
    while let Some(flag) = args.next() {
        let value = args.next();
        match flag.as_str() {
            "--workload" => name = Some(parse::<String>(&flag, value)?),
            "--seed" => seed = parse(&flag, value)?,
            "--seconds" => seconds = parse(&flag, value)?,
            "--trace" => trace = parse::<u8>(&flag, value)? != 0,
            "--net-seed" => net_seed = Some(parse(&flag, value)?),
            _ => return Err(format!("unknown argument {flag:?}")),
        }
    }
    let names: Vec<&str> = WORKLOADS.iter().map(|w| w.name).collect();
    let name = name.ok_or_else(|| format!("--workload is required (one of {names:?})"))?;
    let w =
        workload(&name).ok_or_else(|| format!("unknown workload {name:?}; one of {names:?}"))?;
    let mut opts = Options::new(w, seed, seconds, trace);
    if let Some(net_seed) = net_seed {
        opts.net_seed = net_seed;
    }
    Ok(opts)
}

fn main() -> ExitCode {
    let opts = match options() {
        Ok(o) => o,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    let report = match run(&opts) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::FAILURE;
        }
    };
    for line in &report.notes {
        println!("# {line}");
    }
    let metrics = report.metrics(opts.trace);
    let finite = metrics.iter().all(|m| m.value.is_finite());
    let correct = report.correct && finite;
    if !finite {
        println!("# FAIL a metric is not finite");
    }
    println!(
        "{}",
        result_json(correct, report.attempted, report.failed, metrics)
    );
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
