//! `perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>`
//!
//! Runs one workload and prints every metric by name with its unit; the
//! last line of standard output is one JSON object:
//! `{"correct", "attempted", "failed", "metrics"}`. The full result record
//! (provenance, work counts, failures) goes to
//! `perfbench/out/<workload>-seed<n>-trace<t>.json`.
//!
//! The results file's `outputs` object holds the fingerprint of every
//! checked operation: the source of `data/expected.json`. The other mode,
//! `--measure-knees <commit>`, re-measures `data/knees.json`.

use std::path::PathBuf;
use std::process::ExitCode;

use perfbench::{execute, Options};

const USAGE: &str =
    "usage: perfbench --workload <saturation|steady|closed_loop|serve> --seed <n> --seconds <s> --trace <0|1>\n       perfbench --measure-knees <commit>";

fn parse(args: &[String]) -> Result<Options, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |what: &str| format!("{flag}: `{value}` is not {what}");
        match flag.as_str() {
            "--workload" => workload = Some(value.clone()),
            "--seed" => seed = Some(value.parse::<u64>().map_err(|_| bad("a whole number"))?),
            "--seconds" => {
                let s = value.parse::<f64>().map_err(|_| bad("a number"))?;
                if !(s.is_finite() && s >= 0.0) {
                    return Err(bad("a non-negative number"));
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad("0 or 1")),
                });
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Options {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.ok_or("--trace is required")?,
        out: PathBuf::from(concat!(env!("CARGO_MANIFEST_DIR"), "/out")),
    })
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.first().map(String::as_str) == Some("--measure-knees") {
        perfbench::knees::measure_all(args.get(1).map_or("unknown", String::as_str), 2);
        return ExitCode::SUCCESS;
    }
    let opts = match parse(&args) {
        Ok(opts) => opts,
        Err(e) => {
            eprintln!("error: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let outcome = match execute(&opts) {
        Ok(outcome) => outcome,
        Err(e) => {
            eprintln!("error: {e}");
            return ExitCode::from(2);
        }
    };
    let record_path = opts.out.join(format!(
        "{}-seed{}-trace{}.json",
        opts.workload,
        opts.seed,
        u8::from(opts.trace)
    ));
    if let Err(e) = std::fs::write(&record_path, outcome.record.to_json()) {
        eprintln!("error: {}: {e}", record_path.display());
        return ExitCode::from(2);
    }
    println!("{} seed {} ({})", opts.workload, opts.seed, record_path.display());
    for (name, unit, value) in &outcome.human {
        println!("  {name:<20} {value:>16.6} {unit}");
    }
    if !outcome.correct {
        for line in outcome.record.get("failures").map(|f| f.to_json()).into_iter() {
            println!("  failures: {line}");
        }
    }
    let metrics: Vec<String> = outcome
        .metrics
        .iter()
        .map(|(name, unit, value)| {
            format!("\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}")
        })
        .collect();
    println!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        outcome.correct,
        outcome.attempted,
        outcome.failed,
        metrics.join(", ")
    );
    ExitCode::SUCCESS
}
