//! The benchmark's work counts are deterministic: they repeat exactly
//! across runs and do not depend on how a simulation is sharded.
//!
//! Run with `cargo test --release --manifest-path perfbench/Cargo.toml`
//! (the workloads are sized for optimized builds).

use hexamesh::arrangement::{Arrangement, ArrangementKind};
use nocsim::{ShardedSimulator, SimConfig, Simulator};
use perfbench::{execute, Options, WORK_COUNTS};
use xp::json::Value;

fn run_once(workload: &str, seed: u64) -> (Vec<(String, String)>, u64) {
    let opts = Options {
        workload: workload.to_owned(),
        seed,
        seconds: 0.0,
        trace: false,
        out: std::path::PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join("perfbench-test"),
    };
    let outcome = execute(&opts).expect("workload runs");
    assert!(
        outcome.correct,
        "{workload}: {}",
        outcome.record.get("failures").unwrap().to_json()
    );
    let tallies = outcome.record.get("tallies").expect("tallies recorded");
    let counts = WORK_COUNTS
        .iter()
        .filter_map(|&name| match tallies.get(name) {
            Some(Value::Num(v)) => Some((name.to_owned(), v.to_string())),
            Some(Value::Int(v)) => Some((name.to_owned(), v.to_string())),
            _ => None,
        })
        .collect();
    (counts, outcome.attempted)
}

fn assert_repeats(workload: &str) {
    let (first, attempted) = run_once(workload, 1);
    let (second, _) = run_once(workload, 1);
    assert!(!first.is_empty() && attempted > 0, "{workload} counted no work");
    assert_eq!(first, second, "{workload}: work counts differ between runs");
}

#[test]
fn steady_counts_repeat_exactly() {
    assert_repeats("steady");
}

#[test]
fn closed_loop_counts_repeat_exactly() {
    assert_repeats("closed_loop");
}

#[test]
fn serve_counts_repeat_exactly() {
    assert_repeats("serve");
}

#[test]
fn saturation_counts_repeat_exactly() {
    assert_repeats("saturation");
}

#[test]
fn one_shard_and_two_count_the_same_work() {
    let arrangement = Arrangement::build(ArrangementKind::HexaMesh, 37).expect("builds");
    let g = arrangement.graph();
    let config = SimConfig { injection_rate: 0.1, ..SimConfig::paper_defaults() };
    let mut serial = Simulator::new(g, config).expect("serial");
    let mut sharded = ShardedSimulator::new(g, config, 2).expect("sharded");
    let stats = (serial.run_to_window(1_000, 2_000), sharded.run_to_window(1_000, 2_000));
    assert_eq!(stats.0, stats.1);
    assert_eq!(serial.cycle(), sharded.cycle());
    let hops = |loads: Vec<(usize, usize, u64)>| loads.iter().map(|l| l.2).sum::<u64>();
    assert_eq!(hops(serial.channel_loads()), hops(sharded.channel_loads()));
    assert_eq!(serial.stall_counters(), sharded.stall_counters());
}
