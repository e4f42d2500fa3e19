//! Knee provenance: the measured saturation rates every `steady` load
//! point is derived from.
//!
//! `steady` runs open-loop load points at fixed fractions of each
//! network's *measured* saturation rate, so it never times a gridlocked
//! network by accident. The rates live in `data/knees.json`, one per
//! (network, seed variant), each measured with exactly the `SimConfig`
//! the load points use and recorded with its schedule and the commit it
//! was measured at. `perfbench --measure-knees` regenerates the file.

use std::time::Instant;

use hexamesh::arrangement::{Arrangement, ArrangementKind};
use nocsim::{measure, MeasureConfig};
use xp::json::{self, Value};

use crate::variant::{sim_config, VARIANTS};

/// A network the `steady` workload loads, with the schedule its knee is
/// measured under.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct KneeNet {
    /// Stable label (`data/knees.json` key).
    pub label: &'static str,
    /// Arrangement family.
    pub kind: ArrangementKind,
    /// Chiplet count.
    pub n: usize,
    /// `default` (`MeasureConfig::default()`) or `quick`.
    pub schedule: &'static str,
}

/// The networks `steady` loads. n = 1027 uses the quick schedule: its
/// past-knee probes cost minutes each under the default one.
pub const NETS: [KneeNet; 3] = [
    KneeNet {
        label: "hexamesh-169",
        kind: ArrangementKind::HexaMesh,
        n: 169,
        schedule: "default",
    },
    KneeNet { label: "grid-169", kind: ArrangementKind::Grid, n: 169, schedule: "default" },
    KneeNet {
        label: "hexamesh-1027",
        kind: ArrangementKind::HexaMesh,
        n: 1027,
        schedule: "quick",
    },
];

const KNEES_JSON: &str = include_str!("../data/knees.json");

fn schedule(name: &str) -> MeasureConfig {
    match name {
        "quick" => MeasureConfig::quick(),
        _ => MeasureConfig::default(),
    }
}

/// The recorded saturation rate of `net` under seed variant `variant`.
///
/// # Panics
///
/// Panics if `data/knees.json` lacks the entry (regenerate it with
/// `--measure-knees`).
#[must_use]
pub fn knee(net: &KneeNet, variant: usize) -> f64 {
    let doc = json::parse(KNEES_JSON).expect("data/knees.json is valid JSON");
    let rate = doc.get("knees").and_then(|k| k.get(net.label)).and_then(|rates| match rates {
        Value::Arr(items) => items.get(variant),
        _ => None,
    });
    match rate {
        Some(Value::Num(r)) => *r,
        Some(Value::Int(r)) => *r as f64,
        _ => panic!("data/knees.json has no knee for {} variant {variant}", net.label),
    }
}

/// Measures every knee with `shards`-way sharded simulation (bit-identical
/// to serial) and prints a new `data/knees.json` on stdout.
///
/// # Panics
///
/// Panics if a search fails (connected arrangements never do).
pub fn measure_all(commit: &str, shards: usize) {
    let mut knees = Value::object();
    let mut schedules = Value::object();
    for net in &NETS {
        let arrangement = Arrangement::build(net.kind, net.n).expect("network builds");
        let mut rates = Vec::new();
        for variant in 0..VARIANTS {
            let started = Instant::now();
            let mut sched = schedule(net.schedule);
            sched.shards = shards;
            let result =
                measure::saturation_search(arrangement.graph(), &sim_config(variant), &sched)
                    .expect("saturation search runs");
            eprintln!(
                "{} variant {variant}: knee {} ({:.1} s)",
                net.label,
                result.rate,
                started.elapsed().as_secs_f64()
            );
            rates.push(Value::Num(result.rate));
        }
        knees.set(net.label, Value::Arr(rates));
        schedules.set(net.label, net.schedule);
    }
    let mut doc = Value::object();
    doc.set("commit", commit);
    doc.set(
        "search",
        "nocsim::measure::saturation_search, SimConfig::paper_defaults() with the variant seed",
    );
    doc.set("schedules", schedules);
    doc.set("knees", knees);
    println!("{}", doc.to_json());
}

/// The knee record of `variant` for the results file: rate, schedule and
/// commit of every network.
#[must_use]
pub fn provenance(variant: usize) -> Value {
    let doc = json::parse(KNEES_JSON).expect("data/knees.json is valid JSON");
    let mut out = Value::object();
    out.set("commit", doc.get("commit").cloned().unwrap_or(Value::Null));
    for net in &NETS {
        let mut entry = Value::object();
        entry.set("rate", knee(net, variant));
        entry.set("schedule", net.schedule);
        out.set(net.label, entry);
    }
    out
}
