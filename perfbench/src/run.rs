//! One benchmark run: checks, recorded-output comparison, and tallies.

use std::collections::BTreeMap;
use std::sync::OnceLock;

use nocsim::StallCounters;
use xp::hash::sha256_hex;
use xp::json::{self, Value};

use crate::calib::{Affinity, Clock, Stamp};
use crate::trace::Tracer;

const EXPECTED_JSON: &str = include_str!("../data/expected.json");

/// Most failure messages kept per run (the count is always exact).
const MAX_MESSAGES: usize = 20;

/// State shared by a workload's set-up and passes.
#[derive(Debug)]
pub struct Run {
    /// Workload name.
    pub workload: &'static str,
    /// Seed variant (see [`crate::variant`]).
    pub variant: usize,
    /// Span recorder (off until a traced pass turns it on).
    pub tracer: Tracer,
    /// Operations attempted / failed.
    pub attempted: u64,
    /// Operations whose output failed a check.
    pub failed: u64,
    /// The first failure messages.
    pub messages: Vec<String>,
    /// Output fingerprint of each named operation, from its first run.
    pub fingerprints: BTreeMap<String, String>,
    /// Latencies (ms) of the workload's unit operations, every pass, by
    /// kind of operation (one network's evaluation, one load point, ...),
    /// in reference-host milliseconds (see [`crate::calib`]).
    pub op_ms: BTreeMap<String, Vec<f64>>,
    /// The same latencies in this host's milliseconds.
    pub host_op_ms: BTreeMap<String, Vec<f64>>,
    /// The CPU the run is pinned to (see [`crate::calib`]).
    affinity: Option<Affinity>,
    /// Host-speed calibration.
    pub clock: Clock,
    /// Operations whose interval awaits the calibration that closes it.
    pending: Vec<(String, Stamp, Stamp)>,
    /// Additive tallies: work counts and host seconds, summed over passes.
    pub tally: BTreeMap<&'static str, f64>,
    /// Samples whose median is reported (e.g. load-point seconds).
    pub samples: BTreeMap<&'static str, Vec<f64>>,
}

impl Run {
    /// A run of `workload` on `variant`.
    #[must_use]
    pub fn new(workload: &'static str, variant: usize) -> Self {
        Self {
            workload,
            variant,
            tracer: Tracer::new(false),
            attempted: 0,
            failed: 0,
            messages: Vec::new(),
            fingerprints: BTreeMap::new(),
            op_ms: BTreeMap::new(),
            host_op_ms: BTreeMap::new(),
            // Pinned before the clock's first calibration.
            affinity: Affinity::pin(),
            clock: Clock::new(),
            pending: Vec::new(),
            tally: BTreeMap::new(),
            samples: BTreeMap::new(),
        }
    }

    /// Adds `v` to tally `name`.
    pub fn add(&mut self, name: &'static str, v: f64) {
        *self.tally.entry(name).or_default() += v;
    }

    /// Tally `name` (0 when never added).
    #[must_use]
    pub fn get(&self, name: &str) -> f64 {
        self.tally.get(name).copied().unwrap_or(0.0)
    }

    /// Appends a sample to series `name`.
    pub fn sample(&mut self, name: &'static str, v: f64) {
        self.samples.entry(name).or_default().push(v);
    }

    /// Median of sample series `name`.
    #[must_use]
    pub fn median(&self, name: &str) -> f64 {
        self.samples.get(name).map_or(0.0, |v| crate::stats::median(v))
    }

    /// Records one unit operation of kind `kind` that started at
    /// `started` (a [`Clock::stamp`]) and has just ended.
    pub fn op(&mut self, kind: &str, started: Stamp) {
        self.pending.push((kind.to_owned(), started, self.clock.stamp()));
        self.tick();
    }

    /// Runs `f` on every CPU the run started with, then pins again.
    pub fn on_all_cpus<R>(&mut self, f: impl FnOnce(&mut Self) -> R) -> R {
        if let Some(affinity) = self.affinity {
            affinity.release();
        }
        let out = f(self);
        if let Some(affinity) = self.affinity {
            affinity.hold();
        }
        out
    }

    /// Calibrates if it is due ([`Clock::tick`]).
    pub fn tick(&mut self) {
        self.clock.tick(&self.tracer);
        self.settle();
    }

    /// Calibrates now.
    pub fn calibrate(&mut self) {
        self.clock.calibrate(&self.tracer);
        self.settle();
    }

    /// Books every operation whose interval a calibration has closed.
    fn settle(&mut self) {
        let clock = &self.clock;
        let (op_ms, host_op_ms) = (&mut self.op_ms, &mut self.host_op_ms);
        self.pending.retain(|(kind, from, to)| {
            let Some((host, reference)) = clock.between(from, to) else {
                return true;
            };
            host_op_ms.entry(kind.clone()).or_default().push(host * 1e3);
            op_ms.entry(kind.clone()).or_default().push(reference * 1e3);
            false
        });
    }

    /// The geometric mean over operation kinds of each kind's
    /// `q`-quantile latency (ms) in `ops` ([`Self::op_ms`] or
    /// [`Self::host_op_ms`]). Operation kinds differ in cost up to
    /// tenfold, so a quantile over all of them would sit on the boundary
    /// between two kinds.
    #[must_use]
    pub fn op_quantile(ops: &BTreeMap<String, Vec<f64>>, q: f64) -> f64 {
        let per_kind: Vec<f64> = ops.values().map(|v| crate::stats::quantile(v, q)).collect();
        crate::stats::geomean(&per_kind)
    }

    /// Adds router stall counters to the `router.*` tallies.
    pub fn add_stalls(&mut self, s: &StallCounters) {
        self.add("router.vc_starved", s.vc_starved as f64);
        self.add("router.credit_starved", s.credit_starved as f64);
        self.add("router.switch_lost", s.switch_lost as f64);
    }

    /// Books one operation with the failures its checks found.
    pub fn finish_op(&mut self, failures: Vec<String>) {
        self.attempted += 1;
        if !failures.is_empty() {
            self.failed += 1;
            for f in failures {
                if self.messages.len() < MAX_MESSAGES {
                    self.messages.push(f);
                }
            }
        }
    }

    /// Checks operation `op`'s simulated output `text`: it must repeat the
    /// first pass's output exactly and match the value recorded for this
    /// commit. Pushes a message to `failures` otherwise.
    pub fn check_output(&mut self, op: &str, text: &str, failures: &mut Vec<String>) {
        let fp = sha256_hex(text.as_bytes())[..16].to_owned();
        match self.fingerprints.get(op) {
            Some(first) if *first != fp => {
                failures.push(format!("{op}: output changed between passes ({text})"));
                return;
            }
            Some(_) => {}
            None => {
                self.fingerprints.insert(op.to_owned(), fp.clone());
            }
        }
        match expected(self.workload, self.variant, op) {
            Some(want) if want == fp => {}
            Some(want) => {
                failures
                    .push(format!("{op}: output {fp} differs from recorded {want} ({text})"));
            }
            None => failures.push(format!("{op}: no recorded output in data/expected.json")),
        }
    }
}

/// The recorded fingerprint of `op` in `workload` under `variant`.
fn expected(workload: &str, variant: usize, op: &str) -> Option<String> {
    static DOC: OnceLock<Value> = OnceLock::new();
    let doc = DOC
        .get_or_init(|| json::parse(EXPECTED_JSON).expect("data/expected.json is valid JSON"));
    let Some(Value::Arr(variants)) = doc.get("outputs").and_then(|w| w.get(workload)) else {
        return None;
    };
    match variants.get(variant)?.get(op)? {
        Value::Str(s) => Some(s.clone()),
        _ => None,
    }
}
