//! The four workloads and what they share.

use std::collections::BTreeMap;
use std::path::Path;
use std::time::Instant;

use crate::run::Run;
use crate::trace::Tracer;

pub mod closed_loop;
pub mod saturation;
pub mod serve;
pub mod steady;

/// One workload: inputs built once by `setup`, then a fixed set of
/// operations run by every `pass`, one after another (a closed loop with
/// one client).
pub trait Workload: Sized {
    /// The `--workload` name.
    const NAME: &'static str;

    /// Builds the inputs; `tmp` is a scratch directory inside the
    /// benchmark's own tree that the run removes when it ends.
    fn setup(run: &mut Run, tmp: &Path) -> Self;

    /// Runs the operation set once, checking every output.
    fn pass(&mut self, run: &mut Run);

    /// Traced runs only: measures layers that `pass` cannot time from
    /// outside the program's request path, after each traced pass and
    /// outside its timing and spans.
    fn probe_layers(&mut self, _run: &mut Run) {}

    /// Adds the workload's own human-readable and per-layer figures;
    /// `passes` is the number of passes the tallies cover.
    fn report(&self, run: &Run, passes: f64, out: &mut Report);
}

/// Figures a workload contributes beyond the common ones.
#[derive(Debug, Default)]
pub struct Report {
    /// Workload-specific end-to-end figures (printed and recorded, not
    /// gated): `(name, unit, value)`.
    pub human: Vec<(&'static str, &'static str, f64)>,
    /// Per-layer values by metric name.
    pub layers: BTreeMap<String, f64>,
    /// HexaMesh-vs-grid zero-load latency reduction and saturation Tb/s
    /// gain (`saturation` only).
    pub accuracy: Option<(f64, f64)>,
}

impl Report {
    /// Records a human-readable end-to-end figure.
    pub fn human(&mut self, name: &'static str, unit: &'static str, value: f64) {
        self.human.push((name, unit, value));
    }

    /// Records a per-layer value.
    pub fn layer(&mut self, name: &str, value: f64) {
        self.layers.insert(name.to_owned(), value);
    }

    /// Records the accuracy pair.
    pub fn accuracy(&mut self, latency_reduction: f64, throughput_gain: f64) {
        self.accuracy = Some((latency_reduction, throughput_gain));
    }

    /// The simulator and router counters every simulating workload
    /// reports; `sim_s` is the host time that simulated them.
    pub fn sim_layers(&mut self, run: &Run, passes: f64, sim_s: f64) {
        let hops = run.get("sim.flit_hops");
        let cycles = run.get("sim.cycles");
        self.layer("sim.cycles", cycles / passes);
        self.layer("sim.flit_hops", hops / passes);
        self.layer("sim.ns_per_flit_hop", sim_s / hops * 1e9);
        for name in ["sim.packets_delivered", "sim.flits_in_network_end"] {
            self.layer(name, run.get(name) / passes);
        }
        for name in ["router.vc_starved", "router.credit_starved", "router.switch_lost"] {
            self.layer(name, run.get(name) / passes);
        }
        self.layer(
            "router.credit_starved_per_cycle",
            run.get("router.credit_starved") / cycles,
        );
    }
}

/// Runs `f` in a span and returns its result with its host seconds.
pub fn timed<R>(
    tracer: &Tracer,
    layer: &'static str,
    name: &'static str,
    f: impl FnOnce() -> R,
) -> (R, f64) {
    let started = Instant::now();
    let out = tracer.span(layer, name, f);
    (out, started.elapsed().as_secs_f64())
}

/// Flit-hops of a run: flits summed over every directed router link.
#[must_use]
pub fn flit_hops(channel_loads: &[(usize, usize, u64)]) -> u64 {
    channel_loads.iter().map(|&(_, _, flits)| flits).sum()
}
