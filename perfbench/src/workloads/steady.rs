//! `steady`: fixed open-loop uniform load points, all below the knee.
//!
//! HexaMesh and the grid at n = 169 run at 0.5× and 0.9× of their
//! measured saturation rates; HexaMesh at n = 1027 runs at 0.5×, once on
//! `nocsim::Simulator` and once on `nocsim::ShardedSimulator` with two
//! shards. Every rate comes from `data/knees.json` (see
//! [`crate::knees`]), measured with the same `SimConfig`. This is the
//! simulator hot path alone: no search, no gridlock.

use std::collections::BTreeMap;
use std::path::Path;
use std::time::Instant;

use chiplet_graph::Graph;
use hexamesh::arrangement::Arrangement;
use nocsim::routing::RoutingTables;
use nocsim::{measure, MeasureConfig, NetworkStats, ShardedSimulator, SimConfig, Simulator};

use super::{flit_hops, timed, Report, Workload};
use crate::knees::{knee, KneeNet, NETS};
use crate::run::Run;
use crate::variant::sim_config;

/// Warmup and measured cycles of every point (the quick schedule's
/// windows).
const WARMUP: u64 = 1_500;
const MEASURE: u64 = 3_000;
/// Cycle budget for draining a below-knee network after its window.
const DRAIN_CYCLES: u64 = 100_000;
/// `(network index in NETS, fraction of its knee, shards)`.
const POINTS: [(usize, f64, usize); 6] =
    [(0, 0.5, 1), (0, 0.9, 1), (1, 0.5, 1), (1, 0.9, 1), (2, 0.5, 1), (2, 0.5, 2)];

struct Net {
    spec: KneeNet,
    arrangement: Arrangement,
    knee: f64,
    zero_load: f64,
}

/// What one load point produced.
struct Point {
    stats: NetworkStats,
    drained_stats: NetworkStats,
    drained: bool,
    deadlock: bool,
    flits_end: usize,
    flit_hops: u64,
    cycles: u64,
    stalls: nocsim::StallCounters,
    new_s: f64,
    run_s: f64,
}

/// The workload's inputs.
pub struct Steady {
    nets: Vec<Net>,
    config: SimConfig,
}

impl Workload for Steady {
    const NAME: &'static str = "steady";

    fn setup(run: &mut Run, _tmp: &Path) -> Self {
        let config = sim_config(run.variant);
        let mut nets = Vec::new();
        for spec in NETS {
            let arrangement = Arrangement::build(spec.kind, spec.n).expect("network builds");
            let g = arrangement.graph();
            let (tables, secs) = timed(&run.tracer, "nocsim", "routing.tables", || {
                RoutingTables::new(g, config.routing)
            });
            run.add("routing.tables", secs);
            assert!(tables.is_ok(), "{} has routing tables", spec.label);
            let zero_load = measure::zero_load_latency(g, &config).expect("zero-load latency");
            nets.push(Net { spec, knee: knee(&spec, run.variant), arrangement, zero_load });
        }
        Self { nets, config }
    }

    fn pass(&mut self, run: &mut Run) {
        let mut serial_text: BTreeMap<String, String> = BTreeMap::new();
        for (i, frac, shards) in POINTS {
            let net = &self.nets[i];
            let rate = frac * net.knee;
            let config = SimConfig { injection_rate: rate, ..self.config };
            let label = format!("{}@{frac}", net.spec.label);
            let started = run.clock.stamp();
            let t0 = Instant::now();
            let calibrating_s = run.clock.calibrating_s();
            let g = net.arrangement.graph();
            let point = if shards > 1 {
                run.on_all_cpus(|run| load_point(run, g, config, shards))
            } else {
                load_point(run, g, config, shards)
            };
            // Host seconds, the calibration inside `load_point` left out.
            let secs =
                t0.elapsed().as_secs_f64() - (run.clock.calibrating_s() - calibrating_s);
            let mut failures = Vec::new();
            match point {
                Err(e) => failures.push(format!("{label}: {e}")),
                Ok(p) => {
                    failures.extend(check(&label, &p, net.zero_load, config.packet_size));
                    let text = format!(
                        "{:?} drained={:?} hops={} cycles={}",
                        p.stats, p.drained_stats, p.flit_hops, p.cycles
                    );
                    if shards == 1 {
                        run.check_output(&label, &text, &mut failures);
                        run.add("sim.new", p.new_s);
                        run.add("sim.run", p.run_s);
                        if i == 2 {
                            run.add("sim.run.serial_pair", p.run_s);
                        }
                        run.add_stalls(&p.stalls);
                        run.add("sim.flits_in_network_end", p.flits_end as f64);
                        run.add("sim.packets_delivered", p.stats.received_packets as f64);
                        serial_text.insert(label.clone(), text);
                    } else {
                        if serial_text.get(&label) != Some(&text) {
                            failures.push(format!(
                                "{label}: {shards} shards differ from serial ({text})"
                            ));
                        }
                        run.add("shard.run", p.run_s);
                    }
                    run.add("sim.cycles", p.cycles as f64);
                    run.add("sim.flit_hops", p.flit_hops as f64);
                }
            }
            run.add("load_point", secs);
            run.sample("load_point", secs);
            run.op(&format!("{label}x{shards}"), started);
            run.add("measure.points", 1.0);
            run.finish_op(failures);
        }
    }

    fn report(&self, run: &Run, passes: f64, out: &mut Report) {
        let secs = run.get("load_point");
        out.human("cycles_per_s", "1/s", run.get("sim.cycles") / secs);
        out.human("flit_hops_per_s", "1/s", run.get("sim.flit_hops") / secs);
        out.human("load_point_s_p50", "s", run.median("load_point"));
        out.layer("measure.load_point_s", run.median("load_point"));
        out.layer("measure.points", run.get("measure.points") / passes);
        out.layer("sim.new_s", run.get("sim.new") / passes);
        out.layer("sim.run_s", run.get("sim.run") / passes);
        out.layer("shard.run_s", run.get("shard.run") / passes);
        out.layer(
            "shard.speedup_vs_serial",
            run.get("sim.run.serial_pair") / run.get("shard.run"),
        );
        out.sim_layers(run, passes, run.get("sim.run") + run.get("shard.run"));
    }
}

/// One load point: build, warm up, measure, then drain to check
/// conservation, calibrating between the steps (see [`crate::calib`]).
/// `shards > 1` runs on `ShardedSimulator`.
fn load_point(
    run: &mut Run,
    g: &Graph,
    config: SimConfig,
    shards: usize,
) -> Result<Point, nocsim::SimError> {
    macro_rules! drive {
        ($sim:expr, $layer_new:literal, $layer_run:literal) => {{
            let (sim, new_s) = timed(&run.tracer, "nocsim", $layer_new, || $sim);
            let mut sim = sim?;
            let (stats, run_s) =
                timed(&run.tracer, "nocsim", $layer_run, || sim.run_to_window(WARMUP, MEASURE));
            run.tick();
            let flits_end = sim.flits_in_network();
            let deadlock = sim.deadlock_suspected();
            let (drained, _) =
                timed(&run.tracer, "nocsim", "sim.drain", || sim.drain(DRAIN_CYCLES));
            // Work counts cover the whole operation, drain included.
            let drained_stats = sim.stats();
            let stalls = sim.stall_counters();
            let flit_hops = flit_hops(&sim.channel_loads());
            let cycles = sim.cycle();
            Ok(Point {
                stats,
                drained_stats,
                drained,
                deadlock,
                flits_end,
                flit_hops,
                cycles,
                stalls,
                new_s,
                run_s,
            })
        }};
    }
    if shards > 1 {
        drive!(ShardedSimulator::new(g, config, shards), "shard.new", "shard.run")
    } else {
        drive!(Simulator::new(g, config), "sim.new", "sim.run")
    }
}

/// The checks a below-knee point must pass.
fn check(label: &str, p: &Point, zero_load: f64, packet_size: usize) -> Vec<String> {
    let criteria = MeasureConfig::default();
    let mut failures = Vec::new();
    if p.deadlock {
        failures.push(format!("{label}: deadlock watchdog fired below the knee"));
    }
    let s = &p.stats;
    let ratio =
        s.accepted_flits_per_cycle_per_endpoint / s.offered_flits_per_cycle_per_endpoint;
    let latency_ok =
        s.avg_packet_latency.is_some_and(|l| l <= criteria.latency_guard * zero_load);
    if !(ratio >= criteria.accepted_ratio_threshold && latency_ok) {
        failures.push(format!("{label}: reads as saturated below the knee ({s:?})"));
    }
    let d = &p.drained_stats;
    if !p.drained {
        failures.push(format!("{label}: network did not drain"));
    } else if d.measured_packets != d.accepted_packets
        || d.received_flits < d.measured_packets * packet_size as u64
    {
        failures.push(format!("{label}: flit conservation broken ({d:?})"));
    }
    failures
}
