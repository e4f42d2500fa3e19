//! `saturation`: the Fig. 7 pipeline at n = 91 for HexaMesh and the grid.
//!
//! One pass runs the study end to end through `xp::run_study`, one
//! `saturation`-stage spec per network (zero-load latency, link budget,
//! bisection saturation search, sinks written), then repeats each network's
//! evaluation one layer down, through `hexamesh::eval::evaluate_with`,
//! with every probe of the search timed and counted on its way into
//! `nocsim::measure::run_load_point_observed`. The two must agree
//! exactly. This is the only workload where past-knee probes dominate.

use std::path::Path;

use hexamesh::arrangement::{Arrangement, ArrangementKind};
use hexamesh::eval::{self, EvalError, EvalParams, EvalResult};
use nocsim::{measure, Probe, SimConfig, StallCounters, TrafficPattern};
use xp::cli::OutputFormat;
use xp::table::f3;
use xp::{CampaignArgs, Scenario, StageHooks, StudySpec};

use super::{flit_hops, timed, Report, Workload};
use crate::run::Run;
use crate::variant::sim_seed;

const N: usize = 91;
const KINDS: [ArrangementKind; 2] = [ArrangementKind::HexaMesh, ArrangementKind::Grid];
/// Probe window (cycles) of the stall counters.
const PROBE_EVERY: u64 = 500;
/// The spec spelling of each network, in the order a study of both
/// lists its rows.
const KIND_NAMES: [&str; 2] = ["grid", "hexamesh"];

/// The `saturation`-stage spec of one network. A pass runs one study per
/// network, with a calibration in between (see [`crate::calib`]): a
/// study of both would run ten seconds with none inside. Job seeds derive
/// from the kind, not the job's position, so the two studies' rows are
/// those of one study of both.
fn spec(kind: &str) -> String {
    format!(
        r#"
name = "perfbench_saturation_{kind}"
stage = "saturation"

[axes]
kinds = ["{kind}"]
ns = [{N}]
"#
    )
}

/// One network: its arrangement and the evaluation parameters of its
/// `run_study` job (same seed, same quick schedule).
struct Net {
    arrangement: Arrangement,
    params: EvalParams,
    /// `hexamesh::eval::zero_load_of`, computed at set-up; the evaluation
    /// must report the same.
    zero_load: f64,
}

/// What the harness saw of one probe of the search.
struct Probed {
    secs: f64,
    saturated: bool,
    deadlock: bool,
    cycles: u64,
    flit_hops: u64,
    stalls: StallCounters,
    text: String,
}

/// The workload's inputs.
pub struct Saturation {
    nets: Vec<Net>,
    /// One study spec per network, and its campaign arguments.
    studies: Vec<(StudySpec, CampaignArgs)>,
    /// The latest evaluation of each network (accuracy record).
    results: Vec<EvalResult>,
}

impl Workload for Saturation {
    const NAME: &'static str = "saturation";

    fn setup(run: &mut Run, tmp: &Path) -> Self {
        let seed = sim_seed(run.variant);
        let jobs = Scenario::new(&KINDS, &[N])
            .with_patterns(&[TrafficPattern::UniformRandom])
            .with_replicates(1)
            .jobs(seed);
        let mut nets = Vec::new();
        for job in &jobs {
            let mut params = EvalParams::quick();
            params.sim.seed = job.seed;
            params.sim.pattern = job.pattern;
            let arrangement = Arrangement::build(job.kind, job.n).expect("n = 91 builds");
            let (zero_load, secs) =
                timed(&run.tracer, "hexamesh::eval", "eval.zero_load", || {
                    eval::zero_load_of(&arrangement, &params)
                });
            run.add("eval.zero_load", secs);
            let zero_load = zero_load.expect("n = 91 has a zero-load latency");
            nets.push(Net { arrangement, params, zero_load });
        }
        let studies = KIND_NAMES
            .iter()
            .map(|kind| {
                let spec = StudySpec::from_toml(&spec(kind)).expect("the saturation spec parses");
                let args = CampaignArgs {
                    workers: 1,
                    seeds: 1,
                    quick: true,
                    full: false,
                    out: tmp.join(format!("saturation-{kind}")),
                    format: OutputFormat::Both,
                    campaign_seed: seed,
                    progress: false,
                };
                (spec, args)
            })
            .collect();
        Self { nets, studies, results: Vec::new() }
    }

    fn pass(&mut self, run: &mut Run) {
        let hooks = StageHooks::default();
        let mut failures = Vec::new();
        // The table of both networks: the first study's header and rows,
        // then the second study's rows.
        let mut rows = String::new();
        for (spec, args) in &self.studies {
            let (report, secs) = timed(&run.tracer, "xp", "flow.run_study", || {
                xp::run_study(spec, args.clone(), &hooks)
            });
            run.add("flow.run_study", secs);
            match report {
                Err(e) => failures.push(format!("run_study {}: {e}", spec.name)),
                Ok(report) => {
                    let csv = report.tables.first().map(|t| t.table.to_csv()).unwrap_or_default();
                    let body = if rows.is_empty() {
                        csv.as_str()
                    } else {
                        csv.split_once('\n').map_or("", |(_, body)| body)
                    };
                    rows.push_str(body);
                    let jobs: usize = report.stages.iter().map(|s| s.jobs).sum();
                    run.add("pool.jobs", jobs as f64);
                }
            }
            run.tick();
        }
        if failures.is_empty() {
            run.check_output("run_study.csv", &rows, &mut failures);
        }
        run.finish_op(failures);

        self.results.clear();
        // The unit operation is one network's evaluation: single probes
        // differ in cost fivefold.
        for net in &self.nets {
            let mut failures = Vec::new();
            let started = run.clock.stamp();
            let evaluated = evaluate(run, net);
            run.op(net.arrangement.kind().label(), started);
            match evaluated {
                Err(e) => failures.push(format!("evaluate {}: {e}", net.arrangement.kind())),
                Ok((result, text)) => {
                    if result.zero_load_latency_cycles != net.zero_load {
                        let zero_load = net.zero_load;
                        failures
                            .push(format!("zero_load_of {zero_load} differs from evaluate"));
                    }
                    let row = csv_row(&result);
                    if !rows.lines().any(|line| line == row) {
                        failures.push(format!("eval row `{row}` is not in run_study's table"));
                    }
                    let op = format!("eval.{}", result.kind.label());
                    run.check_output(&op, &text, &mut failures);
                    self.results.push(result);
                }
            }
            run.finish_op(failures);
        }
    }

    fn report(&self, run: &Run, passes: f64, out: &mut Report) {
        let secs = run.get("load_point");
        out.human("cycles_per_s", "1/s", run.get("sim.cycles") / secs);
        out.human("flit_hops_per_s", "1/s", run.get("sim.flit_hops") / secs);
        out.human("load_point_s_p50", "s", run.median("load_point"));
        let saturated_s = run.get("measure.saturated_s");
        let stable_s = run.get("measure.stable_s");
        out.layer("measure.load_point_s", run.median("load_point"));
        out.layer("measure.saturated_s", saturated_s / passes);
        out.layer("measure.stable_s", stable_s / passes);
        out.layer("measure.useful_ratio", stable_s / (stable_s + saturated_s));
        for name in ["measure.points", "measure.saturated_points", "measure.deadlock_points"] {
            out.layer(name, run.get(name) / passes);
        }
        out.layer("eval.evaluate_s", run.get("eval.evaluate") / passes);
        out.layer("flow.run_study_s", run.get("flow.run_study") / passes);
        out.layer("pool.jobs", run.get("pool.jobs") / passes);
        out.sim_layers(run, passes, secs);

        let by = |kind| self.results.iter().find(|r| r.kind == kind);
        if let (Some(hm), Some(grid)) =
            (by(ArrangementKind::HexaMesh), by(ArrangementKind::Grid))
        {
            out.accuracy(
                1.0 - hm.zero_load_latency_cycles / grid.zero_load_latency_cycles,
                hm.saturation_throughput_tbps / grid.saturation_throughput_tbps - 1.0,
            );
        }
    }
}

/// The evaluation of one network, one layer below `run_study`, with each
/// probe timed; returns the result and its output text.
fn evaluate(run: &mut Run, net: &Net) -> Result<(EvalResult, String), EvalError> {
    let tracer = &run.tracer;
    let clock = &mut run.clock;
    let calibrating_s = clock.calibrating_s();
    let g = net.arrangement.graph();

    // Every pass, traced or not, attaches the same probe: the point's
    // stall counters are its windows' sum.
    let mut schedule = net.params.measure;
    let cycles = schedule.warmup_cycles + schedule.measure_cycles;
    schedule.probe = Some(Probe::new(PROBE_EVERY, Probe::capacity_for(PROBE_EVERY, cycles)));
    let mut probed = Vec::new();
    let (result, evaluate_s) = timed(tracer, "hexamesh::eval", "eval.evaluate", || {
        eval::evaluate_with(&net.arrangement, &net.params, 1, |_, rates| {
            rates
                .iter()
                .map(|&rate| {
                    let config = SimConfig { injection_rate: rate, ..net.params.sim };
                    let (observed, secs) =
                        timed(tracer, "nocsim", "measure.load_point", || {
                            measure::run_load_point_observed(g, &config, &schedule)
                        });
                    // Probes take up to a second: calibrate between them.
                    clock.tick(tracer);
                    let (point, obs) = observed?;
                    let mut stalls = StallCounters::default();
                    for w in &obs.windows {
                        stalls.vc_starved += w.stalls.vc_starved;
                        stalls.credit_starved += w.stalls.credit_starved;
                        stalls.switch_lost += w.stalls.switch_lost;
                    }
                    probed.push(Probed {
                        secs,
                        saturated: point.saturated,
                        deadlock: point.deadlock,
                        cycles: schedule.warmup_cycles + point.stats.window_cycles,
                        flit_hops: flit_hops(&obs.channel_loads),
                        stalls,
                        text: format!("{point:?}"),
                    });
                    Ok(point)
                })
                .collect()
        })
    });
    let evaluate_s = evaluate_s - (run.clock.calibrating_s() - calibrating_s);
    run.add("eval.evaluate", evaluate_s);
    let result = result?;

    let mut text = format!("{result:?} zero_load={}", net.zero_load);
    for p in &probed {
        run.sample("load_point", p.secs);
        run.add("load_point", p.secs);
        run.add("measure.points", 1.0);
        run.add(if p.saturated { "measure.saturated_s" } else { "measure.stable_s" }, p.secs);
        run.add("measure.saturated_points", f64::from(u8::from(p.saturated)));
        run.add("measure.deadlock_points", f64::from(u8::from(p.deadlock)));
        run.add("sim.cycles", p.cycles as f64);
        run.add("sim.flit_hops", p.flit_hops as f64);
        run.add_stalls(&p.stalls);
        text.push_str(&format!(" | {} hops={}", p.text, p.flit_hops));
    }
    Ok((result, text))
}

/// `result` as the saturation stage's CSV row.
fn csv_row(r: &EvalResult) -> String {
    format!(
        "{},{},{},{},{},{},{},{},{}",
        r.kind.label(),
        r.regularity,
        r.n,
        f3(r.zero_load_latency_cycles),
        f3(r.saturation_fraction),
        f3(r.link_bandwidth_gbps),
        f3(r.full_global_bandwidth_tbps),
        f3(r.saturation_throughput_tbps),
        r.diameter,
    )
}
