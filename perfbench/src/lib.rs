//! Layered performance benchmark of the HexaMesh reproduction.
//!
//! One process runs one workload in a closed loop (one client; the next
//! operation starts when the previous returns), checks every output, and
//! prints its metrics. `README.md` describes the workloads, the metrics
//! and which layer each per-layer metric is expected to move.

pub mod calib;
pub mod knees;
pub mod run;
pub mod stats;
pub mod trace;
pub mod variant;
pub mod workloads;

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::time::Instant;

use xp::json::Value;

use run::Run;
use workloads::{Report, Workload};

/// A run repeats its set-up in batches spread over the run: at least
/// [`SETUP_MIN_REPS`] times and for [`SETUP_FIRST_SECONDS`] before the
/// first pass, then after every pass for [`SETUP_SHARE`] of that pass's
/// time (at least once). `setup_s` is the median of all of them: the
/// host's speed drifts over seconds, and set-ups timed only at the start
/// would see one moment of it.
pub const SETUP_MIN_REPS: usize = 5;
/// See [`SETUP_MIN_REPS`].
pub const SETUP_FIRST_SECONDS: f64 = 0.25;
/// See [`SETUP_MIN_REPS`].
pub const SETUP_SHARE: f64 = 0.1;

/// Per-layer metrics of a traced run: `(name, unit)`. A workload that
/// never enters a layer reports 0 for it.
pub const PER_LAYER: [(&str, &str); 54] = [
    ("process.peak_rss_mb", "MB"),
    ("routing.tables_s", "s"),
    ("sim.new_s", "s"),
    ("sim.run_s", "s"),
    ("sim.cycles", "count"),
    ("sim.flit_hops", "count"),
    ("sim.ns_per_flit_hop", "ns"),
    ("sim.packets_delivered", "count"),
    ("sim.flits_in_network_end", "count"),
    ("router.vc_starved", "count"),
    ("router.credit_starved", "count"),
    ("router.switch_lost", "count"),
    ("router.credit_starved_per_cycle", "count/cycle"),
    ("shard.run_s", "s"),
    ("shard.speedup_vs_serial", "x"),
    ("measure.load_point_s", "s"),
    ("measure.points", "count"),
    ("measure.saturated_points", "count"),
    ("measure.saturated_s", "s"),
    ("measure.stable_s", "s"),
    ("measure.useful_ratio", "ratio"),
    ("measure.deadlock_points", "count"),
    ("eval.zero_load_s", "s"),
    ("eval.evaluate_s", "s"),
    ("driver.new_s", "s"),
    ("driver.run_s", "s"),
    ("driver.makespan_cycles", "cycles"),
    ("driver.messages", "count"),
    ("driver.host_ns_per_sim_cycle", "ns"),
    ("flow.run_study_s", "s"),
    ("pool.jobs", "count"),
    ("hash.cache_key_s", "s"),
    ("cache.load_s", "s"),
    ("cache.hits", "count"),
    ("cache.misses", "count"),
    ("cache.warm", "count"),
    ("cache.deduped", "count"),
    ("cache.evictions", "count"),
    ("cache.backend_runs", "count"),
    ("cache.backend_jobs", "count"),
    ("cache.hit_ratio", "ratio"),
    ("serve.parse_s", "s"),
    ("serve.submit_hit_s", "s"),
    ("serve.submit_miss_s", "s"),
    ("serve.submit_warm_s", "s"),
    ("self_s.nocsim", "s"),
    ("self_s.hexamesh.eval", "s"),
    ("self_s.chiplet_workload", "s"),
    ("self_s.xp", "s"),
    ("self_s.obs", "s"),
    ("self_s.perfbench", "s"),
    ("trace.overhead", "x"),
    ("accuracy.zero_load_reduction", "ratio"),
    ("accuracy.tbps_gain", "ratio"),
];

/// Tallies that are deterministic work counts: they repeat exactly from
/// run to run on any host.
pub const WORK_COUNTS: [&str; 20] = [
    "sim.cycles",
    "sim.flit_hops",
    "sim.packets_delivered",
    "sim.flits_in_network_end",
    "router.vc_starved",
    "router.credit_starved",
    "router.switch_lost",
    "measure.points",
    "measure.saturated_points",
    "measure.deadlock_points",
    "driver.makespan_cycles",
    "driver.messages",
    "pool.jobs",
    "cache.requests",
    "cache.hits",
    "cache.misses",
    "cache.warm",
    "cache.evictions",
    "cache.backend_runs",
    "cache.backend_jobs",
];

/// What a run was asked to do.
#[derive(Debug, Clone)]
pub struct Options {
    /// Workload name.
    pub workload: String,
    /// Workload seed (selects the input variant).
    pub seed: u64,
    /// Seconds to keep running passes: the run stops at the pass
    /// boundary nearest to it, after at least one pass.
    pub seconds: f64,
    /// Traced run: per-layer metrics instead of end-to-end ones.
    pub trace: bool,
    /// Directory for results, traces and scratch files.
    pub out: PathBuf,
}

/// A finished run.
#[derive(Debug)]
pub struct Outcome {
    /// Every output check passed.
    pub correct: bool,
    /// Operations attempted.
    pub attempted: u64,
    /// Operations that failed a check.
    pub failed: u64,
    /// The metrics `BENCHMARK.json` names: end-to-end, or per-layer when
    /// traced.
    pub metrics: Vec<(String, String, f64)>,
    /// Figures printed for people (every end-to-end figure, workload
    /// ones included).
    pub human: Vec<(String, String, f64)>,
    /// The full result record written to the results file.
    pub record: Value,
}

/// The workload names.
pub const WORKLOADS: [&str; 4] = ["saturation", "steady", "closed_loop", "serve"];

/// Runs one workload.
///
/// # Errors
///
/// Returns a message for an unknown workload or an unusable output
/// directory.
pub fn execute(opts: &Options) -> Result<Outcome, String> {
    match opts.workload.as_str() {
        "saturation" => execute_as::<workloads::saturation::Saturation>(opts),
        "steady" => execute_as::<workloads::steady::Steady>(opts),
        "closed_loop" => execute_as::<workloads::closed_loop::ClosedLoop>(opts),
        "serve" => execute_as::<workloads::serve::Serve>(opts),
        other => Err(format!("unknown workload `{other}` (one of {})", WORKLOADS.join(", "))),
    }
}

fn execute_as<W: Workload>(opts: &Options) -> Result<Outcome, String> {
    let variant = variant::of_seed(opts.seed);
    let tmp = opts.out.join(format!("tmp-{}", std::process::id()));
    std::fs::create_dir_all(&tmp).map_err(|e| format!("{}: {e}", tmp.display()))?;
    // The tracer is on only during traced passes: spans cover those alone.
    let mut run = Run::new(W::NAME, variant);

    let mut setups = Vec::new();
    let mut host_setups = Vec::new();
    let mut setup_tally = BTreeMap::new();
    let mut workload = setup_batch::<W>(
        &mut run,
        &tmp,
        (SETUP_MIN_REPS, SETUP_FIRST_SECONDS),
        (&mut setups, &mut host_setups),
        &mut setup_tally,
    );

    // A pass's host and reference seconds (see [`calib`]).
    let timed_pass = |run: &mut Run, workload: &mut W| {
        let span = run.tracer.open("perfbench", "pass");
        let started = run.clock.stamp();
        workload.pass(run);
        let ended = run.clock.stamp();
        run.tracer.close(span);
        run.calibrate();
        run.clock.between(&started, &ended).expect("a calibration follows the pass")
    };

    let measuring = Instant::now();
    let mut walls = Vec::new();
    let mut host_walls = Vec::new();
    let mut untraced_walls = Vec::new();
    loop {
        let round_started = Instant::now();
        if opts.trace {
            // A traced run alternates untraced and traced passes of the
            // same work, so `trace.overhead` compares the two under the
            // same host drift. Only the traced passes feed the tallies;
            // the untraced ones still run every output check.
            let kept = (
                std::mem::take(&mut run.tally),
                std::mem::take(&mut run.samples),
                std::mem::take(&mut run.op_ms),
                std::mem::take(&mut run.host_op_ms),
            );
            let (untraced, _) = timed_pass(&mut run, &mut workload);
            untraced_walls.push(untraced);
            (run.tally, run.samples, run.op_ms, run.host_op_ms) = kept;
        }
        run.tracer.set_on(opts.trace);
        let (host_wall, wall) = timed_pass(&mut run, &mut workload);
        run.tracer.set_on(false);
        host_walls.push(host_wall);
        walls.push(wall);
        run.sample("pass", host_wall);
        if opts.trace {
            workload.probe_layers(&mut run);
        }
        setup_batch::<W>(
            &mut run,
            &tmp,
            (1, SETUP_SHARE * host_wall),
            (&mut setups, &mut host_setups),
            &mut setup_tally,
        );
        // Stop at the round boundary nearest to `--seconds`, so a run's
        // length does not jump by a whole round with the host's speed.
        let round = round_started.elapsed().as_secs_f64();
        if measuring.elapsed().as_secs_f64() + round / 2.0 >= opts.seconds {
            break;
        }
    }
    let passes = walls.len() as f64;
    let mut report = Report::default();
    workload.report(&run, passes, &mut report);

    let mut human: Vec<(String, String, f64)> = vec![
        ("setup_s".into(), "s".into(), stats::median(&setups)),
        ("wall_s".into(), "s".into(), stats::median(&walls)),
        ("op_ms_p50".into(), "ms".into(), Run::op_quantile(&run.op_ms, 0.5)),
    ];
    let end_to_end = human.clone();
    // Not gated: only `serve` has the ten samples beyond p90 that make it
    // a steady figure (its `hit_ms_p90`).
    human.push(("op_ms_p90".into(), "ms".into(), Run::op_quantile(&run.op_ms, 0.9)));
    // The gated figures in this host's own seconds, and how slow the
    // host ran: the median calibration over the reference kernel time.
    human.push(("host_setup_s".into(), "s".into(), stats::median(&host_setups)));
    human.push(("host_wall_s".into(), "s".into(), stats::median(&host_walls)));
    human.push(("host_op_ms_p50".into(), "ms".into(), Run::op_quantile(&run.host_op_ms, 0.5)));
    let slowdown = stats::median(&run.clock.calibrations) / calib::REFERENCE_S;
    human.push(("host_slowdown".into(), "x".into(), slowdown));
    run.samples.insert("setup", setups);
    run.samples.insert("host_setup", host_setups);
    run.samples.insert("calibration", run.clock.calibrations.clone());
    // Reported, not gated: glibc gives each pool thread its own malloc
    // arena, so identical runs of `serve` peak at either ~9 or ~11 MB.
    let peak_rss = peak_rss_mb();
    human.push(("peak_rss_mb".into(), "MB".into(), peak_rss));
    report.layer("process.peak_rss_mb", peak_rss);
    for (name, unit, value) in &report.human {
        human.push(((*name).into(), (*unit).into(), *value));
    }
    let failed_ratio = run.failed as f64 / run.attempted.max(1) as f64;
    human.push(("failed_ratio".into(), "ratio".into(), failed_ratio));

    let mut trace_file = None;
    if opts.trace {
        let started = Instant::now();
        let path = opts.out.join(format!("trace-{}-seed{}.json", W::NAME, opts.seed));
        std::fs::write(&path, run.tracer.to_chrome_json())
            .map_err(|e| format!("{}: {e}", path.display()))?;
        report.layer("self_s.obs", started.elapsed().as_secs_f64());
        trace_file = Some(path);
        for (layer, secs) in run.tracer.self_s_by_layer() {
            report.layer(&format!("self_s.{}", layer.replace("::", ".")), secs / passes);
        }
        report.layer("trace.overhead", stats::median(&host_walls) / stats::median(&untraced_walls));
    }
    let reps = run.samples["setup"].len() as f64;
    for (name, tally) in
        [("routing.tables_s", "routing.tables"), ("eval.zero_load_s", "eval.zero_load")]
    {
        report.layer(name, setup_tally.get(tally).copied().unwrap_or(0.0) / reps);
    }
    if let Some((latency, tbps)) = report.accuracy {
        report.layer("accuracy.zero_load_reduction", latency);
        report.layer("accuracy.tbps_gain", tbps);
    }
    let per_layer: Vec<(String, String, f64)> = PER_LAYER
        .iter()
        .map(|&(name, unit)| {
            let v = report.layers.get(name).copied().unwrap_or(0.0);
            (name.to_owned(), unit.to_owned(), if v.is_finite() { v } else { 0.0 })
        })
        .collect();

    let _ = std::fs::remove_dir_all(&tmp);
    let metrics = if opts.trace { per_layer.clone() } else { end_to_end };
    let record = result_record(opts, &run, &human, &per_layer, &report, trace_file.as_deref());
    Ok(Outcome {
        correct: run.failed == 0,
        attempted: run.attempted,
        failed: run.failed,
        metrics,
        human,
        record,
    })
}

/// Sets the workload up at least `min.0` times and for at least `min.1`
/// seconds, adding each set-up's reference and host seconds to `setups`
/// (calibrated like operations, see [`calib`]) and its tallies to
/// `tally`; returns the last workload built.
fn setup_batch<W: Workload>(
    run: &mut Run,
    tmp: &Path,
    min: (usize, f64),
    setups: (&mut Vec<f64>, &mut Vec<f64>),
    tally: &mut BTreeMap<&'static str, f64>,
) -> W {
    let kept = std::mem::take(&mut run.tally);
    let started = Instant::now();
    let mut reps = 0;
    let mut workload = None;
    let mut stamps = Vec::new();
    while reps < min.0 || started.elapsed().as_secs_f64() < min.1 {
        let from = run.clock.stamp();
        workload = Some(W::setup(run, tmp));
        stamps.push((from, run.clock.stamp()));
        reps += 1;
        run.tick();
    }
    run.calibrate();
    for (from, to) in &stamps {
        let (host, reference) = run.clock.between(from, to).expect("calibrated after");
        setups.0.push(reference);
        setups.1.push(host);
    }
    for (name, v) in std::mem::replace(&mut run.tally, kept) {
        *tally.entry(name).or_default() += v;
    }
    workload.expect("at least one set-up")
}

fn metrics_value(list: &[(String, String, f64)]) -> Value {
    let mut doc = Value::object();
    for (name, unit, value) in list {
        let mut m = Value::object();
        m.set("value", *value);
        m.set("unit", unit.as_str());
        doc.set(name, m);
    }
    doc
}

fn result_record(
    opts: &Options,
    run: &Run,
    human: &[(String, String, f64)],
    per_layer: &[(String, String, f64)],
    report: &Report,
    trace_file: Option<&Path>,
) -> Value {
    let mut provenance = Value::object();
    provenance.set("host_cpus", host_cpus() as u64);
    provenance.set("git_describe", xp::campaign::git_describe());
    provenance.set("rustc", env!("PERFBENCH_RUSTC"));
    provenance.set("threads_max", if run.workload == "steady" { 2u64 } else { 1u64 });
    provenance.set("workers", 1u64);
    provenance.set("seed", opts.seed);
    provenance.set("variant", run.variant as u64);
    provenance.set("sim_seed", variant::sim_seed(run.variant));
    provenance.set("seconds", opts.seconds);
    provenance.set("traced", opts.trace);

    let mut doc = Value::object();
    doc.set("workload", run.workload);
    doc.set("provenance", provenance);
    doc.set("end_to_end", metrics_value(human));
    if opts.trace {
        doc.set("per_layer", metrics_value(per_layer));
    }
    let mut tally = Value::object();
    for (name, v) in &run.tally {
        tally.set(name, *v);
    }
    doc.set("tallies", tally);
    let mut samples = Value::object();
    for (name, v) in &run.samples {
        samples.set(name, Value::Arr(v.iter().map(|&x| Value::Num(x)).collect()));
    }
    let mut op_ms = Value::object();
    for (kind, v) in &run.op_ms {
        op_ms.set(kind, Value::Arr(v.iter().map(|&x| Value::Num(x)).collect()));
    }
    samples.set("op_ms", op_ms);
    let mut host_op_ms = Value::object();
    for (kind, v) in &run.host_op_ms {
        host_op_ms.set(kind, Value::Arr(v.iter().map(|&x| Value::Num(x)).collect()));
    }
    samples.set("host_op_ms", host_op_ms);
    doc.set("samples", samples);
    if let Some((latency, tbps)) = report.accuracy {
        let mut acc = Value::object();
        acc.set("note", "simulated HexaMesh vs grid at n = 91, quick schedule; the model is otherwise unvalidated");
        acc.set("zero_load_latency_reduction", latency);
        acc.set("saturation_tbps_gain", tbps);
        acc.set("paper_zero_load_latency_reduction", 0.19);
        acc.set("paper_saturation_tbps_gain", 0.34);
        doc.set("accuracy", acc);
    }
    if run.workload == "steady" {
        doc.set("knees", knees::provenance(run.variant));
    }
    let mut outputs = Value::object();
    for (op, fp) in &run.fingerprints {
        outputs.set(op, fp.as_str());
    }
    doc.set("outputs", outputs);
    doc.set(
        "failures",
        Value::Arr(run.messages.iter().map(|m| Value::Str(m.clone())).collect()),
    );
    if let Some(path) = trace_file {
        doc.set("trace_file", path.display().to_string());
    }
    doc
}

/// Logical CPUs the process may use.
#[must_use]
pub fn host_cpus() -> usize {
    std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get)
}

/// Peak resident set size of this process in MB (`VmHWM`), 0 where
/// `/proc` is unavailable.
#[must_use]
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}
