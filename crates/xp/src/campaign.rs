//! The campaign runner: ties a grid (or an ad-hoc job list) to the worker
//! pool and the unified sinks.
//!
//! A campaign is one invocation of an experiment binary. It runs jobs on
//! the pool (large-first, deterministic output order), then writes the
//! result table through the formats selected by `--format`:
//!
//! * `<out>/<name>.csv` — exactly the CSV the binary always produced;
//! * `<out>/<name>.json` — the same rows plus a run manifest: the shared
//!   flags, binary-specific config, `git describe`, and wall time.

use std::collections::BTreeSet;
use std::io;
use std::path::PathBuf;
use std::process::Command;
use std::sync::Mutex;
use std::time::{Duration, Instant, SystemTime, UNIX_EPOCH};

use obs::{ArgValue, TraceBuilder, TraceSpan};

use crate::cli::CampaignArgs;
use crate::grid::{Job, Scenario};
use crate::json::Value;
use crate::pool::{self, PoolOptions, PoolReport};
use crate::table::Table;

/// Accounting for one pool run, keyed by the stage label that was active
/// when it ran. Recorded for every study and folded into the manifest's
/// `stages` map.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct StageRecord {
    /// Stage label ([`Campaign::set_stage`]; defaults to the campaign
    /// name).
    pub stage: String,
    /// Jobs the pool ran.
    pub jobs: usize,
    /// Wall time of the pool run, milliseconds.
    pub wall_ms: u64,
    /// High-water mark of concurrently busy workers.
    pub peak_workers: usize,
}

/// Engine-trace collection state: the span sink plus which thread tracks
/// have been named already.
#[derive(Debug, Default)]
struct TraceState {
    builder: TraceBuilder,
    named_tids: BTreeSet<u64>,
}

/// One experiment invocation: shared flags plus sink bookkeeping.
#[derive(Debug)]
pub struct Campaign {
    name: String,
    args: CampaignArgs,
    started: Instant,
    stage: Mutex<String>,
    stages: Mutex<Vec<StageRecord>>,
    trace: Mutex<Option<TraceState>>,
}

impl Campaign {
    /// Starts a campaign named `name` (the output file stem).
    #[must_use]
    pub fn new(name: &str, args: CampaignArgs) -> Self {
        Self {
            name: name.to_owned(),
            args,
            started: Instant::now(),
            stage: Mutex::new(name.to_owned()),
            stages: Mutex::new(Vec::new()),
            trace: Mutex::new(None),
        }
    }

    /// Labels subsequent pool runs in the manifest's `stages` map and the
    /// engine trace. The label defaults to the campaign name; stages with
    /// several pool phases call this between them.
    pub fn set_stage(&self, label: &str) {
        *self.stage.lock().unwrap() = label.to_owned();
    }

    /// Starts collecting engine-level spans (one per pool job) for
    /// [`Campaign::write_trace`]. Off by default: span collection is
    /// cheap, but traces only get written when a study asks for them.
    pub fn enable_trace(&self) {
        let mut trace = self.trace.lock().unwrap();
        if trace.is_none() {
            let mut state = TraceState::default();
            state.builder.name_thread(0, "coordinator");
            state.named_tids.insert(0);
            *trace = Some(state);
        }
    }

    /// The stage records accumulated so far, in execution order.
    #[must_use]
    pub fn stage_records(&self) -> Vec<StageRecord> {
        self.stages.lock().unwrap().clone()
    }

    /// Writes the collected engine trace as Chrome-trace JSON to
    /// `<out>/trace.json` and returns the path; `Ok(None)` when tracing
    /// was never enabled.
    ///
    /// # Errors
    ///
    /// Propagates filesystem errors.
    pub fn write_trace(&self) -> io::Result<Option<PathBuf>> {
        let trace = self.trace.lock().unwrap();
        let Some(state) = trace.as_ref() else {
            return Ok(None);
        };
        std::fs::create_dir_all(&self.args.out)?;
        let path = self.args.out.join("trace.json");
        std::fs::write(&path, state.builder.to_json())?;
        Ok(Some(path))
    }

    /// Reporting knobs for a pool run under this campaign: per-job stderr
    /// lines under `--progress`, spans when tracing.
    fn pool_options(&self) -> PoolOptions<'_> {
        PoolOptions {
            per_job: self.args.progress.then_some(self.name.as_str()),
            collect_spans: self.trace.lock().unwrap().is_some(),
        }
    }

    /// Books one finished pool run: appends the [`StageRecord`] and, when
    /// tracing, converts the schedule spans (offset by `epoch_offset_ns`,
    /// the campaign-relative start of the pool run) into trace spans named
    /// by `describe(job_index)`.
    fn record_pool_run(
        &self,
        jobs: usize,
        report: &PoolReport,
        epoch_offset_ns: u64,
        describe: impl Fn(usize) -> (String, Vec<(&'static str, ArgValue)>),
    ) {
        let stage = self.stage.lock().unwrap().clone();
        self.stages.lock().unwrap().push(StageRecord {
            stage: stage.clone(),
            jobs,
            wall_ms: report.wall_ns / 1_000_000,
            peak_workers: report.peak_workers,
        });
        let mut trace = self.trace.lock().unwrap();
        let Some(state) = trace.as_mut() else {
            return;
        };
        let mut stage_span = TraceSpan::new(stage, "stage", 0, epoch_offset_ns, report.wall_ns);
        stage_span.args.push(("jobs", ArgValue::from(jobs)));
        stage_span.args.push(("peak_workers", ArgValue::from(report.peak_workers)));
        state.builder.push(stage_span);
        for span in &report.spans {
            let tid = span.worker as u64 + 1;
            if state.named_tids.insert(tid) {
                state.builder.name_thread(tid, format!("worker {}", span.worker));
            }
            let (name, args) = describe(span.index);
            let mut event =
                TraceSpan::new(name, "job", tid, epoch_offset_ns + span.start_ns, span.dur_ns);
            event.args.push(("job", ArgValue::from(span.index)));
            event.args.push(("wall_ns", ArgValue::from(span.dur_ns)));
            event.args.extend(args);
            state.builder.push(event);
        }
    }

    /// The campaign name (output file stem).
    #[must_use]
    pub fn name(&self) -> &str {
        &self.name
    }

    /// The shared flags this campaign runs under.
    #[must_use]
    pub fn args(&self) -> &CampaignArgs {
        &self.args
    }

    /// Expands `scenario` (replicates forced to `--seeds`) and runs every
    /// job on the pool. Returns `(job, result)` pairs in grid order,
    /// independent of the worker count.
    pub fn run_grid<R, F>(&self, scenario: &Scenario, run: F) -> Vec<(Job, R)>
    where
        R: Send,
        F: Fn(&Job) -> R + Sync,
    {
        self.run_grid_budgeted(scenario, 1, run)
    }

    /// [`Campaign::run_grid`] for jobs that are internally
    /// `threads_per_job`-way parallel (e.g. sharded simulations): the
    /// pool gets `--workers / threads_per_job` workers
    /// ([`pool::budgeted_workers`]) so the thread total stays within the
    /// budget. Results are identical for every worker count either way.
    pub fn run_grid_budgeted<R, F>(
        &self,
        scenario: &Scenario,
        threads_per_job: usize,
        run: F,
    ) -> Vec<(Job, R)>
    where
        R: Send,
        F: Fn(&Job) -> R + Sync,
    {
        let scenario = scenario.clone().with_replicates(self.args.seeds);
        let jobs = scenario.jobs(self.args.campaign_seed);
        let workers = pool::budgeted_workers(self.args.workers, threads_per_job);
        let offset = ns_u64(self.started.elapsed());
        let (results, report) =
            pool::run_jobs_reported(&jobs, workers, Job::weight, run, self.pool_options());
        self.record_pool_run(jobs.len(), &report, offset, |i| {
            let job = &jobs[i];
            let mut coord = format!("{} n={}", job.kind, job.n);
            if let Some(rate) = job.rate {
                let _ = std::fmt::Write::write_fmt(&mut coord, format_args!(" rate={rate}"));
            }
            let args = vec![
                ("coord", ArgValue::from(coord.clone())),
                ("replicate", ArgValue::from(job.replicate)),
                ("shards", ArgValue::from(threads_per_job)),
            ];
            (coord, args)
        });
        jobs.into_iter().zip(results).collect()
    }

    /// Runs an ad-hoc job list (axes beyond the standard grid, e.g.
    /// routing × VC ablations) on the pool with the campaign's worker
    /// count. Results come back in submission order.
    pub fn run_jobs<J, R, W, F>(&self, jobs: &[J], weight: W, run: F) -> Vec<R>
    where
        J: Sync,
        R: Send,
        W: Fn(&J) -> u64,
        F: Fn(&J) -> R + Sync,
    {
        let stage = self.stage.lock().unwrap().clone();
        self.run_jobs_budgeted(jobs, 1, weight, run, |i, _| format!("{stage} job {i}"))
    }

    /// [`Campaign::run_jobs`] for jobs that are internally
    /// `threads_per_job`-way parallel, with a caller-provided trace label
    /// per job (the ad-hoc twin of [`Campaign::run_grid_budgeted`]): the
    /// pool gets `--workers / threads_per_job` workers so the thread
    /// total stays within the budget. Results are identical for every
    /// worker count either way.
    pub fn run_jobs_budgeted<J, R, W, F, L>(
        &self,
        jobs: &[J],
        threads_per_job: usize,
        weight: W,
        run: F,
        label: L,
    ) -> Vec<R>
    where
        J: Sync,
        R: Send,
        W: Fn(&J) -> u64,
        F: Fn(&J) -> R + Sync,
        L: Fn(usize, &J) -> String,
    {
        let workers = pool::budgeted_workers(self.args.workers, threads_per_job);
        let offset = ns_u64(self.started.elapsed());
        let (results, report) =
            pool::run_jobs_reported(jobs, workers, weight, run, self.pool_options());
        self.record_pool_run(jobs.len(), &report, offset, |i| {
            let coord = label(i, &jobs[i]);
            let args = vec![
                ("coord", ArgValue::from(coord.clone())),
                ("shards", ArgValue::from(threads_per_job)),
            ];
            (coord, args)
        });
        results
    }

    /// Writes `table` through the selected sinks and returns the paths
    /// written. `config` carries binary-specific manifest fields (fixed
    /// `n`, routing choice, …); pass [`Value::object()`] when empty.
    ///
    /// # Errors
    ///
    /// Propagates filesystem errors.
    pub fn finish(&self, table: &Table, config: Value) -> io::Result<Vec<PathBuf>> {
        let name = self.name.clone();
        self.finish_named(&name, table, config)
    }

    /// [`Campaign::finish`] under a different file stem — for binaries
    /// producing several artefacts (e.g. Fig. 7's absolute and normalised
    /// series).
    ///
    /// # Errors
    ///
    /// Propagates filesystem errors.
    pub fn finish_named(
        &self,
        stem: &str,
        table: &Table,
        config: Value,
    ) -> io::Result<Vec<PathBuf>> {
        let mut written = Vec::new();
        if self.args.format.wants_csv() {
            let path = self.args.out.join(format!("{stem}.csv"));
            table.write_to(&path)?;
            written.push(path);
        }
        if self.args.format.wants_json() {
            let path = self.args.out.join(format!("{stem}.json"));
            std::fs::create_dir_all(&self.args.out)?;
            std::fs::write(&path, self.manifest(table, config).to_json())?;
            written.push(path);
        }
        Ok(written)
    }

    /// The JSON campaign document: manifest + rows.
    fn manifest(&self, table: &Table, config: Value) -> Value {
        let mut doc = Value::object();
        doc.set("campaign", self.name.as_str());
        doc.set("git", git_describe());
        doc.set(
            "created_unix_s",
            SystemTime::now().duration_since(UNIX_EPOCH).map_or(0, |d| d.as_secs()),
        );
        doc.set("wall_s", self.started.elapsed().as_secs_f64());

        let mut shared = Value::object();
        shared.set("workers", self.args.workers);
        shared.set("seeds", self.args.seeds);
        shared.set("quick", self.args.quick);
        shared.set("full", self.args.full);
        shared.set("format", self.args.format.label());
        shared.set("campaign_seed", self.args.campaign_seed);
        doc.set("args", shared);
        doc.set("config", config);

        // The per-stage wall-time map: every pool run books a record, so
        // every study's manifest shows where its time went and how full
        // the pool actually was.
        let records = self.stages.lock().unwrap();
        if !records.is_empty() {
            let mut stages = Value::object();
            let mut order: Vec<&str> = Vec::new();
            for rec in records.iter() {
                if !order.contains(&rec.stage.as_str()) {
                    order.push(&rec.stage);
                }
            }
            for label in order {
                let (mut jobs, mut wall_ms, mut peak) = (0usize, 0u64, 0usize);
                for rec in records.iter().filter(|r| r.stage == label) {
                    jobs += rec.jobs;
                    wall_ms += rec.wall_ms;
                    peak = peak.max(rec.peak_workers);
                }
                let mut entry = Value::object();
                entry.set("jobs", jobs);
                entry.set("wall_ms", wall_ms);
                entry.set("peak_workers", peak);
                stages.set(label, entry);
            }
            doc.set("stages", stages);
            doc.set("peak_workers", records.iter().map(|r| r.peak_workers).max().unwrap_or(0));
        }

        let (columns, rows) = table_columns_rows(table);
        doc.set("columns", columns);
        doc.set("rows", rows);
        doc
    }
}

/// The manifest's typed `columns` / `rows` encoding of a table: numeric
/// cells become JSON numbers (non-finite ones `null`, keeping each column
/// single-typed), everything else stays a string. Shared by the campaign
/// manifest and the serving layer's deterministic served manifests, so
/// the two encode rows identically.
#[must_use]
pub fn table_columns_rows(table: &Table) -> (Value, Value) {
    let columns: Vec<Value> = table.header().iter().map(|c| Value::Str(c.clone())).collect();
    let rows: Vec<Value> = table
        .rows()
        .iter()
        .map(|row| {
            let mut obj = Value::object();
            for (col, cell) in table.header().iter().zip(row) {
                match cell.parse::<f64>() {
                    Ok(x) if x.is_finite() => obj.set(col, x),
                    Ok(_) => obj.set(col, Value::Null),
                    Err(_) => obj.set(col, cell.as_str()),
                };
            }
            obj
        })
        .collect();
    (Value::Arr(columns), Value::Arr(rows))
}

/// Saturating nanosecond count of a [`Duration`] (u64 overflows after
/// ~584 years of campaign wall time).
fn ns_u64(d: Duration) -> u64 {
    u64::try_from(d.as_nanos()).unwrap_or(u64::MAX)
}

/// `git describe --always --dirty`, or `"unknown"` outside a git
/// checkout. Public because the serving layer folds it into cache keys:
/// a new engine version must never serve an old version's bytes.
#[must_use]
pub fn git_describe() -> String {
    Command::new("git")
        .args(["describe", "--always", "--dirty", "--tags"])
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map_or_else(
            || "unknown".to_owned(),
            |o| String::from_utf8_lossy(&o.stdout).trim().to_owned(),
        )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cli::OutputFormat;
    use hexamesh::arrangement::ArrangementKind;

    fn test_args(out: &std::path::Path) -> CampaignArgs {
        CampaignArgs {
            workers: 4,
            seeds: 2,
            quick: true,
            full: false,
            out: out.to_path_buf(),
            format: OutputFormat::Both,
            campaign_seed: 7,
            progress: false,
        }
    }

    #[test]
    fn grid_campaign_runs_and_writes_both_sinks() {
        let dir = std::env::temp_dir().join("xp_campaign_test");
        let _ = std::fs::remove_dir_all(&dir);
        let campaign = Campaign::new("unit", test_args(&dir));
        let scenario = Scenario::new(&[ArrangementKind::Grid], &[2, 3]);
        let results = campaign.run_grid(&scenario, |job| job.n * 10);
        // 2 ns × --seeds 2 replicates.
        assert_eq!(results.len(), 4);
        assert!(results.iter().all(|(job, r)| *r == job.n * 10));

        let mut table = Table::new(&["n", "value"]);
        for (job, r) in &results {
            table.row(&[&job.n, r]);
        }
        let written = campaign.finish(&table, Value::object()).unwrap();
        assert_eq!(written.len(), 2);
        let csv = std::fs::read_to_string(&written[0]).unwrap();
        assert!(csv.starts_with("n,value\n2,20\n"));
        let json = std::fs::read_to_string(&written[1]).unwrap();
        assert!(json.contains("\"campaign\":\"unit\""));
        assert!(json.contains("\"seeds\":2"));
        assert!(json.contains("\"rows\":[{\"n\":2,\"value\":20}"));
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn pool_runs_book_stage_records_into_the_manifest() {
        let dir = std::env::temp_dir().join("xp_campaign_stages");
        let _ = std::fs::remove_dir_all(&dir);
        let campaign = Campaign::new("staged", test_args(&dir));
        campaign.set_stage("sweep");
        let scenario = Scenario::new(&[ArrangementKind::Grid], &[2]);
        let _ = campaign.run_grid(&scenario, |job| job.n);
        campaign.set_stage("refine");
        let _ = campaign.run_jobs(&[1u64, 2, 3], |_| 1, |j| j + 1);

        let records = campaign.stage_records();
        assert_eq!(records.len(), 2);
        assert_eq!(records[0].stage, "sweep");
        assert_eq!(records[0].jobs, 2, "1 n x --seeds 2");
        assert_eq!(records[1].stage, "refine");
        assert_eq!(records[1].jobs, 3);
        assert!(records.iter().all(|r| (1..=4).contains(&r.peak_workers)));

        let table = Table::new(&["n"]);
        let json = campaign.manifest(&table, Value::object()).to_json();
        assert!(json.contains("\"stages\":{\"sweep\":{\"jobs\":2"), "{json}");
        assert!(json.contains("\"refine\":{\"jobs\":3"), "{json}");
        assert!(json.contains("\"peak_workers\":"), "{json}");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn enabled_trace_collects_spans_and_writes_json() {
        let dir = std::env::temp_dir().join("xp_campaign_trace");
        let _ = std::fs::remove_dir_all(&dir);
        let campaign = Campaign::new("traced", test_args(&dir));
        assert_eq!(campaign.write_trace().unwrap(), None, "off by default");
        campaign.enable_trace();
        let scenario = Scenario::new(&[ArrangementKind::Grid], &[2, 3]).with_rates(&[0.1]);
        let _ = campaign.run_grid(&scenario, |job| job.n);
        let path = campaign.write_trace().unwrap().expect("trace path");
        let json = std::fs::read_to_string(&path).unwrap();
        assert!(json.starts_with("{\"traceEvents\":["), "{json}");
        assert!(json.contains("\"coordinator\""), "{json}");
        assert!(json.contains("Grid n=2 rate=0.1"), "{json}");
        assert!(json.contains("\"replicate\":"), "{json}");
        assert!(json.contains("\"shards\":1"), "{json}");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn grid_results_identical_across_worker_counts() {
        let dir = std::env::temp_dir().join("xp_campaign_det");
        let scenario =
            Scenario::new(&ArrangementKind::EVALUATED, &[2, 3, 4]).with_rates(&[0.1, 0.2]);
        let run = |workers: usize| {
            let mut args = test_args(&dir);
            args.workers = workers;
            Campaign::new("det", args)
                .run_grid(&scenario, |job| (job.seed, job.n, job.replicate))
        };
        assert_eq!(run(1), run(8));
    }
}
