//! `serve`: one client against a resident `xp::Server` whose cache starts
//! empty.
//!
//! The script first computes a handful of small studies (cold misses:
//! `load_curve` and `workload` specs at n ≤ 20), then two warm-start
//! supersets of the load curves, then well over a hundred requests that
//! must hit: exact repeats, re-spellings with reordered keys, the
//! `{"id", "spec"}` envelope, and defaults spelled out. The order of the
//! hits follows the seed variant. This is the only workload where
//! `xp::hash` and `xp::cache` dominate.
//!
//! Each request line goes through `xp::serve::serve_lines`, the wire
//! protocol of `study serve`, one line per call, and is timed from send
//! to the last byte of the reply. A traced run also replays the script on
//! a second server through the public calls the protocol makes (parse,
//! `cache_key`, `ResultCache::load`, `submit`) to time each one, outside
//! the timed passes.

use std::path::{Path, PathBuf};
use std::time::Instant;

use xp::cli::OutputFormat;
use xp::hash::sha256_hex;
use xp::json;
use xp::serve::{serve_lines, Outcome};
use xp::{CampaignArgs, ServeConfig, Server, StageHooks, StudySpec};

use super::{timed, Report, Workload};
use crate::run::Run;
use crate::variant::sim_seed;

/// Engine version keyed into the cache. Fixed, so served bytes do not
/// depend on the checkout's git state.
const VERSION: &str = "perfbench";
/// Hit requests per pass.
const HITS: usize = 120;

/// A study the script requests: its label, the axes of its canonical
/// spelling, and its stage.
struct Study {
    label: &'static str,
    stage: &'static str,
    axes: &'static str,
    /// Spelling with the axes in another key order.
    axes_reordered: &'static str,
    load_curve: bool,
}

const COLD: [Study; 5] = [
    Study {
        label: "lc_hexamesh",
        stage: "load_curve",
        axes: r#"{"kinds": ["hexamesh"], "ns": [19], "rates": [0.05, 0.1]}"#,
        axes_reordered: r#"{"rates": [0.05, 0.1], "ns": [19], "kinds": ["hexamesh"]}"#,
        load_curve: true,
    },
    Study {
        label: "lc_grid",
        stage: "load_curve",
        axes: r#"{"kinds": ["grid"], "ns": [16], "rates": [0.05, 0.1]}"#,
        axes_reordered: r#"{"ns": [16], "rates": [0.05, 0.1], "kinds": ["grid"]}"#,
        load_curve: true,
    },
    Study {
        label: "lc_brickwall",
        stage: "load_curve",
        axes: r#"{"kinds": ["brickwall"], "ns": [20], "rates": [0.08]}"#,
        axes_reordered: r#"{"rates": [0.08], "kinds": ["brickwall"], "ns": [20]}"#,
        load_curve: true,
    },
    Study {
        label: "wl_hexamesh",
        stage: "workload",
        axes: r#"{"kinds": ["hexamesh"], "ns": [19], "workloads": ["stencil"]}"#,
        axes_reordered: r#"{"workloads": ["stencil"], "ns": [19], "kinds": ["hexamesh"]}"#,
        load_curve: false,
    },
    Study {
        label: "wl_grid",
        stage: "workload",
        axes: r#"{"kinds": ["grid"], "ns": [16], "workloads": ["ring_allreduce"]}"#,
        axes_reordered: r#"{"ns": [16], "kinds": ["grid"], "workloads": ["ring_allreduce"]}"#,
        load_curve: false,
    },
];

/// Warm-start supersets of the first two load curves.
const WARM: [Study; 2] = [
    Study {
        label: "lc_hexamesh_plus",
        stage: "load_curve",
        axes: r#"{"kinds": ["hexamesh"], "ns": [19], "rates": [0.05, 0.1, 0.15]}"#,
        axes_reordered: r#"{"rates": [0.05, 0.1, 0.15], "kinds": ["hexamesh"], "ns": [19]}"#,
        load_curve: true,
    },
    Study {
        label: "lc_grid_plus",
        stage: "load_curve",
        axes: r#"{"kinds": ["grid"], "ns": [16], "rates": [0.05, 0.1, 0.15]}"#,
        axes_reordered: r#"{"ns": [16], "kinds": ["grid"], "rates": [0.05, 0.1, 0.15]}"#,
        load_curve: true,
    },
];

/// One request line of the script.
struct Request {
    /// The study it names (output check key).
    label: &'static str,
    /// The outcome it must get.
    expect: Outcome,
    line: String,
    /// The cache key of the study's plain spelling, which every spelling
    /// must land on (filled in at set-up).
    key: String,
}

/// The workload's inputs.
pub struct Serve {
    script: Vec<Request>,
    args: CampaignArgs,
    tmp: PathBuf,
    passes: usize,
}

impl Workload for Serve {
    const NAME: &'static str = "serve";

    fn setup(run: &mut Run, tmp: &Path) -> Self {
        let seed = sim_seed(run.variant);
        let args = CampaignArgs {
            workers: 1,
            seeds: 1,
            quick: true,
            full: false,
            out: tmp.join("serve-sinks"),
            format: OutputFormat::Both,
            campaign_seed: seed,
            progress: false,
        };
        // The client sends only well-formed, valid requests, and knows the
        // key each one must land on: its study's plain spelling's.
        let keys = Server::new(tmp.join("keys"), server_config(&args), StageHooks::default());
        let mut script = script(seed);
        let mut plain_keys = std::collections::BTreeMap::new();
        for request in &mut script {
            let doc = json::parse(&request.line).expect("request lines are JSON");
            let spec = StudySpec::from_value(doc.get("spec").unwrap_or(&doc))
                .and_then(|spec| spec.validate().map(|()| spec))
                .unwrap_or_else(|e| panic!("invalid request {}: {e}", request.line));
            let (key, _) = keys.cache_key(&spec);
            request.key = plain_keys.entry(request.label).or_insert(key).clone();
        }
        Self { script, args, tmp: tmp.join("serve"), passes: 0 }
    }

    fn pass(&mut self, run: &mut Run) {
        // Every pass starts from an empty cache.
        self.passes += 1;
        let dir = self.tmp.join(format!("pass-{}", self.passes));
        let server = Server::new(&dir, server_config(&self.args), StageHooks::default());
        for request in &self.script {
            // One request line through the wire protocol, timed from send
            // to the last byte of the reply.
            let mut wire = Vec::new();
            let started = run.clock.stamp();
            let t0 = Instant::now();
            let sent = run.tracer.span("xp", "serve.request", || {
                serve_lines(&server, request.line.as_bytes(), &mut wire)
            });
            let secs = t0.elapsed().as_secs_f64();
            let mut failures = Vec::new();
            match sent.map_err(|e| e.to_string()).and_then(|_| read_reply(&wire)) {
                Err(e) => failures.push(format!("{}: {e}", request.label)),
                Ok(reply) => {
                    if reply.outcome != request.expect.name() {
                        failures.push(format!(
                            "{}: served as {} but must be {}",
                            request.label,
                            reply.outcome,
                            request.expect.name()
                        ));
                    }
                    for key in [&reply.accepted_key, &reply.key] {
                        if *key != request.key {
                            failures.push(format!(
                                "{}: `{}` landed on key {key} instead of {}",
                                request.label, request.line, request.key
                            ));
                        }
                    }
                    run.check_output(request.label, &reply.bytes, &mut failures);
                    let series = match reply.outcome.as_str() {
                        "hit" => "hit",
                        "miss" => "miss",
                        _ => "warm",
                    };
                    run.sample(series, secs);
                    if series == "hit" {
                        run.op("hit", started);
                    }
                }
            }
            run.finish_op(failures);
        }
        let stats = server.stats();
        run.add("cache.requests", stats.requests as f64);
        run.add("cache.hits", stats.hits as f64);
        run.add("cache.misses", stats.misses as f64);
        run.add("cache.warm", stats.warm as f64);
        run.add("cache.deduped", stats.deduped as f64);
        run.add("cache.evictions", stats.evictions as f64);
        run.add("cache.backend_runs", stats.backend_runs as f64);
        run.add("cache.backend_jobs", stats.backend_jobs as f64);
        run.add("pool.jobs", stats.backend_jobs as f64);
        drop(server);
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// Replays the script on a second fresh server through its public
    /// calls one by one (parse, `cache_key`, `ResultCache::load`,
    /// `submit`) to time each layer of the request path on its own.
    fn probe_layers(&mut self, run: &mut Run) {
        let dir = self.tmp.join(format!("probe-{}", self.passes));
        let server = Server::new(&dir, server_config(&self.args), StageHooks::default());
        for request in &self.script {
            let mut failures = Vec::new();
            if let Err(e) = probe_request(run, &server, request) {
                failures.push(format!("{} (layer probe): {e}", request.label));
            }
            run.finish_op(failures);
        }
        drop(server);
        let _ = std::fs::remove_dir_all(&dir);
    }

    fn report(&self, run: &Run, passes: f64, out: &mut Report) {
        let hits = &run.samples.get("hit").cloned().unwrap_or_default();
        out.human("hit_ms_p50", "ms", crate::stats::median(hits) * 1e3);
        out.human("hit_ms_p90", "ms", crate::stats::quantile(hits, 0.9) * 1e3);
        out.human("miss_s_p50", "s", run.median("miss"));
        out.human("warm_s_p50", "s", run.median("warm"));
        for name in [
            "cache.hits",
            "cache.misses",
            "cache.warm",
            "cache.deduped",
            "cache.evictions",
            "cache.backend_runs",
            "cache.backend_jobs",
            "pool.jobs",
        ] {
            out.layer(name, run.get(name) / passes);
        }
        out.layer("cache.hit_ratio", run.get("cache.hits") / run.get("cache.requests"));
        for name in [
            "serve.parse",
            "hash.cache_key",
            "cache.load",
            "serve.submit_hit",
            "serve.submit_miss",
            "serve.submit_warm",
        ] {
            out.layer(&format!("{name}_s"), run.get(name) / passes);
        }
        out.layer("flow.run_study_s", run.get("serve.submit_miss") / passes);
    }
}

/// The server configuration: the run's campaign flags and the fixed
/// engine version.
fn server_config(args: &CampaignArgs) -> ServeConfig {
    ServeConfig { args: args.clone(), version: VERSION.to_owned() }
}

/// What the wire protocol replied to one request line.
struct Reply {
    /// The key of the `accepted` event.
    accepted_key: String,
    /// The key and outcome of the `done` event.
    key: String,
    outcome: String,
    /// Every served file, name and bytes, in order.
    bytes: String,
}

/// Reads the event lines `serve_lines` wrote for one request: `accepted`,
/// its `file`s (each checked against its own `sha256`), then `done`.
fn read_reply(wire: &[u8]) -> Result<Reply, String> {
    let text = std::str::from_utf8(wire).map_err(|e| e.to_string())?;
    let field = |doc: &json::Value, name: &str| match doc.get(name) {
        Some(json::Value::Str(s)) => Ok(s.clone()),
        _ => Err(format!("event without `{name}`: {}", doc.to_json())),
    };
    let (mut accepted_key, mut done) = (None, None);
    let mut bytes = String::new();
    for line in text.lines() {
        let doc = json::parse(line)?;
        match field(&doc, "event")?.as_str() {
            "accepted" => accepted_key = Some(field(&doc, "key")?),
            "file" => {
                let content = field(&doc, "content")?;
                if field(&doc, "sha256")? != sha256_hex(content.as_bytes()) {
                    return Err(format!(
                        "file event's sha256 does not match its bytes: {line}"
                    ));
                }
                bytes.push_str(&field(&doc, "name")?);
                bytes.push('\n');
                bytes.push_str(&content);
            }
            "done" => done = Some((field(&doc, "key")?, field(&doc, "outcome")?)),
            "error" => return Err(field(&doc, "message")?),
            _ => {}
        }
    }
    let accepted_key = accepted_key.ok_or("no `accepted` event")?;
    let (key, outcome) = done.ok_or("no `done` event")?;
    Ok(Reply { accepted_key, key, outcome, bytes })
}

/// One request through the server's public calls, each timed into its
/// per-layer tally; checks the outcome and the key.
fn probe_request(run: &mut Run, server: &Server, request: &Request) -> Result<(), String> {
    let tracer = &run.tracer;
    let (spec, parse_s) = timed(tracer, "xp", "serve.parse", || {
        let doc = json::parse(&request.line)?;
        StudySpec::from_value(doc.get("spec").unwrap_or(&doc))
    });
    let spec = spec?;
    let ((key, _), key_s) = timed(tracer, "xp", "hash.cache_key", || server.cache_key(&spec));
    let (lookup, load_s) =
        timed(tracer, "xp", "cache.load", || server.cache().load(&key, VERSION));
    lookup.map_err(|e| e.to_string())?;
    let (served, submit_s) = timed(tracer, "xp", "serve.submit", || server.submit(&spec));
    let served = served.map_err(|e| e.to_string())?;
    run.add("serve.parse", parse_s);
    run.add("hash.cache_key", key_s);
    run.add("cache.load", load_s);
    run.add(
        match served.outcome {
            Outcome::Hit => "serve.submit_hit",
            Outcome::Miss => "serve.submit_miss",
            _ => "serve.submit_warm",
        },
        submit_s,
    );
    if served.outcome != request.expect {
        return Err(format!(
            "served as {} but must be {}",
            served.outcome.name(),
            request.expect.name()
        ));
    }
    if served.key != request.key {
        return Err(format!("landed on key {} instead of {}", served.key, request.key));
    }
    Ok(())
}

/// The request lines of one pass: cold misses, warm supersets, then
/// [`HITS`] hits in an order drawn from `seed`.
fn script(seed: u64) -> Vec<Request> {
    let bare = |s: &Study| {
        format!(r#"{{"name": "pb_{}", "stage": "{}", "axes": {}}}"#, s.label, s.stage, s.axes)
    };
    let first = |s: &Study, expect| Request {
        label: s.label,
        expect,
        line: bare(s),
        key: String::new(),
    };
    let mut out: Vec<Request> = COLD.iter().map(|s| first(s, Outcome::Miss)).collect();
    out.extend(WARM.iter().map(|s| first(s, Outcome::Warm)));

    let spellings = |s: &Study| -> Vec<String> {
        let defaults = if s.load_curve { r#", "patterns": ["uniform"]"# } else { "" };
        let axes_explicit = format!("{}{defaults}}}", s.axes.trim_end_matches('}'));
        vec![
            bare(s),
            format!(
                r#"{{"axes": {}, "stage": "{}", "name": "pb_{}"}}"#,
                s.axes_reordered, s.stage, s.label
            ),
            format!(r#"{{"id": "r-{}", "spec": {}}}"#, s.label, bare(s)),
            format!(
                r#"{{"name": "pb_{}", "stage": "{}", "seed": {seed}, "replicates": 1, "axes": {axes_explicit}, "serve": {{"mode": "reuse", "warm_start": true}}}}"#,
                s.label, s.stage
            ),
        ]
    };
    let mut hits: Vec<Request> = Vec::new();
    let studies: Vec<&Study> = COLD.iter().chain(&WARM).collect();
    let forms: Vec<Vec<String>> = studies.iter().map(|s| spellings(s)).collect();
    for i in 0..HITS {
        let (s, forms) = (studies[i % studies.len()], &forms[i % studies.len()]);
        let line = forms[(i / studies.len()) % forms.len()].clone();
        hits.push(Request { label: s.label, expect: Outcome::Hit, line, key: String::new() });
    }
    // Fisher–Yates with the splitmix64 stream of the seed.
    let mut state = seed;
    for i in (1..hits.len()).rev() {
        state = xp::seed::splitmix64(state);
        let j = (state % (i as u64 + 1)) as usize;
        hits.swap(i, j);
    }
    out.extend(hits);
    out
}
