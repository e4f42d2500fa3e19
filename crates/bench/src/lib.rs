//! Shared harness for regenerating every table and figure of the HexaMesh
//! paper.
//!
//! Every paper artefact is regenerated either by a named
//! [`xp::spec::StudySpec`] preset run through the `study` binary, or by
//! one of the few analytic binaries that predate the study flow. Both
//! write CSV series (and JSON manifests) into `results/` unless told
//! otherwise; see DESIGN.md's experiment index.
//!
//! | `study --preset …` ([`presets`]) | paper artefact |
//! |----------------------|----------------|
//! | `fig7_simulation`    | Fig. 7a–d latency/throughput (cycle-accurate) |
//! | `load_curves`        | EXP-LC latency-vs-load curves behind Fig. 7 |
//! | `ablation_traffic`   | EXP-A3 traffic-pattern sensitivity of the ranking |
//! | `ablation_router`    | EXP-A2 router-microarchitecture sensitivity (saturation per router model) |
//! | `workload_comparison`| EXP-W1 closed-loop application ranking (makespan) |
//! | `kite_comparison`    | EXP-K1 HexaMesh vs. Kite-style topologies (§VII) |
//! | `arrangement_search` | EXP-AS1 optimized vs. fixed arrangements |
//! | `proxies`            | Fig. 6 diameter/bisection proxies over any axes |
//! | `thermal_comparison` | EXP-TH1 arrangement thermal comparison (§II/\[16\]) |
//! | `cost_model`         | EXP-C1 monolithic vs. 2.5D cost (§I/\[17\]) |
//! | `resilience`         | EXP-R1 bridges/connectivity and live-link-failure degradation (§IV-C) |
//! | `netview`            | one load point with every observability sink on |
//! | `router_fidelity`    | EXP-RM1 arrangement ranking under six router models (`BENCH_router`) |
//!
//! | binary | paper artefact |
//! |--------|----------------|
//! | `study`               | **any** — runs a spec file or a preset (above) |
//! | `fig4_arrangements`   | Fig. 4 neighbour/diameter/bisection panel |
//! | `fig5_shape`          | Fig. 5 / §IV-B shape worked example |
//! | `fig6_proxies`        | Fig. 6a diameter, Fig. 6b bisection |
//! | `table1_link_model`   | Table I + §VI-B link bandwidth estimates |
//! | `ablation_interposer` | EXP-A5 C4 vs. micro-bump carrier ablation |
//! | `phy_sweep`           | EXP-P1 link reach/derating (§II/§V envelopes) |
//! | `simperf`             | simulator performance tracking (`BENCH_nocsim`) |
//!
//! The `benches/` directory holds Criterion benchmarks exercising reduced
//! versions of the same code paths for performance regression tracking.
//!
//! Every sweep runs on the experiment engine (the `xp` crate): a shared
//! worker pool with large-job-first scheduling, coordinate-derived seeds
//! (rows are identical for any `--workers` value), `--seeds K` replicate
//! aggregation, and unified CSV + JSON sinks. The campaign binaries accept
//! the shared flags `--workers`, `--seeds`, `--quick`/`--full`, `--out`,
//! `--format csv|json|both`, and `--seed`; unknown flags abort. `study`
//! adds generic axis overrides (`--ns`, `--rates`, `--patterns`, …) that
//! win over the preset or spec; see DESIGN.md's "Study specs".

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod csv;
pub mod presets;
pub mod sweep;

/// Directory (relative to the workspace root / current dir) where binaries
/// write their CSV output.
pub const RESULTS_DIR: &str = "results";
