//! The `study` binary's flag handling — the one front door to every
//! preset and spec file. Only cheap commands run here (`--list`, the
//! analytic cost stage, and argument errors that exit before any job),
//! so the test stays fast in debug builds.

use std::path::PathBuf;
use std::process::{Command, Output};

use hexamesh_bench::presets::PRESET_NAMES;

fn study(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_study")).args(args).output().expect("study runs")
}

fn scratch_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("study_cli_{tag}_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

#[test]
fn list_names_every_preset() {
    let out = study(&["--list"]);
    assert!(out.status.success(), "--list failed: {out:?}");
    let stdout = String::from_utf8(out.stdout).expect("utf-8 listing");
    for name in PRESET_NAMES {
        assert!(
            stdout.lines().any(|line| line.split_whitespace().next() == Some(name)),
            "--list does not name preset {name}:\n{stdout}"
        );
    }
}

#[test]
fn preset_with_axis_override_writes_exactly_those_rows() {
    let dir = scratch_dir("cost");
    let out = study(&[
        "--preset",
        "cost_model",
        "--quick",
        "--ns",
        "4,16",
        "--format",
        "csv",
        "--out",
        dir.to_str().expect("utf-8 temp path"),
    ]);
    assert!(out.status.success(), "study failed: {}", String::from_utf8_lossy(&out.stderr));
    let csv = std::fs::read_to_string(dir.join("cost_model.csv")).expect("cost_model.csv");
    let mut lines = csv.lines();
    let header: Vec<&str> = lines.next().expect("header").split(',').collect();
    let n_col = header.iter().position(|&c| c == "num_chiplets").expect("num_chiplets column");
    let ns: Vec<&str> = lines.map(|line| line.split(',').nth(n_col).expect("n cell")).collect();
    assert!(!ns.is_empty(), "no rows written");
    assert!(ns.iter().all(|&n| n == "4" || n == "16"), "unexpected chiplet counts: {ns:?}");
    assert!(ns.contains(&"4") && ns.contains(&"16"), "missing a requested count: {ns:?}");
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn invalid_invocations_exit_2_with_an_error_line() {
    let cases: [&[&str]; 4] = [
        &["--spec", "examples/specs/cost_model.toml", "--preset", "cost_model"],
        &["--preset", "fig9"],
        &["--preset", "cost_model", "--bogus"],
        // A flag of the retired preset-wrapper binaries: `--ns` replaces it.
        &["--preset", "fig7_simulation", "--step", "7"],
    ];
    for args in cases {
        let out = study(args);
        assert_eq!(out.status.code(), Some(2), "{args:?} should exit 2: {out:?}");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(
            stderr.lines().any(|line| line.starts_with("error:")),
            "{args:?} printed no error line:\n{stderr}"
        );
    }
}
