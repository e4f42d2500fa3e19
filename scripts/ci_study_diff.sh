#!/usr/bin/env bash
# study-spec-vs-preset: run `study` on every checked-in preset spec with
# --quick and diff the CSV against `study --preset NAME` invoked with the
# equivalent generic flags. Proves the spec files and the preset registry
# name the same campaign.
#
# Usage: scripts/ci_study_diff.sh [target/release]
set -euo pipefail
cd "$(dirname "$0")/.."

STUDY="${1:-target/release}/study"
OUT="$(mktemp -d)"
trap 'rm -rf "$OUT"' EXIT
SHARED=(--quick --seed 42 --workers 2 --format both)

run_pair() {
    local preset="$1" spec="$2" csv="$3"
    shift 3
    echo "== $spec vs --preset $preset $*"
    "$STUDY" --spec "examples/specs/$spec" "${SHARED[@]}" --out "$OUT/spec_$preset" \
        > /dev/null
    "$STUDY" --preset "$preset" "$@" "${SHARED[@]}" --out "$OUT/preset_$preset" > /dev/null
    for stem in $csv; do
        cmp "$OUT/spec_$preset/$stem.csv" "$OUT/preset_$preset/$stem.csv"
        echo "   $stem.csv identical"
    done
}

run_pair fig7_simulation fig7_quick.toml "fig7_results fig7_normalized" --ns 2,9
run_pair load_curves load_curves_quick.toml load_curves --n 16
run_pair ablation_traffic ablation_traffic_quick.toml ablation_traffic \
    --n 9 --patterns uniform,tornado
run_pair ablation_router ablation_router_quick.toml ablation_router \
    --n 9 --routers baseline,oldest,fortified
run_pair workload_comparison workload_quick.toml BENCH_workload \
    --ns 7,13 --workloads stencil,client_server
run_pair kite_comparison kite_quick.toml kite_comparison --ns 16
run_pair arrangement_search arrangement_search_quick.toml BENCH_arrange \
    --ns 19 --restarts 3 --iterations 120
run_pair thermal_comparison thermal_quick.toml thermal_comparison --n 16
run_pair cost_model cost_model.toml cost_model
# Only the structural table is diffed: the spec file shrinks the
# [faults] degradation axes, which have no generic flag (the degradation
# table is covered by the golden test instead).
run_pair resilience resilience_quick.toml resilience

# The axis combination no preset covers: runs end to end purely from
# data (no diff target by construction).
echo "== opt_hotspot_load_curve (spec-only)"
"$STUDY" --spec examples/specs/opt_hotspot_load_curve.toml "${SHARED[@]}" \
    --out "$OUT/spec_opt" > /dev/null
grep -q ",OPT," "$OUT/spec_opt/opt_hotspot_curves.csv"
echo "   searched-arrangement rows present"

echo "study-spec-vs-preset: all spec files byte-identical to their presets"
