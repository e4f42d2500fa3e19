//! Past-knee work counts, pinned exactly.
//!
//! Every scenario runs at offered load 0.5 — far beyond the saturation
//! knee of both networks — under `paper_defaults` and the quick
//! measurement schedule, so most routers spend most cycles gridlocked
//! with heads that cannot bind an output VC. The expected rows pin the
//! window statistics, the cumulative router stall counters and the
//! total router-to-router flit-hops. They were recorded before the VC
//! allocator learned to skip heads whose answer cannot have changed, so
//! any drift in that memo (a skipped head that could have bound, a lost
//! stall tally, an extra policy-RNG draw) changes a row.

use chiplet_graph::{gen, Graph};
use hexamesh::arrangement::{Arrangement, ArrangementKind};
use nocsim::{
    FaultPlan, FaultSchedule, MeasureConfig, NetworkStats, RouterModelKind, ShardedSimulator,
    SimConfig, Simulator, StallCounters,
};

const RATE: f64 = 0.5;

fn config(kind: RouterModelKind) -> SimConfig {
    SimConfig { injection_rate: RATE, router: kind.model(), ..SimConfig::paper_defaults() }
}

fn hexamesh37() -> Graph {
    Arrangement::build(ArrangementKind::HexaMesh, 37)
        .expect("HexaMesh n = 37 builds")
        .graph()
        .clone()
}

/// One row: `stats | vc_starved credit_starved switch_lost | flit-hops`.
/// Floats print with `{:?}`, which round-trips exactly.
fn row(stats: &NetworkStats, stalls: StallCounters, loads: &[(usize, usize, u64)]) -> String {
    let s = stats;
    let hops: u64 = loads.iter().map(|l| l.2).sum();
    format!(
        "{} {} {} {} {} {} {:?} {} {:?} {:?} {} {:?} {} {} {} {} {} | {} {} {} | {hops}",
        s.window_cycles,
        s.offered_packets,
        s.accepted_packets,
        s.received_flits,
        s.received_packets,
        s.measured_packets,
        s.avg_packet_latency,
        s.max_packet_latency,
        s.accepted_flits_per_cycle_per_endpoint,
        s.offered_flits_per_cycle_per_endpoint,
        s.max_source_queue_flits,
        s.avg_source_queue_flits,
        s.link_fault_dropped_flits,
        s.router_fault_dropped_flits,
        s.fault_dropped_packets,
        s.retransmitted_packets,
        s.squelched_packets,
        stalls.vc_starved,
        stalls.credit_starved,
        stalls.switch_lost,
    )
}

fn serial_row(g: &Graph, config: SimConfig, plan: Option<FaultPlan>) -> String {
    let schedule = MeasureConfig::quick();
    let mut sim = Simulator::new(g, config).expect("valid config");
    if let Some(plan) = plan {
        sim.install_fault_plan(plan);
    }
    let stats = sim.run_to_window(schedule.warmup_cycles, schedule.measure_cycles);
    row(&stats, sim.stall_counters(), &sim.channel_loads())
}

fn sharded_row(g: &Graph, config: SimConfig, shards: usize) -> String {
    let schedule = MeasureConfig::quick();
    let mut sim = ShardedSimulator::new(g, config, shards).expect("valid config");
    let stats = sim.run_to_window(schedule.warmup_cycles, schedule.measure_cycles);
    row(&stats, sim.stall_counters(), &sim.channel_loads())
}

fn check(label: &str, actual: &[(String, String)], expected: &[(&str, &str)]) {
    let expected: Vec<(String, String)> =
        expected.iter().map(|&(k, v)| (k.to_owned(), v.to_owned())).collect();
    assert_eq!(actual, expected.as_slice(), "{label}: past-knee work counts drifted");
}

fn model_sweep(g: &Graph) -> Vec<(String, String)> {
    RouterModelKind::ALL
        .iter()
        .map(|&kind| (kind.name().to_owned(), serial_row(g, config(kind), None)))
        .collect()
}

#[test]
fn grid_4x4_past_knee_counts_are_pinned() {
    check("grid 4x4", &model_sweep(&gen::grid(4, 4)), GRID_4X4);
}

#[test]
fn hexamesh_37_past_knee_counts_are_pinned() {
    check("HexaMesh n = 37", &model_sweep(&hexamesh37()), HEXAMESH_37);
}

#[test]
fn link_kill_and_two_shards_past_knee_counts_are_pinned() {
    let g = hexamesh37();
    let plan = FaultPlan::new(FaultSchedule::random_links(&g, 1, 2_000, 7));
    let actual = vec![
        ("link_kill".to_owned(), serial_row(&g, config(RouterModelKind::Baseline), Some(plan))),
        ("two_shards".to_owned(), sharded_row(&g, config(RouterModelKind::Baseline), 2)),
    ];
    check("HexaMesh n = 37 arms", &actual, HEXAMESH_37_ARMS);
}

const GRID_4X4: &[(&str, &str)] = &[
    (
        "baseline",
        "3000 11961 1362 5071 1269 181 Some(1864.364640883978) 2842 0.052822916666666664 0.498375 256 254.78758333333334 0 0 0 0 0 | 2244128 47835 9588 | 40835",
    ),
    (
        "randomvc",
        "3000 11862 3051 11649 2913 662 Some(1429.0196374622356) 2925 0.12134375 0.49425 256 252.44507291666667 0 0 0 0 0 | 2084535 74141 11991 | 57601",
    ),
    (
        "leastloaded",
        "3000 11864 1327 4779 1197 198 Some(1766.9949494949494) 2866 0.04978125 0.49433333333333335 256 254.69608333333332 0 0 0 0 0 | 2242480 43648 9012 | 40582",
    ),
    (
        "oldest",
        "3000 11987 3020 11924 2976 676 Some(1652.3860946745563) 2964 0.12420833333333334 0.49945833333333334 256 253.16671875 0 0 0 0 0 | 2128979 73011 13043 | 57806",
    ),
    (
        "transit",
        "3000 11943 1705 6435 1608 131 Some(2013.1374045801526) 2975 0.06703125 0.497625 256 254.13848958333332 0 0 0 0 0 | 2195545 50368 11087 | 44916",
    ),
    (
        "bubble",
        "3000 11926 2564 10026 2503 360 Some(1898.95) 2937 0.1044375 0.4969166666666667 256 253.97520833333334 0 0 0 0 0 | 2136490 54560 11506 | 57017",
    ),
    (
        "deepxbar",
        "3000 11989 2470 9576 2397 357 Some(1698.7759103641456) 2946 0.09975 0.49954166666666666 256 253.43952083333335 0 0 0 0 0 | 2173711 70147 10325 | 51463",
    ),
    (
        "fortified",
        "3000 11921 3177 11874 2967 661 Some(1626.5098335854766) 2943 0.1236875 0.4967083333333333 256 252.47896875 0 0 0 0 0 | 2077730 61809 14189 | 64464",
    ),
];

const HEXAMESH_37: &[(&str, &str)] = &[
    (
        "baseline",
        "3000 27637 20401 73802 18453 14647 Some(676.2728886461391) 2983 0.33244144144144144 0.497963963963964 256 162.1628063063063 0 0 0 0 0 | 3634979 430059 100764 | 360536",
    ),
    (
        "randomvc",
        "3000 27685 9287 27348 6856 4194 Some(866.0252742012399) 2993 0.12318918918918918 0.49882882882882884 256 222.6071126126126 0 0 0 0 0 | 4382679 196507 51149 | 204989",
    ),
    (
        "leastloaded",
        "3000 27546 14179 49300 12312 8360 Some(939.7593301435406) 2897 0.22207207207207208 0.49632432432432433 256 212.87327927927927 0 0 0 0 0 | 4025819 265513 71307 | 274352",
    ),
    (
        "oldest",
        "3000 27641 9818 31910 8005 4707 Some(783.8931378797536) 2931 0.14373873873873874 0.498036036036036 256 216.68233783783785 0 0 0 0 0 | 4306507 178623 59528 | 211236",
    ),
    (
        "transit",
        "3000 27643 12661 39561 9958 6258 Some(631.4616490891659) 2947 0.1782027027027027 0.49807207207207205 256 203.43450900900902 0 0 0 0 0 | 4149215 231667 72641 | 244725",
    ),
    (
        "bubble",
        "3000 27747 17591 58912 14746 10795 Some(590.2944881889764) 2956 0.2653693693693694 0.49994594594594594 256 169.34605855855855 0 0 0 0 0 | 3936679 355000 83514 | 317690",
    ),
    (
        "deepxbar",
        "3000 27585 11242 32853 8260 5282 Some(517.1669822037107) 2903 0.1479864864864865 0.497027027027027 256 199.96152702702702 0 0 0 0 0 | 4172637 229827 60343 | 228346",
    ),
    (
        "fortified",
        "3000 27761 20667 74495 18682 14750 Some(576.8455593220339) 2864 0.33556306306306305 0.5001981981981982 256 147.9571891891892 0 0 0 0 0 | 3399492 375664 120161 | 367506",
    ),
];

const HEXAMESH_37_ARMS: &[(&str, &str)] = &[
    (
        "link_kill",
        "3000 27509 13683 42003 10555 7068 Some(592.5795132993775) 2950 0.1892027027027027 0.4956576576576577 256 192.1700045045045 511 0 130 0 0 | 4111467 279670 69234 | 262049",
    ),
    (
        "two_shards",
        "3000 27637 20401 73802 18453 14647 Some(676.2728886461391) 2983 0.33244144144144144 0.497963963963964 256 162.1628063063063 0 0 0 0 0 | 3634979 430059 100764 | 360536",
    ),
];
