//! `closed_loop`: application kernels on `chiplet_workload::WorkloadDriver`.
//!
//! Ring all-reduce, all-to-all, stencil and pipeline run to completion on
//! HexaMesh and the grid at n = 169. The driver feeds the simulator
//! through bursty `offer_packet` calls, the delivery log, idle
//! fast-forward and its ready heap, unlike the memoryless injection of
//! `steady`.
//!
//! Every message is cut to one flit, a quarter of the kernels' own
//! chunk size: the DAGs keep their shape and dependency depth, and a
//! pass is short enough that a run holds many of them.

use std::path::Path;
use std::time::Instant;

use chiplet_workload::driver::WorkloadDriver;
use chiplet_workload::ir::Workload as Dag;
use chiplet_workload::kernels::WorkloadKind;
use hexamesh::arrangement::{Arrangement, ArrangementKind};
use nocsim::SimConfig;

use super::{flit_hops, timed, Report, Workload};
use crate::run::Run;
use crate::variant::sim_config;

const N: usize = 169;
const NETS: [ArrangementKind; 2] = [ArrangementKind::HexaMesh, ArrangementKind::Grid];
const KERNELS: [WorkloadKind; 4] = [
    WorkloadKind::RingAllReduce,
    WorkloadKind::AllToAll,
    WorkloadKind::Stencil,
    WorkloadKind::Pipeline,
];
/// Payload of every message, in flits.
const MESSAGE_FLITS: usize = 1;
/// Cycle budget of one run (the study flow's default).
const MAX_CYCLES: u64 = 50_000_000;

/// The workload's inputs: networks and their message DAGs.
pub struct ClosedLoop {
    nets: Vec<Arrangement>,
    dags: Vec<Dag>,
    config: SimConfig,
}

impl Workload for ClosedLoop {
    const NAME: &'static str = "closed_loop";

    fn setup(run: &mut Run, _tmp: &Path) -> Self {
        let config = sim_config(run.variant);
        let nets: Vec<Arrangement> = NETS
            .iter()
            .map(|&kind| Arrangement::build(kind, N).expect("n = 169 builds"))
            .collect();
        let endpoints = N * config.endpoints_per_router;
        let dags = KERNELS
            .iter()
            .map(|k| {
                let mut dag = k.build(endpoints);
                for m in &mut dag.messages {
                    m.size_flits = MESSAGE_FLITS;
                }
                dag
            })
            .collect();
        Self { nets, dags, config }
    }

    fn pass(&mut self, run: &mut Run) {
        // The unit operation is the four kernels on one network, back to
        // back: single kernels differ in cost by two orders of magnitude.
        for net in &self.nets {
            let started = run.clock.stamp();
            for dag in &self.dags {
                let label = format!("{}-{}", net.kind().label(), dag.name);
                let kernel_started = Instant::now();
                let mut failures = Vec::new();
                let (driver, new_s) =
                    timed(&run.tracer, "chiplet_workload", "driver.new", || {
                        WorkloadDriver::new(net.graph(), self.config, dag)
                    });
                match driver {
                    Err(e) => failures.push(format!("{label}: {e}")),
                    Ok(mut driver) => {
                        let (stats, run_s) =
                            timed(&run.tracer, "chiplet_workload", "driver.run", || {
                                driver.run(MAX_CYCLES)
                            });
                        let sim = driver.sim();
                        let flits: u64 = dag.messages.iter().map(|m| m.size_flits as u64).sum();
                        if !stats.completed {
                            failures.push(format!("{label}: incomplete ({stats:?})"));
                        }
                        if stats.delivered_messages != dag.messages.len() as u64
                            || stats.delivered_flits != flits
                            || sim.flits_in_network() != 0
                        {
                            failures
                                .push(format!("{label}: flit conservation broken ({stats:?})"));
                        }
                        let hops = flit_hops(&sim.channel_loads());
                        let cycles = sim.cycle();
                        let text = format!("{stats:?} hops={hops} cycles={cycles}");
                        run.check_output(&label, &text, &mut failures);
                        run.add("driver.new", new_s);
                        run.add("driver.run", run_s);
                        run.add("driver.makespan_cycles", stats.makespan as f64);
                        run.add("driver.messages", stats.delivered_messages as f64);
                        run.add("sim.cycles", cycles as f64);
                        run.add("sim.flit_hops", hops as f64);
                        run.add("sim.packets_delivered", stats.network.received_packets as f64);
                        run.add("sim.flits_in_network_end", sim.flits_in_network() as f64);
                        run.add_stalls(&sim.stall_counters());
                    }
                }
                run.add("op", kernel_started.elapsed().as_secs_f64());
                run.finish_op(failures);
                run.tick();
            }
            run.op(net.kind().label(), started);
        }
    }

    fn report(&self, run: &Run, passes: f64, out: &mut Report) {
        let secs = run.get("op");
        out.human("cycles_per_s", "1/s", run.get("sim.cycles") / secs);
        out.human("flit_hops_per_s", "1/s", run.get("sim.flit_hops") / secs);
        let run_s = run.get("driver.run");
        out.layer("driver.new_s", run.get("driver.new") / passes);
        out.layer("driver.run_s", run_s / passes);
        out.layer("driver.makespan_cycles", run.get("driver.makespan_cycles") / passes);
        out.layer("driver.messages", run.get("driver.messages") / passes);
        out.layer("driver.host_ns_per_sim_cycle", run_s / run.get("sim.cycles") * 1e9);
        out.sim_layers(run, passes, run_s);
    }
}
