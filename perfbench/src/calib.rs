//! Host-speed calibration.
//!
//! The hosts this benchmark runs on are shared: the same pass of the same
//! build can take 1.6× longer a few minutes later, with no steal time to
//! show for it. So a run times a fixed reference kernel, owned by the
//! benchmark and independent of the program under test, every
//! [`INTERVAL_S`] or so between and inside its operations, and scales
//! every gated time by `REFERENCE_S / kernel time`, the kernel time of an
//! interval between two calibrations being their geometric mean. Time
//! spent calibrating is left out of every figure. The result reads as
//! the seconds the work would take on a host where one kernel run takes
//! [`REFERENCE_S`]. A program that gets slower still reads slower by the
//! same share; a host that gets slower cancels out.
//!
//! Only busy time is scaled: the part of an interval the process spent
//! on a CPU (`min(process CPU seconds, wall seconds)`). Time spent asleep
//! or waiting, such as `xp::pool`'s 100 ms progress ticks behind every
//! `serve` miss, does not run slower on a slower host and stays as it is.
//!
//! A run pins itself to the CPU it starts on ([`Affinity`]), so that the
//! kernel runs on the CPU the work runs on: the CPUs of a shared host
//! slow down separately, and the worker threads of `xp::run_study` would
//! otherwise land on either.
//!
//! The kernel does three kinds of work the simulator does, one after
//! the other: a chain of dependent loads and stores over an L2-sized
//! table, inserts and removes in a `BTreeMap` of a few thousand entries,
//! and a ring of 64 bounded FIFO queues forwarding random packets. Over
//! twenty 10-second `closed_loop` runs across four minutes of drift on a
//! 2-vCPU VM, scaling by it cut the spread (interquartile range over the
//! median) of the per-run median pass from 0.21 to 0.06; an L1-sized
//! chain, an ALU loop, a sort or a hash map alone did worse.

use std::collections::{BTreeMap, VecDeque};
use std::hint::black_box;
use std::time::Instant;

use crate::trace::Tracer;

#[repr(C)]
struct Timespec {
    tv_sec: i64,
    tv_nsec: i64,
}

extern "C" {
    fn clock_gettime(clock: i32, tp: *mut Timespec) -> i32;
    fn sched_getcpu() -> i32;
    fn sched_getaffinity(pid: i32, size: usize, mask: *mut u64) -> i32;
    fn sched_setaffinity(pid: i32, size: usize, mask: *const u64) -> i32;
}

/// A Linux `cpu_set_t`: 1024 bits.
type CpuSet = [u64; 16];

/// The CPU a run is pinned to, and the CPU set it started with.
#[derive(Debug, Clone, Copy)]
pub struct Affinity {
    pinned: CpuSet,
    all: CpuSet,
}

impl Affinity {
    /// Pins the calling thread, and the threads it spawns from now on,
    /// to the CPU it runs on; `None` where the system refuses.
    #[must_use]
    pub fn pin() -> Option<Self> {
        let mut all: CpuSet = [0; 16];
        // SAFETY: `all` is a writable buffer of the size passed, and pid
        // 0 names the calling thread.
        let rc = unsafe { sched_getaffinity(0, std::mem::size_of::<CpuSet>(), all.as_mut_ptr()) };
        // SAFETY: no arguments; returns -1 on failure.
        let cpu = unsafe { sched_getcpu() };
        let cpu = usize::try_from(cpu).ok().filter(|&c| rc == 0 && c < 1024)?;
        let mut pinned: CpuSet = [0; 16];
        pinned[cpu / 64] = 1 << (cpu % 64);
        let affinity = Self { pinned, all };
        affinity.hold().then_some(affinity)
    }

    /// Pins the calling thread to its CPU again; whether the system
    /// agreed.
    pub fn hold(&self) -> bool {
        set_affinity(&self.pinned)
    }

    /// Gives the calling thread back every CPU it started with, for work
    /// that needs more than one (the sharded load point of `steady`).
    pub fn release(&self) {
        set_affinity(&self.all);
    }
}

fn set_affinity(mask: &CpuSet) -> bool {
    // SAFETY: `mask` is a readable buffer of the size passed, and pid 0
    // names the calling thread.
    unsafe { sched_setaffinity(0, std::mem::size_of::<CpuSet>(), mask.as_ptr()) == 0 }
}

/// `CLOCK_PROCESS_CPUTIME_ID`: CPU time of every thread of the process,
/// ended threads included.
const CLOCK_PROCESS_CPUTIME_ID: i32 = 2;

/// CPU seconds the process has used so far.
fn process_cpu_s() -> f64 {
    let mut ts = Timespec { tv_sec: 0, tv_nsec: 0 };
    // SAFETY: `ts` is a valid, writable `struct timespec` (64-bit Linux
    // layout) and the clock id is a constant the kernel always supports.
    let rc = unsafe { clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &mut ts) };
    assert_eq!(rc, 0, "clock_gettime(CLOCK_PROCESS_CPUTIME_ID) failed");
    ts.tv_sec as f64 + ts.tv_nsec as f64 * 1e-9
}

/// A point in wall and process CPU time.
#[derive(Debug, Clone, Copy)]
struct Mark {
    wall: Instant,
    cpu: f64,
}

impl Mark {
    fn now() -> Self {
        Self { wall: Instant::now(), cpu: process_cpu_s() }
    }

    fn elapsed(&self) -> Interval {
        let host = self.wall.elapsed().as_secs_f64();
        Interval { host, busy: (process_cpu_s() - self.cpu).clamp(0.0, host) }
    }
}

/// Host wall seconds, and how many of them the process was busy.
#[derive(Debug, Clone, Copy)]
struct Interval {
    host: f64,
    busy: f64,
}

impl Interval {
    /// Reference seconds under `scale`: busy time scaled, the rest as it
    /// is.
    fn reference(&self, scale: f64) -> f64 {
        self.host + self.busy * (scale - 1.0)
    }
}

/// A moment on a [`Clock`]: how long after the end of calibration `k`.
#[derive(Debug, Clone, Copy)]
pub struct Stamp {
    k: usize,
    after: Interval,
}

/// Nominal seconds of one kernel run (its time on the reference host).
pub const REFERENCE_S: f64 = 0.003;
/// Fewest kernel runs per calibration; the calibration is their median.
pub const RUNS: usize = 5;
/// A calibration lasts at least this share of the interval it closes, so
/// that the two calibrations that scale a long interval, such as a
/// ten-second study, are robust medians rather than a few samples.
pub const SHARE: f64 = 0.02;
/// Most kernel runs per calibration.
pub const MAX_RUNS: usize = 61;
/// Host seconds after a calibration from which [`Clock::tick`]
/// calibrates again.
pub const INTERVAL_S: f64 = 0.5;

/// Entries of the chained table (`u64`: 256 KiB).
const TABLE: usize = 1 << 15;
/// Steps of the chain per kernel run.
const CHAIN_STEPS: u64 = 100_000;
/// Map operations per kernel run, and the key space they draw from.
const MAP_OPS: usize = 10_000;
const MAP_KEYS: u64 = 4_096;
/// Queues in the ring, their depth, and the cycles simulated per run.
const QUEUES: usize = 64;
const DEPTH: usize = 8;
const QUEUE_CYCLES: u32 = 1_500;

/// The reference kernel, the calibrations it has made, and the host and
/// reference seconds elapsed at each.
#[derive(Debug)]
pub struct Clock {
    table: Vec<u64>,
    /// Every calibration so far: host seconds of one kernel run.
    pub calibrations: Vec<f64>,
    /// Host and reference seconds at the end of each calibration,
    /// calibrations left out.
    at: Vec<(f64, f64)>,
    /// The scale from host to reference seconds of the interval after
    /// each calibration, once the next one has been made.
    scales: Vec<f64>,
    /// Host seconds spent calibrating.
    calibrating_s: f64,
    /// When the latest calibration ended.
    since: Mark,
}

impl Default for Clock {
    fn default() -> Self {
        Self::new()
    }
}

impl Clock {
    /// Allocates and warms the kernel's table, then calibrates once.
    #[must_use]
    pub fn new() -> Self {
        let table = (0..TABLE as u64).map(|i| i.wrapping_mul(0x9E37_79B9_7F4A_7C15)).collect();
        let mut clock = Self {
            table,
            calibrations: Vec::new(),
            at: Vec::new(),
            scales: Vec::new(),
            calibrating_s: 0.0,
            since: Mark::now(),
        };
        clock.kernel();
        let first = clock.measure(RUNS);
        clock.calibrations.push(first);
        clock.at.push((0.0, 0.0));
        clock.since = Mark::now();
        clock
    }

    /// One kernel run; returns a checksum so it cannot be optimised away.
    fn kernel(&mut self) -> u64 {
        let mut x: u64 = 0x2545_F491_4F6C_DD1D;
        let mut next = || {
            x = x.wrapping_mul(6_364_136_223_846_793_005).wrapping_add(1_442_695_040_888_963_407);
            x >> 33
        };
        let mut acc = 0u64;

        // A chain of dependent loads: the next index depends on the value
        // just loaded.
        let mask = TABLE as u64 - 1;
        for step in 0..CHAIN_STEPS {
            let j = ((next() ^ acc) & mask) as usize;
            let v = self.table[j];
            self.table[j] = v.rotate_left(7) ^ step;
            acc = acc.wrapping_add(v) & mask;
        }

        // Map churn: allocation, pointer chasing and branches.
        let mut map = BTreeMap::new();
        for _ in 0..MAP_OPS {
            let key = next() % MAP_KEYS;
            if map.insert(key, acc).is_some() {
                acc ^= map.remove(&(key ^ 7)).unwrap_or(0);
            }
        }
        acc = acc.wrapping_add(map.len() as u64);

        // Packets hop along a ring of bounded queues to random
        // destinations; a full queue blocks its upstream neighbour.
        let mut ring: Vec<VecDeque<(usize, u32)>> =
            (0..QUEUES).map(|_| VecDeque::with_capacity(DEPTH)).collect();
        for cycle in 0..QUEUE_CYCLES {
            for n in 0..QUEUES {
                if ring[n].len() < DEPTH && next() % 4 == 0 {
                    let dest = (next() % QUEUES as u64) as usize;
                    ring[n].push_back((dest, cycle));
                }
                match ring[n].front() {
                    Some(&(dest, born)) if dest == n => {
                        ring[n].pop_front();
                        acc = acc.wrapping_add(u64::from(cycle - born));
                    }
                    Some(_) if ring[(n + 1) % QUEUES].len() < DEPTH => {
                        let packet = ring[n].pop_front().expect("front exists");
                        ring[(n + 1) % QUEUES].push_back(packet);
                    }
                    _ => {}
                }
            }
        }
        black_box(acc)
    }

    /// Host seconds of one calibration: the median of `runs` kernel
    /// runs.
    fn measure(&mut self, runs: usize) -> f64 {
        let secs: Vec<f64> = (0..runs)
            .map(|_| {
                let started = Instant::now();
                self.kernel();
                started.elapsed().as_secs_f64()
            })
            .collect();
        crate::stats::median(&secs)
    }

    /// Now.
    #[must_use]
    pub fn stamp(&self) -> Stamp {
        Stamp { k: self.at.len() - 1, after: self.since.elapsed() }
    }

    /// Calibrates if [`INTERVAL_S`] have passed since the latest
    /// calibration.
    pub fn tick(&mut self, tracer: &Tracer) {
        if self.since.elapsed().host >= INTERVAL_S {
            self.calibrate(tracer);
        }
    }

    /// Calibrates, which closes the interval since the previous
    /// calibration: its time is booked in host and reference seconds.
    pub fn calibrate(&mut self, tracer: &Tracer) {
        let interval = self.since.elapsed();
        let before = self.calibrations[self.calibrations.len() - 1];
        let runs = ((SHARE * interval.host / before).ceil() as usize).clamp(RUNS, MAX_RUNS);
        let started = Instant::now();
        let span = tracer.open("calib", "calibrate");
        let now = self.measure(runs);
        tracer.close(span);
        let scale = REFERENCE_S / (before * now).sqrt();
        let (host, reference) = self.at[self.at.len() - 1];
        self.calibrations.push(now);
        self.scales.push(scale);
        self.at.push((host + interval.host, reference + interval.reference(scale)));
        self.calibrating_s += started.elapsed().as_secs_f64();
        self.since = Mark::now();
    }

    /// Host and reference seconds at `stamp`, once the calibration after
    /// it has been made.
    fn resolve(&self, stamp: &Stamp) -> Option<(f64, f64)> {
        let scale = *self.scales.get(stamp.k)?;
        let (host, reference) = self.at[stamp.k];
        Some((host + stamp.after.host, reference + stamp.after.reference(scale)))
    }

    /// Host and reference seconds from `from` to `to`, calibrations left
    /// out; `None` until a calibration follows `to`.
    #[must_use]
    pub fn between(&self, from: &Stamp, to: &Stamp) -> Option<(f64, f64)> {
        let a = self.resolve(from)?;
        let b = self.resolve(to)?;
        Some((b.0 - a.0, b.1 - a.1))
    }

    /// Host seconds spent calibrating so far.
    #[must_use]
    pub fn calibrating_s(&self) -> f64 {
        self.calibrating_s
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn spin(secs: f64) {
        let started = Instant::now();
        while started.elapsed().as_secs_f64() < secs {
            black_box(0);
        }
    }

    #[test]
    fn stamps_resolve_once_calibrated_and_leave_calibrations_out() {
        let tracer = Tracer::new(false);
        let mut clock = Clock::new();
        let from = clock.stamp();
        spin(0.02);
        clock.calibrate(&tracer);
        spin(0.02);
        let to = clock.stamp();
        assert!(clock.between(&from, &to).is_none(), "no calibration after `to` yet");
        clock.calibrate(&tracer);
        let (host, reference) = clock.between(&from, &to).expect("resolved");
        assert!(host >= 0.04, "{host}");
        let calibrating = clock.calibrating_s();
        assert!(host < 0.04 + calibrating / 4.0, "{host} includes a calibration");
        assert!(reference.is_finite() && reference > 0.0);
        assert_eq!(clock.calibrations.len(), 3);
    }
}
