//! The scoped-thread worker pool every sweep runs on.
//!
//! Properties the rest of the workspace relies on:
//!
//! * **Large jobs first** — jobs are dispatched in descending weight order
//!   (weight ≈ expected cost, e.g. chiplet count), which keeps the long
//!   tail off the end of the schedule.
//! * **Deterministic output** — results are returned in *submission*
//!   order, not completion order, so a campaign's rows are byte-identical
//!   for any worker count.
//! * **Progress** — optional per-job completion lines on stderr
//!   (`--progress`).

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;
use std::time::{Duration, Instant};

/// One completed job's schedule record: which worker ran it and when,
/// relative to the pool's start. Feeds the engine-level trace sink.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct JobSpan {
    /// Submission index of the job.
    pub index: usize,
    /// Worker slot that ran it (a stable thread-track id).
    pub worker: usize,
    /// Start offset from the pool launch, nanoseconds.
    pub start_ns: u64,
    /// Wall duration, nanoseconds.
    pub dur_ns: u64,
}

/// What a pool run did, beyond the results: schedule spans (when
/// requested) and occupancy.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct PoolReport {
    /// Per-job schedule records, in submission order; empty unless
    /// [`PoolOptions::collect_spans`] was set.
    pub spans: Vec<JobSpan>,
    /// High-water mark of concurrently busy workers.
    pub peak_workers: usize,
    /// Wall time of the whole pool run, nanoseconds.
    pub wall_ns: u64,
}

/// Reporting knobs for [`run_jobs_reported`].
#[derive(Debug, Clone, Copy, Default)]
pub struct PoolOptions<'a> {
    /// Label for per-job completion lines on stderr (`--progress`);
    /// `None` = silent. Lines go to stderr only, so stdout sinks stay
    /// byte-identical.
    pub per_job: Option<&'a str>,
    /// Record a [`JobSpan`] per job.
    pub collect_spans: bool,
}

/// Pool size for jobs that are themselves `threads_per_job`-way parallel
/// (e.g. sharded simulations): divides the worker budget so job-level ×
/// shard-level parallelism never oversubscribes `--workers`, while always
/// leaving at least one pool worker.
#[must_use]
pub fn budgeted_workers(workers: usize, threads_per_job: usize) -> usize {
    (workers / threads_per_job.max(1)).max(1)
}

/// Runs `run` over every job on `workers` threads and returns the results
/// in submission order.
///
/// `weight` estimates relative job cost; heavier jobs are dispatched
/// first.
///
/// # Panics
///
/// Propagates a panic from any job (the scope joins all workers first).
pub fn run_jobs<J, R, W, F>(jobs: &[J], workers: usize, weight: W, run: F) -> Vec<R>
where
    J: Sync,
    R: Send,
    W: Fn(&J) -> u64,
    F: Fn(&J) -> R + Sync,
{
    run_jobs_reported(jobs, workers, weight, run, PoolOptions::default()).0
}

/// [`run_jobs`] plus a [`PoolReport`]: per-job schedule spans (when
/// requested), peak worker occupancy, and the pool's wall time. Same
/// determinism contract — results in submission order, byte-identical
/// for any worker count; only the report (and stderr) reflects the
/// actual schedule.
///
/// # Panics
///
/// Propagates a panic from any job (the scope joins all workers first).
pub fn run_jobs_reported<J, R, W, F>(
    jobs: &[J],
    workers: usize,
    weight: W,
    run: F,
    options: PoolOptions<'_>,
) -> (Vec<R>, PoolReport)
where
    J: Sync,
    R: Send,
    W: Fn(&J) -> u64,
    F: Fn(&J) -> R + Sync,
{
    let total = jobs.len();
    if total == 0 {
        return (Vec::new(), PoolReport::default());
    }
    // Dispatch stack: ascending weight, popped from the end ⇒ heaviest
    // first. Ties keep submission order for a stable schedule.
    let mut order: Vec<usize> = (0..total).collect();
    order.sort_by_key(|&i| (weight(&jobs[i]), std::cmp::Reverse(i)));
    let queue = Mutex::new(order);
    let done = AtomicUsize::new(0);
    let slots: Vec<Mutex<Option<R>>> = (0..total).map(|_| Mutex::new(None)).collect();

    let num_workers = workers.max(1).min(total);
    let busy = AtomicUsize::new(0);
    let peak = AtomicUsize::new(0);
    let spans: Mutex<Vec<JobSpan>> = Mutex::new(Vec::new());
    let epoch = Instant::now();
    std::thread::scope(|scope| {
        for worker in 0..num_workers {
            let busy = &busy;
            let peak = &peak;
            let spans = &spans;
            let done = &done;
            let queue = &queue;
            let slots = &slots;
            let run = &run;
            let options = &options;
            scope.spawn(move || {
                loop {
                    let job = queue.lock().expect("queue lock").pop();
                    let Some(i) = job else { break };
                    let now_busy = busy.fetch_add(1, Ordering::Relaxed) + 1;
                    peak.fetch_max(now_busy, Ordering::Relaxed);
                    let start = Instant::now();
                    let result = run(&jobs[i]);
                    let dur = start.elapsed();
                    busy.fetch_sub(1, Ordering::Relaxed);
                    *slots[i].lock().expect("slot lock") = Some(result);
                    if options.collect_spans {
                        spans.lock().expect("span lock").push(JobSpan {
                            index: i,
                            worker,
                            start_ns: ns(start.duration_since(epoch)),
                            dur_ns: ns(dur),
                        });
                    }
                    // Relaxed count: the line is informational, and stderr
                    // never feeds an output sink.
                    let d = done.fetch_add(1, Ordering::Relaxed) + 1;
                    if let Some(label) = options.per_job {
                        eprintln!(
                            "{label}: job {i} done in {} ms [{d}/{total}]",
                            dur.as_millis()
                        );
                    }
                }
            });
        }
    });

    let results = slots
        .into_iter()
        .map(|slot| slot.into_inner().expect("slot mutex").expect("every job ran exactly once"))
        .collect();
    let mut spans = spans.into_inner().expect("span mutex");
    spans.sort_by_key(|s| s.index);
    let report = PoolReport {
        spans,
        peak_workers: peak.load(Ordering::Relaxed),
        wall_ns: ns(epoch.elapsed()),
    };
    (results, report)
}

/// Saturating nanosecond count of a duration.
fn ns(d: Duration) -> u64 {
    u64::try_from(d.as_nanos()).unwrap_or(u64::MAX)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicU64, Ordering};

    #[test]
    fn results_come_back_in_submission_order() {
        let jobs: Vec<usize> = (0..50).collect();
        for workers in [1, 4, 8] {
            let out = run_jobs(&jobs, workers, |&j| j as u64, |&j| j * 10);
            assert_eq!(out, (0..50).map(|j| j * 10).collect::<Vec<_>>());
        }
    }

    #[test]
    fn heaviest_job_dispatches_first() {
        let jobs: Vec<u64> = vec![1, 5, 3, 9, 2];
        let first = AtomicU64::new(u64::MAX);
        run_jobs(
            &jobs,
            1,
            |&w| w,
            |&w| {
                let _ = first.compare_exchange(u64::MAX, w, Ordering::SeqCst, Ordering::SeqCst);
            },
        );
        assert_eq!(first.load(Ordering::SeqCst), 9);
    }

    #[test]
    fn jobs_run_concurrently() {
        // Eight 50 ms sleeps on eight workers overlap (even on one CPU);
        // run serially they would need 400 ms.
        let jobs = vec![(); 8];
        let t0 = std::time::Instant::now();
        run_jobs(&jobs, 8, |_| 1, |()| std::thread::sleep(Duration::from_millis(50)));
        assert!(
            t0.elapsed() < Duration::from_millis(300),
            "pool did not overlap jobs: {:?}",
            t0.elapsed()
        );
    }

    #[test]
    fn report_records_spans_and_occupancy() {
        let jobs: Vec<u32> = (0..12).collect();
        let options = PoolOptions { collect_spans: true, ..PoolOptions::default() };
        let (out, report) = run_jobs_reported(
            &jobs,
            4,
            |_| 1,
            |&j| {
                std::thread::sleep(Duration::from_millis(5));
                j * 2
            },
            options,
        );
        assert_eq!(out, (0..12).map(|j| j * 2).collect::<Vec<_>>());
        assert_eq!(report.spans.len(), 12);
        // Spans come back sorted by submission index with sane fields.
        for (i, s) in report.spans.iter().enumerate() {
            assert_eq!(s.index, i);
            assert!(s.worker < 4);
            assert!(s.dur_ns > 0);
        }
        assert!(report.peak_workers >= 1 && report.peak_workers <= 4);
        assert!(report.wall_ns > 0);
    }

    #[test]
    fn spans_are_off_by_default() {
        let (_, report) =
            run_jobs_reported(&[1u32, 2], 2, |_| 1, |&j| j, PoolOptions::default());
        assert!(report.spans.is_empty());
        assert!(report.peak_workers >= 1);
    }

    #[test]
    fn empty_job_list_is_fine() {
        let out: Vec<u32> = run_jobs(&Vec::<u32>::new(), 8, |_| 1, |&j| j);
        assert!(out.is_empty());
    }

    #[test]
    fn more_workers_than_jobs_is_fine() {
        let out = run_jobs(&[7u32], 32, |_| 1, |&j| j + 1);
        assert_eq!(out, vec![8]);
    }

    #[test]
    #[should_panic(expected = "scoped thread panicked")]
    fn panicking_job_propagates() {
        // The scope joins every worker and rethrows — a hang here fails
        // the test by timeout.
        let jobs = vec![1u32, 2, 3];
        let _ = run_jobs(
            &jobs,
            2,
            |_| 1,
            |&j| {
                if j == 2 {
                    panic!("job exploded");
                }
                j
            },
        );
    }

    #[test]
    #[should_panic(expected = "scoped thread panicked")]
    fn sole_worker_panic_with_queued_jobs_does_not_hang() {
        // The first job kills the only worker while two jobs are still
        // queued; the scope must rethrow instead of waiting for the
        // queued jobs forever.
        let jobs = vec![9u32, 1, 2];
        let _ = run_jobs(
            &jobs,
            1,
            |&w| u64::from(w),
            |&j| {
                if j == 9 {
                    panic!("job exploded");
                }
                j
            },
        );
    }
}
