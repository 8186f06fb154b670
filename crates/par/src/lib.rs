//! Deterministic bounded fork/join parallelism for Mnemo's sweeps.
//!
//! Every cost-vs-performance curve and every paper-figure sweep is
//! embarrassingly parallel across capacity splits, SLO points and
//! workload mixes — but naive `spawn`-per-job concurrency oversubscribes
//! wide sweeps and makes results depend on scheduling. This crate is the
//! one place the workspace forks: a small self-scheduling pool built on
//! [`std::thread::scope`] with three guarantees:
//!
//! * **bounded workers** — at most [`Pool::workers`] OS threads per
//!   parallel region, regardless of how many items a sweep has;
//! * **chunked self-scheduling** — workers atomically claim contiguous
//!   index chunks (the classic work-stealing deque degenerates to a
//!   shared counter for a fork/join region with no nested spawns), so
//!   a slow item never stalls the whole sweep behind one thread;
//! * **deterministic reduction** — results are reassembled in item-index
//!   order and every item is computed by the same pure closure, so the
//!   output of `map(n, f)` is **bit-identical** for every worker count,
//!   including the sequential `workers == 1` path. Callers that reduce
//!   (sum, merge) do so over the returned, index-ordered `Vec`.
//!
//! Worker-count resolution, strongest first: [`set_jobs`] (the CLI and
//! experiment harness `--jobs N` flag), the `MNEMO_JOBS` environment
//! variable, then [`std::thread::available_parallelism`].
//!
//! A worker panic reaches the caller with the worker's own payload: the
//! caller joins every worker and passes the first panic it finds to
//! [`std::panic::resume_unwind`], matching plain-loop semantics.
//!
//! The crate also hosts [`SweepTimer`], the per-stage wall-clock
//! instrumentation the `bench-smoke` CI job reads: stages are recorded
//! with their item counts and emitted as CSV or JSON.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use std::panic;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::{Duration, Instant};

/// Process-wide worker-count override (0 = unset). Set once at startup
/// from `--jobs`; read by [`Pool::current`].
static GLOBAL_JOBS: AtomicUsize = AtomicUsize::new(0);

/// Chunks handed out per worker by the auto-chunking [`Pool::map`]: more
/// chunks than workers so an uneven item smooths out, few enough that
/// the claim counter stays cold.
const CHUNKS_PER_WORKER: usize = 4;

/// Auto-chunking floor: below this many items per chunk the per-chunk
/// bookkeeping outweighs cheap per-item work (curve rows, key deltas).
const MIN_CHUNK: usize = 64;

/// Override the worker count for all subsequently created pools (the
/// `--jobs N` flag). `0` clears the override, falling back to
/// `MNEMO_JOBS` / the machine's parallelism.
pub fn set_jobs(jobs: usize) {
    GLOBAL_JOBS.store(jobs, Ordering::SeqCst);
}

/// The worker count a [`Pool::current`] pool will use right now:
/// [`set_jobs`] override, else `MNEMO_JOBS`, else available parallelism.
pub fn effective_jobs() -> usize {
    let explicit = GLOBAL_JOBS.load(Ordering::SeqCst);
    if explicit > 0 {
        return explicit;
    }
    if let Some(n) = std::env::var("MNEMO_JOBS")
        .ok()
        .and_then(|v| v.trim().parse::<usize>().ok())
        .filter(|&n| n >= 1)
    {
        return n;
    }
    std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1)
}

/// A bounded fork/join pool. Cheap to construct: workers are scoped
/// threads spawned per parallel region and joined before it returns, so
/// a `Pool` is just a worker budget.
#[derive(Debug, Clone, Copy)]
pub struct Pool {
    workers: usize,
}

impl Pool {
    /// A pool with an explicit worker budget (clamped to at least 1).
    pub fn new(workers: usize) -> Pool {
        Pool {
            workers: workers.max(1),
        }
    }

    /// The pool configured by `--jobs` / `MNEMO_JOBS` / the host.
    pub fn current() -> Pool {
        Pool::new(effective_jobs())
    }

    /// The worker budget.
    pub fn workers(&self) -> usize {
        self.workers
    }

    /// Map `f` over `0..n` with automatic chunking, returning results in
    /// index order. Output is bit-identical for every worker count.
    pub fn map<T, F>(&self, n: usize, f: F) -> Vec<T>
    where
        T: Send,
        F: Fn(usize) -> T + Sync,
    {
        let chunk = n
            .div_ceil((self.workers * CHUNKS_PER_WORKER).max(1))
            .max(MIN_CHUNK);
        self.map_chunked(n, chunk, f)
    }

    /// Map `f` over a slice (item index + item), auto-chunked.
    pub fn map_slice<I, T, F>(&self, items: &[I], f: F) -> Vec<T>
    where
        I: Sync,
        T: Send,
        F: Fn(usize, &I) -> T + Sync,
    {
        self.map(items.len(), |i| f(i, &items[i]))
    }

    /// Run `n` *coarse* jobs (chunk size 1): each index is claimed
    /// individually, so expensive, uneven jobs — tenant drains, whole
    /// consultations — balance across the bounded workers.
    pub fn run_jobs<T, F>(&self, n: usize, f: F) -> Vec<T>
    where
        T: Send,
        F: Fn(usize) -> T + Sync,
    {
        self.map_chunked(n, 1, f)
    }

    /// Map `f` over `0..n` with an explicit chunk size. Workers claim
    /// chunk indices from a shared counter; each chunk's results are
    /// collected and the chunks reassembled in order, so the returned
    /// `Vec` equals the sequential `(0..n).map(f).collect()` exactly.
    pub fn map_chunked<T, F>(&self, n: usize, chunk: usize, f: F) -> Vec<T>
    where
        T: Send,
        F: Fn(usize) -> T + Sync,
    {
        assert!(chunk >= 1, "chunk size must be positive");
        let chunks = n.div_ceil(chunk);
        let workers = self.workers.min(chunks);
        if workers <= 1 {
            return (0..n).map(f).collect();
        }
        let next = AtomicUsize::new(0);
        // Each worker hands back the chunks it claimed, tagged with their
        // indices, through its own join handle.
        let claim = || {
            let mut claimed: Vec<(usize, Vec<T>)> = Vec::new();
            loop {
                let c = next.fetch_add(1, Ordering::Relaxed);
                if c >= chunks {
                    return claimed;
                }
                let lo = c * chunk;
                let hi = ((c + 1) * chunk).min(n);
                claimed.push((c, (lo..hi).map(&f).collect()));
            }
        };
        let mut parts = Vec::with_capacity(chunks);
        std::thread::scope(|scope| {
            let handles: Vec<_> = (0..workers).map(|_| scope.spawn(claim)).collect();
            for handle in handles {
                match handle.join() {
                    Ok(claimed) => parts.extend(claimed),
                    Err(payload) => panic::resume_unwind(payload),
                }
            }
        });
        parts.sort_unstable_by_key(|&(c, _)| c);
        let mut out = Vec::with_capacity(n);
        for (_, part) in parts {
            out.extend(part);
        }
        out
    }

    /// Run two closures concurrently and return both results — the
    /// two-baseline (all-FastMem / all-SlowMem) measurement shape.
    pub fn join<A, B, FA, FB>(&self, fa: FA, fb: FB) -> (A, B)
    where
        A: Send,
        B: Send,
        FA: FnOnce() -> A + Send,
        FB: FnOnce() -> B + Send,
    {
        if self.workers <= 1 {
            return (fa(), fb());
        }
        std::thread::scope(|scope| {
            let hb = scope.spawn(fb);
            let a = fa();
            match hb.join() {
                Ok(b) => (a, b),
                Err(payload) => panic::resume_unwind(payload),
            }
        })
    }
}

/// One timed stage of a sweep.
#[derive(Debug, Clone)]
pub struct StageSample {
    /// Stage name (e.g. `"consult"`, `"panel-a"`).
    pub name: String,
    /// Wall-clock time spent in the stage.
    pub wall: Duration,
    /// Items the stage processed (0 when not meaningful).
    pub items: usize,
}

/// Per-stage wall-clock instrumentation for a sweep, emitted as a
/// CSV/JSON summary so the `bench-smoke` CI job can track speedups and
/// spot perf regressions. Timing output is *diagnostic* — it is written
/// to separate `timing-*` artifacts precisely because wall-clock values
/// are not byte-stable and must stay out of the determinism gate.
///
/// Internally this is a thin façade over a `mnemo-telemetry`
/// [`Recorder`](mnemo_telemetry::Recorder): every stage becomes a
/// wall-domain span, and the legacy `timing-*.csv`/JSON artifacts are
/// rendered by the telemetry exporter, so the workspace has exactly one
/// timing code path. The recorder is exposed so sweeps can attach
/// counters/histograms to the same object and export the full set.
#[derive(Debug)]
pub struct SweepTimer {
    label: String,
    jobs: usize,
    started: Instant,
    recorder: mnemo_telemetry::Recorder,
}

impl SweepTimer {
    /// Start a timer for the named sweep, recording the effective worker
    /// count it runs with.
    pub fn new(label: &str) -> SweepTimer {
        SweepTimer {
            label: label.to_string(),
            jobs: effective_jobs(),
            // mnemo-lint: allow(D001, "SweepTimer is the diagnostic wall-clock; its timing-* artifacts are excluded from the determinism gates")
            started: Instant::now(),
            recorder: mnemo_telemetry::Recorder::new(),
        }
    }

    /// The sweep label.
    pub fn label(&self) -> &str {
        &self.label
    }

    /// Worker count recorded at construction.
    pub fn jobs(&self) -> usize {
        self.jobs
    }

    /// Run `f` as a named stage over `items` items, recording its
    /// wall-clock time.
    pub fn stage<T>(&mut self, name: &str, items: usize, f: impl FnOnce() -> T) -> T {
        self.recorder.time_wall(name, items as u64, f)
    }

    /// Record an externally timed stage.
    pub fn record(&mut self, name: &str, items: usize, wall: Duration) {
        self.recorder.record_wall_span(name, items as u64, wall);
    }

    /// The underlying telemetry recorder, for sweeps that record more
    /// than stage timings (counters, sim-domain histograms).
    pub fn recorder(&mut self) -> &mut mnemo_telemetry::Recorder {
        &mut self.recorder
    }

    /// The recorded stages, in execution order.
    pub fn stages(&self) -> Vec<StageSample> {
        self.recorder
            .spans()
            .iter()
            .map(|s| StageSample {
                name: s.name.clone(),
                wall: Duration::from_secs_f64(s.duration_ns / 1e9),
                items: s.items as usize,
            })
            .collect()
    }

    /// Wall-clock time since the timer started.
    pub fn total_wall(&self) -> Duration {
        self.started.elapsed()
    }

    /// Snapshot the timer's telemetry (spans aggregated as wall-domain
    /// histograms plus any extra metrics recorded via [`Self::recorder`])
    /// for export through the standard telemetry pipeline.
    pub fn snapshot(&self) -> mnemo_telemetry::Snapshot {
        self.recorder.snapshot(0)
    }

    /// CSV summary: one row per stage plus a `total` row (legacy
    /// `timing-*.csv` format, rendered by the telemetry exporter).
    pub fn to_csv(&self) -> String {
        mnemo_telemetry::export::timing_csv(
            &self.label,
            self.jobs,
            self.recorder.spans(),
            self.total_wall().as_secs_f64() * 1e3,
        )
    }

    /// JSON summary (hand-rolled; stage names are plain identifiers).
    pub fn to_json(&self) -> String {
        mnemo_telemetry::export::timing_json(
            &self.label,
            self.jobs,
            self.recorder.spans(),
            self.total_wall().as_secs_f64() * 1e3,
        )
    }

    /// One-line human summary for logs.
    pub fn summary(&self) -> String {
        format!(
            "[timing] {} ({} jobs): {} stages, {:.1} ms total",
            self.label,
            self.jobs,
            self.recorder.spans().len(),
            self.total_wall().as_secs_f64() * 1e3
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashSet;
    use std::sync::atomic::AtomicUsize;

    #[test]
    fn map_preserves_index_order() {
        for workers in [1, 2, 3, 8] {
            let out = Pool::new(workers).map(100, |i| i * 3);
            assert_eq!(out, (0..100).map(|i| i * 3).collect::<Vec<_>>());
        }
    }

    #[test]
    fn map_chunked_covers_every_index_exactly_once() {
        let pool = Pool::new(4);
        for (n, chunk) in [(0usize, 1usize), (1, 1), (17, 3), (64, 64), (65, 64)] {
            let out = pool.map_chunked(n, chunk, |i| i);
            assert_eq!(out.len(), n, "n={n} chunk={chunk}");
            let distinct: HashSet<usize> = out.iter().copied().collect();
            assert_eq!(distinct.len(), n);
            assert_eq!(out, (0..n).collect::<Vec<_>>());
        }
    }

    #[test]
    fn results_are_identical_across_worker_counts() {
        let reference = Pool::new(1).map(1000, |i| (i as f64).sqrt().sin());
        for workers in [2, 3, 5, 16] {
            let out = Pool::new(workers).map(1000, |i| (i as f64).sqrt().sin());
            // Bit-identical, not approximately equal.
            assert!(
                out.iter()
                    .zip(&reference)
                    .all(|(a, b)| a.to_bits() == b.to_bits()),
                "workers={workers}"
            );
        }
    }

    #[test]
    fn worker_count_is_bounded() {
        // 64 coarse jobs on a 3-worker pool must never have more than 3
        // running at once (the old spawn-per-job helper ran all 64).
        let live = AtomicUsize::new(0);
        let peak = AtomicUsize::new(0);
        Pool::new(3).run_jobs(64, |_| {
            let now = live.fetch_add(1, Ordering::SeqCst) + 1;
            peak.fetch_max(now, Ordering::SeqCst);
            std::thread::sleep(Duration::from_micros(200));
            live.fetch_sub(1, Ordering::SeqCst);
        });
        assert!(peak.load(Ordering::SeqCst) <= 3);
    }

    #[test]
    fn worker_panic_propagates() {
        let result = panic::catch_unwind(|| {
            Pool::new(4).run_jobs(8, |i| {
                if i == 5 {
                    panic!("job 5 exploded");
                }
                i
            })
        });
        let payload = result.expect_err("a worker panic must reach the caller");
        assert_eq!(
            payload.downcast_ref::<&str>(),
            Some(&"job 5 exploded"),
            "the caller must see the worker's own payload"
        );
    }

    #[test]
    fn fallible_stages_yield_the_first_error_at_every_worker_count() {
        // A sweep stage whose per-item closure is fallible: results come
        // back in index order, so collecting into `Result` must surface
        // the error of the *lowest failing index* — not whichever worker
        // happened to hit its failure first in wall-clock time.
        let run = |workers: usize| -> Result<Vec<usize>, String> {
            Pool::new(workers)
                .run_jobs(64, |i| {
                    if i % 17 == 9 {
                        Err(format!("item {i} failed"))
                    } else {
                        Ok(i * i)
                    }
                })
                .into_iter()
                .collect()
        };
        for workers in [1, 2, 4, 8] {
            assert_eq!(
                run(workers),
                Err("item 9 failed".into()),
                "workers={workers}"
            );
        }
    }

    #[test]
    fn fallible_stages_succeed_and_drain_in_order() {
        // No failures: the fallible path must be byte-identical to the
        // sequential collect, including after partial-chunk reassembly.
        let expect: Vec<usize> = (0..37).map(|i| i + 100).collect();
        for workers in [1, 3, 7] {
            let got: Result<Vec<usize>, String> = Pool::new(workers)
                .map_chunked(37, 4, |i| Ok(i + 100))
                .into_iter()
                .collect();
            assert_eq!(got.as_deref(), Ok(&expect[..]), "workers={workers}");
        }
    }

    #[test]
    fn fallible_join_carries_both_results() {
        let (a, b): (Result<u32, String>, Result<u32, String>) =
            Pool::new(2).join(|| Ok(4), || Err("right baseline failed".into()));
        assert_eq!(a, Ok(4));
        assert_eq!(b, Err("right baseline failed".into()));
    }

    #[test]
    fn join_returns_both_and_propagates_panics() {
        let (a, b) = Pool::new(2).join(|| 1 + 1, || "two");
        assert_eq!((a, b), (2, "two"));
        let panicked =
            panic::catch_unwind(|| Pool::new(2).join(|| 1, || -> usize { panic!("right side") }));
        let payload = panicked.expect_err("a right-side panic must reach the caller");
        assert_eq!(payload.downcast_ref::<&str>(), Some(&"right side"));
        // Sequential pools run both inline.
        let (a, b) = Pool::new(1).join(|| 7, || 9);
        assert_eq!((a, b), (7, 9));
    }

    #[test]
    fn set_jobs_overrides_environment() {
        set_jobs(5);
        assert_eq!(effective_jobs(), 5);
        assert_eq!(Pool::current().workers(), 5);
        set_jobs(0);
        assert!(effective_jobs() >= 1);
    }

    #[test]
    fn sweep_timer_emits_csv_and_json() {
        let mut t = SweepTimer::new("fig-test");
        let x = t.stage("consult", 3, || 42);
        assert_eq!(x, 42);
        t.record("write", 1, Duration::from_millis(2));
        let csv = t.to_csv();
        assert!(csv.starts_with("sweep,jobs,stage,items,wall_ms\n"));
        assert_eq!(csv.lines().count(), 4, "header + 2 stages + total:\n{csv}");
        assert!(csv.contains("fig-test"));
        assert!(csv.lines().last().unwrap().contains(",total,"));
        let json = t.to_json();
        assert!(json.contains("\"sweep\":\"fig-test\""));
        assert!(json.contains("\"stage\":\"consult\""));
        assert!(t.summary().contains("2 stages"));
        // The timer is a telemetry façade: stages surface in its
        // snapshot as wall-domain spans, and extra metrics recorded on
        // the inner recorder ride along.
        t.recorder().count("sweep.rows", 9);
        let snap = t.snapshot();
        assert_eq!(snap.counter("span.consult.items"), 3);
        assert_eq!(snap.counter("sweep.rows"), 9);
        assert_eq!(snap.histogram("span.write.wall_ns").unwrap().count(), 1);
        assert_eq!(t.stages().len(), 2);
        assert_eq!(t.stages()[0].name, "consult");
    }
}
