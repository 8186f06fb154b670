//! How timings are adjusted for the host's speed and steal.
//!
//! The machines the benchmark runs on share their processors with other
//! work, in two ways. Each virtual processor changes speed: on the
//! recording host each one switched from one tenth of a second to the
//! next between two speeds about 1.4x apart, independently of the other,
//! and the share of time at the slow speed changed from minute to minute.
//! And the host takes processors away for a while (steal time): up to a
//! quarter of their time over minutes. Raw wall times of two runs of the
//! same code then differ by more than any bound worth setting.
//!
//! So every run pins itself to one processor, and each timed operation is
//! adjusted for both:
//!
//! * speed: right beside the operation a fixed reference kernel runs on
//!   the same processor, timed in this thread's CPU time, and the
//!   operation's time is multiplied by the kernel's nominal time over its
//!   measured time;
//! * steal: the operation's time is multiplied by the share of the
//!   processor's time the host left it over the surrounding block of
//!   operations (`/proc/stat` counts steal in 10 ms ticks, too coarse for
//!   a single operation).
//!
//! The kernel is the benchmark's own code, so a change to the program
//! moves the raw time and not the kernel, and shows in full. Raw times
//! are printed beside the adjusted ones.

use crate::os::{cpu_ticks, thread_cpu_secs};
use crate::stats;
use crate::trace::{now, secs_since};
use std::fmt::Write as _;
use std::hint::black_box;

/// Sorted values in the full kernel, run before a consultation or a
/// set-up.
const FULL: usize = 24_000;
/// The full kernel's CPU time at the reference speed, in seconds: at the
/// speed where it takes this long, an adjusted time equals the raw one.
const NOMINAL_S: f64 = 1.0e-3;
/// Sorted values in the small kernel, run before each serve window.
const SMALL: usize = 3_000;
/// The small kernel's CPU time at the reference speed, in seconds.
const NOMINAL_SMALL_S: f64 = 1.0e-4;
/// A window's speed is the median over this many of the latest small
/// kernel runs, against interrupts that land inside a single run.
const WINDOW_RUNS: usize = 5;

fn xorshift(s: &mut u64) -> u64 {
    *s ^= *s << 13;
    *s ^= *s >> 7;
    *s ^= *s << 17;
    *s
}

/// A fixed mix of work like the program's own: a sort of `n` values,
/// then formatting and parsing a quarter of them as text, with the
/// allocations they make. Of the kernels tried on the recording host it
/// tracked a consultation's and a trace generation's time best, each in
/// proportion; one that also waited on dependent memory reads slowed far
/// more than either when the host was busy.
fn kernel(n: usize) -> u64 {
    let mut s = 0x9E37_79B9_7F4A_7C15u64;
    let mut v: Vec<u64> = (0..n).map(|_| xorshift(&mut s) % 100_000).collect();
    v.sort_unstable();
    let mut text = String::new();
    for x in &v[..n / 4] {
        let _ = write!(text, "{{\"k\":{x}}},");
    }
    let parsed: u64 = text
        .split(',')
        .filter_map(|f| {
            f.strip_prefix("{\"k\":")?
                .strip_suffix('}')?
                .parse::<u64>()
                .ok()
        })
        .sum();
    parsed ^ v[n / 2]
}

/// One kernel run's CPU time, in seconds.
fn timed(n: usize) -> f64 {
    let c0 = thread_cpu_secs();
    black_box(kernel(n));
    thread_cpu_secs() - c0
}

/// The reference kernels' timed runs.
#[derive(Default)]
pub struct Reference {
    kernel_s: Vec<f64>,
    small_s: Vec<f64>,
    spent_s: f64,
}

impl Reference {
    /// Run the full kernel once untimed, so that its time does not depend
    /// on what the program left in the caches, then `reps` times timed,
    /// and return the factor that takes a time measured now to the
    /// reference speed: [`NOMINAL_S`] over their median. Call it right
    /// before and right after the timed operation and take the mean: the
    /// processor's speed changes within a second, and on the recording
    /// host runs right beside a consultation tracked it better than a
    /// median over the runs before the last few.
    pub fn scale(&mut self, reps: usize) -> f64 {
        let reps = reps.max(1);
        let warm = now();
        black_box(kernel(FULL));
        for _ in 0..reps {
            self.kernel_s.push(timed(FULL));
        }
        self.spent_s += secs_since(warm);
        NOMINAL_S / stats::median(&self.kernel_s[self.kernel_s.len() - reps..])
    }

    /// Run the small kernel once and return the factor for the next serve
    /// window: [`NOMINAL_SMALL_S`] over the median of the latest runs.
    pub fn window_scale(&mut self) -> f64 {
        let w0 = now();
        self.small_s.push(timed(SMALL));
        self.spent_s += secs_since(w0);
        let latest = &self.small_s[self.small_s.len().saturating_sub(WINDOW_RUNS)..];
        NOMINAL_SMALL_S / stats::median(latest)
    }

    /// Every timed full-kernel run so far, in seconds of CPU time.
    pub fn kernel_times(&self) -> &[f64] {
        &self.kernel_s
    }

    /// Every small-kernel run so far, in seconds of CPU time.
    pub fn small_kernel_times(&self) -> &[f64] {
        &self.small_s
    }

    /// Wall time spent running kernels so far, in seconds.
    pub fn spent_s(&self) -> f64 {
        self.spent_s
    }
}

/// Steal time on one processor over an interval.
pub struct StealMeter {
    cpu: usize,
    start: (u64, u64),
}

impl StealMeter {
    /// Start counting on processor `cpu`.
    pub fn start(cpu: usize) -> Result<StealMeter, String> {
        Ok(StealMeter {
            cpu,
            start: cpu_ticks(cpu)?,
        })
    }

    /// The share of the processor's time since the start that the host
    /// left it: 1 minus the steal share.
    pub fn kept(&self) -> Result<f64, String> {
        let (steal, total) = cpu_ticks(self.cpu)?;
        let (steal0, total0) = self.start;
        Ok(1.0 - (steal - steal0) as f64 / (total - total0).max(1) as f64)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn kernels_are_deterministic_and_scales_are_positive() {
        let mut r = Reference::default();
        assert_eq!(kernel(FULL), kernel(FULL));
        assert_eq!(kernel(SMALL), kernel(SMALL));
        for reps in [1, 0, 5] {
            let s = r.scale(reps);
            assert!(s.is_finite() && s > 0.0);
        }
        assert_eq!(r.kernel_times().len(), 7);
        for _ in 0..WINDOW_RUNS + 2 {
            let s = r.window_scale();
            assert!(s.is_finite() && s > 0.0);
        }
        assert_eq!(r.small_kernel_times().len(), WINDOW_RUNS + 2);
        assert!(r.spent_s() > r.kernel_times().iter().sum::<f64>());
    }

    #[test]
    fn steal_share_is_a_share() {
        let meter = StealMeter::start(0).unwrap();
        let kept = meter.kept().unwrap();
        assert!((0.0..=1.0).contains(&kept), "{kept}");
    }
}
