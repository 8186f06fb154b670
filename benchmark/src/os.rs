//! The few Linux calls the benchmark makes that `std` does not wrap.

#[cfg(not(target_os = "linux"))]
compile_error!("the benchmark reads /proc and pins processors: it runs on Linux only");

use std::os::raw::{c_int, c_long};

#[repr(C)]
struct Timespec {
    tv_sec: i64,
    tv_nsec: c_long,
}

/// `cpu_set_t`: room for 1,024 processors.
type CpuSet = [u64; 16];

extern "C" {
    fn clock_gettime(clock: c_int, ts: *mut Timespec) -> c_int;
    fn sched_getaffinity(pid: c_int, size: usize, mask: *mut CpuSet) -> c_int;
    fn sched_setaffinity(pid: c_int, size: usize, mask: *const CpuSet) -> c_int;
}

const CLOCK_THREAD_CPUTIME_ID: c_int = 3;

/// This thread's CPU time, in seconds.
pub fn thread_cpu_secs() -> f64 {
    let mut ts = Timespec {
        tv_sec: 0,
        tv_nsec: 0,
    };
    // SAFETY: `ts` is a valid, writable timespec for the call's duration.
    let rc = unsafe { clock_gettime(CLOCK_THREAD_CPUTIME_ID, &mut ts) };
    assert_eq!(rc, 0, "the thread CPU clock exists on every Linux");
    ts.tv_sec as f64 + ts.tv_nsec as f64 * 1e-9
}

/// `(steal, total)` time of processor `cpu`, in the 10 ms ticks of
/// `/proc/stat`.
pub fn cpu_ticks(cpu: usize) -> Result<(u64, u64), String> {
    ticks(&format!("cpu{cpu} "))
}

/// The same summed over every processor.
pub fn all_cpu_ticks() -> Result<(u64, u64), String> {
    ticks("cpu ")
}

fn ticks(prefix: &str) -> Result<(u64, u64), String> {
    let stat = std::fs::read_to_string("/proc/stat")
        .map_err(|e| format!("cannot read /proc/stat: {e}"))?;
    let fields: Vec<u64> = stat
        .lines()
        .find_map(|l| l.strip_prefix(prefix))
        .ok_or_else(|| format!("/proc/stat has no `{}` line", prefix.trim_end()))?
        .split_whitespace()
        .map(|f| {
            f.parse()
                .map_err(|_| format!("/proc/stat: bad field `{f}`"))
        })
        .collect::<Result<_, _>>()?;
    // user nice system idle iowait irq softirq steal guest guest_nice;
    // guest time is already counted in user and nice.
    let steal = *fields.get(7).ok_or("/proc/stat has no steal column")?;
    Ok((steal, fields.iter().take(8).sum()))
}

/// Pin this thread to the lowest-numbered processor it may run on, so
/// that the processes it spawns from now on inherit that one processor.
/// Returns the processor's number.
pub fn pin_to_one_cpu() -> Result<usize, String> {
    let mut mask: CpuSet = [0; 16];
    let size = std::mem::size_of::<CpuSet>();
    // SAFETY: `mask` is a writable buffer of `size` bytes; pid 0 is this
    // thread.
    if unsafe { sched_getaffinity(0, size, &mut mask) } != 0 {
        return Err(format!(
            "sched_getaffinity: {}",
            std::io::Error::last_os_error()
        ));
    }
    let cpu = (0..size * 8)
        .find(|&c| mask[c / 64] & (1 << (c % 64)) != 0)
        .ok_or("no processor is allowed")?;
    let mut one: CpuSet = [0; 16];
    one[cpu / 64] = 1 << (cpu % 64);
    // SAFETY: `one` is a readable buffer of `size` bytes; pid 0 is this
    // thread.
    if unsafe { sched_setaffinity(0, size, &one) } != 0 {
        return Err(format!(
            "sched_setaffinity: {}",
            std::io::Error::last_os_error()
        ));
    }
    Ok(cpu)
}

/// Fix glibc's mmap threshold at its start value, 128 KiB. Left alone,
/// the threshold rises each time a large block is freed, so after
/// hundreds of consultations in one process the peak memory of the same
/// consultation depended on the ones before it: on the recording host
/// `consult-ycsb` peaked anywhere from 80 to 183 MiB by seed and pass,
/// and at 78-79 MiB with the threshold fixed. A user consults once per
/// process, starting from this value.
#[cfg(target_env = "gnu")]
pub fn fix_mmap_threshold() -> Result<(), String> {
    extern "C" {
        fn mallopt(param: c_int, value: c_int) -> c_int;
    }
    const M_MMAP_THRESHOLD: c_int = -3;
    // SAFETY: `mallopt` is glibc's tuning call. It takes two integers by
    // value, touches no memory of this program's, and is called before
    // the process starts any thread.
    match unsafe { mallopt(M_MMAP_THRESHOLD, 128 * 1024) } {
        1 => Ok(()),
        _ => Err("mallopt(M_MMAP_THRESHOLD) failed".into()),
    }
}

/// Other C libraries keep a fixed threshold of their own.
#[cfg(not(target_env = "gnu"))]
pub fn fix_mmap_threshold() -> Result<(), String> {
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn thread_cpu_time_advances_with_work() {
        let t0 = thread_cpu_secs();
        let mut x = 0u64;
        for i in 0..2_000_000u64 {
            x = std::hint::black_box(x.wrapping_mul(31).wrapping_add(i));
        }
        assert!(thread_cpu_secs() > t0);
    }
}
