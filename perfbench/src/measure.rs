//! Timing, statistics and process counters shared by the workloads.

use crate::reference::TimeBase;
use std::time::Instant;

/// One reported number.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    /// Metric name, `[A-Za-z0-9_.-]+`.
    pub name: String,
    /// Measured value.
    pub value: f64,
    /// Unit, as listed in `BENCHMARK.json`.
    pub unit: &'static str,
    /// Samples behind the value, when it is a median or percentile.
    pub samples: Option<usize>,
}

impl Metric {
    /// A metric without a sample count.
    pub fn new(name: impl Into<String>, value: f64, unit: &'static str) -> Self {
        Metric {
            name: name.into(),
            value,
            unit,
            samples: None,
        }
    }

    /// A median or percentile over `samples` observations.
    pub fn sampled(
        name: impl Into<String>,
        value: f64,
        unit: &'static str,
        samples: usize,
    ) -> Self {
        Metric {
            name: name.into(),
            value,
            unit,
            samples: Some(samples),
        }
    }
}

/// Tally of operations attempted and failed, plus named correctness checks.
#[derive(Debug, Default)]
pub struct Tally {
    /// Operations attempted.
    pub attempted: u64,
    /// Operations that failed or returned a wrong result.
    pub failed: u64,
    /// Descriptions of the checks that failed (first few kept).
    pub problems: Vec<String>,
}

impl Tally {
    /// Count one operation, failed unless `ok`.
    pub fn op(&mut self, ok: bool, what: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            if self.problems.len() < 8 {
                self.problems.push(what());
            }
        }
    }

    /// True when something was attempted and nothing failed.
    pub fn correct(&self) -> bool {
        self.attempted > 0 && self.failed == 0 && self.problems.is_empty()
    }

    /// Failed share of attempted operations.
    pub fn failed_ratio(&self) -> f64 {
        self.failed as f64 / self.attempted.max(1) as f64
    }
}

/// Seconds elapsed since `t`.
pub fn secs(t: Instant) -> f64 {
    t.elapsed().as_secs_f64()
}

/// Run `f` and return its result with its wall time in seconds.
pub fn timed<T>(f: impl FnOnce() -> T) -> (T, f64) {
    let t = Instant::now();
    let out = f();
    (out, secs(t))
}

/// CPU time used by this process so far, in seconds: every thread, live or
/// ended (`CLOCK_PROCESS_CPUTIME_ID`). On a guest with paravirtual steal
/// accounting, time the host gave to other guests is not counted, nor is
/// time spent blocked (in `fdatasync`, or waiting for a woken thread).
pub fn cpu_s() -> f64 {
    #[repr(C)]
    struct Timespec {
        tv_sec: i64,
        tv_nsec: i64,
    }
    extern "C" {
        fn clock_gettime(clock: i32, tp: *mut Timespec) -> i32;
    }
    const CLOCK_PROCESS_CPUTIME_ID: i32 = 2;
    let mut ts = Timespec {
        tv_sec: 0,
        tv_nsec: 0,
    };
    // SAFETY: `ts` is a valid, writable `struct timespec` (two 64-bit
    // fields on 64-bit Linux) and the clock id is a constant the kernel
    // always accepts.
    let rc = unsafe { clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &mut ts) };
    assert_eq!(rc, 0, "clock_gettime(CLOCK_PROCESS_CPUTIME_ID) failed");
    ts.tv_sec as f64 + ts.tv_nsec as f64 * 1e-9
}

/// Ask the C allocator to keep the memory the process frees and never hand
/// it back to the kernel, and to serve large blocks from the heap rather
/// than from fresh mappings. Each pass then reuses memory an earlier pass
/// touched instead of page-faulting it in again; on a KVM guest the cost of
/// those faults moved with the host's memory traffic and showed up as
/// seconds-long dips in every rate. Call it once, before other threads
/// start. Peak RSS stays the peak of live data plus heap fragmentation.
#[cfg(all(target_os = "linux", target_env = "gnu"))]
pub fn keep_freed_memory() {
    extern "C" {
        fn mallopt(param: i32, value: i32) -> i32;
    }
    const M_TRIM_THRESHOLD: i32 = -1;
    const M_MMAP_MAX: i32 = -4;
    // SAFETY: `mallopt` only sets glibc allocator tunables; both parameters
    // are valid, and no other thread is allocating yet.
    unsafe {
        mallopt(M_MMAP_MAX, 0);
        mallopt(M_TRIM_THRESHOLD, i32::MAX);
    }
}

/// Elsewhere the allocator keeps its defaults.
#[cfg(not(all(target_os = "linux", target_env = "gnu")))]
pub fn keep_freed_memory() {}

/// Wall and process CPU time since a start point.
#[derive(Debug, Clone, Copy)]
pub struct Stopwatch {
    wall: Instant,
    cpu: f64,
}

impl Stopwatch {
    /// Start timing now.
    pub fn start() -> Self {
        Stopwatch {
            wall: Instant::now(),
            cpu: cpu_s(),
        }
    }

    /// Wall seconds since the start.
    pub fn wall_s(&self) -> f64 {
        secs(self.wall)
    }

    /// Process CPU seconds since the start.
    pub fn cpu_s(&self) -> f64 {
        cpu_s() - self.cpu
    }

    /// Reference seconds since the start (see [`crate::reference`]). The
    /// clock is read before `base` runs its kernel.
    pub fn ref_s(&self, base: TimeBase) -> f64 {
        let cpu = self.cpu_s();
        cpu * base.scale()
    }
}

/// Run `f` and return its result with the reference seconds it took.
pub fn ref_timed<T>(base: TimeBase, f: impl FnOnce() -> T) -> (T, f64) {
    let t = Stopwatch::start();
    let out = f();
    (out, t.ref_s(base))
}

/// Samples of one rate: per wall second, and per reference second when a
/// time base is set.
#[derive(Debug, Default)]
pub struct Rates {
    /// Work per reference second (empty without a time base).
    pub reference: Vec<f64>,
    /// Work per wall second.
    pub wall: Vec<f64>,
    /// How reference seconds are counted; `None` (the default) records
    /// wall-clock rates only and never runs a kernel, for passes whose
    /// time must not include one (warm-up, traced and trace-baseline
    /// passes).
    base: Option<TimeBase>,
}

impl Rates {
    /// Samples timed in wall seconds and in reference seconds of `base`.
    pub fn new(base: TimeBase) -> Self {
        Rates {
            base: Some(base),
            ..Rates::default()
        }
    }

    /// Record `work` done since `since` started.
    pub fn push(&mut self, work: f64, since: Stopwatch) {
        self.wall.push(work / since.wall_s());
        if let Some(base) = self.base {
            self.reference.push(work / since.ref_s(base));
        }
    }

    /// Number of samples.
    pub fn len(&self) -> usize {
        self.wall.len()
    }

    /// True when nothing was recorded.
    pub fn is_empty(&self) -> bool {
        self.wall.is_empty()
    }
}

/// Whether another measured pass should start: always the first one, and
/// after that only while it would end at most half a pass past `seconds`,
/// so a run lasts about `seconds` whatever the pass length.
pub fn another_pass(start: Instant, pass_s: &[f64], seconds: f64) -> bool {
    pass_s.is_empty() || secs(start) + median(pass_s) / 2.0 < seconds
}

/// Median of `values` (mean of the middle pair for an even count); 0 when
/// empty.
pub fn median(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let mid = v.len() / 2;
    if v.len() % 2 == 1 {
        v[mid]
    } else {
        (v[mid - 1] + v[mid]) / 2.0
    }
}

/// Nearest-rank percentile `q` in `[0, 1]` of `values`; 0 when empty.
pub fn percentile(values: &[f64], q: f64) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let rank = ((q * v.len() as f64).ceil() as usize).clamp(1, v.len());
    v[rank - 1]
}

/// Peak resident set size of this process in MiB (`VmHWM`).
pub fn peak_rss_mib() -> f64 {
    proc_field("/proc/self/status", "VmHWM:")
        .map(|kib| kib as f64 / 1024.0)
        .unwrap_or(0.0)
}

/// Write-side counters from `/proc/self/io`.
#[derive(Debug, Clone, Copy, Default)]
pub struct IoCounters {
    /// Write system calls.
    pub write_calls: u64,
    /// Bytes sent to the storage layer.
    pub write_bytes: u64,
}

impl IoCounters {
    /// Current counters (zero where the kernel does not expose them).
    pub fn now() -> Self {
        IoCounters {
            write_calls: proc_field("/proc/self/io", "syscw:").unwrap_or(0),
            write_bytes: proc_field("/proc/self/io", "write_bytes:").unwrap_or(0),
        }
    }

    /// Counter growth since `earlier`.
    pub fn since(self, earlier: IoCounters) -> IoCounters {
        IoCounters {
            write_calls: self.write_calls.saturating_sub(earlier.write_calls),
            write_bytes: self.write_bytes.saturating_sub(earlier.write_bytes),
        }
    }
}

fn proc_field(path: &str, key: &str) -> Option<u64> {
    let text = std::fs::read_to_string(path).ok()?;
    let line = text.lines().find(|l| l.starts_with(key))?;
    line[key.len()..].split_whitespace().next()?.parse().ok()
}

/// Median wall time in microseconds of one `itrust_par::par_map` call over
/// 8 trivial items at the process's thread count: the fixed cost every
/// parallel call site pays.
pub fn par_map_call_us() -> f64 {
    let items: Vec<u64> = (0..8).collect();
    let mut samples = Vec::with_capacity(200);
    for _ in 0..200 {
        let t = Instant::now();
        let out = itrust_par::par_map(&items, |x| std::hint::black_box(*x) * 2);
        std::hint::black_box(out);
        samples.push(secs(t) * 1e6);
    }
    median(&samples)
}

/// `a / b`, or 0 when `b` is 0.
pub fn ratio(a: f64, b: f64) -> f64 {
    if b > 0.0 {
        a / b
    } else {
        0.0
    }
}

/// Bytes to MiB.
pub fn mib(bytes: u64) -> f64 {
    bytes as f64 / (1024.0 * 1024.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cpu_time_counts_work_but_not_sleep() {
        let sleeping = Stopwatch::start();
        std::thread::sleep(std::time::Duration::from_millis(50));
        assert!(sleeping.wall_s() >= 0.05);
        assert!(
            sleeping.cpu_s() < 0.025,
            "sleep used {} CPU s",
            sleeping.cpu_s()
        );

        let busy = Stopwatch::start();
        let mut x = 0u64;
        while busy.cpu_s() < 0.02 {
            x = std::hint::black_box(x.wrapping_mul(6364136223846793005).wrapping_add(1));
        }
        let mut rates = Rates::new(TimeBase::Sha256);
        rates.push(100.0, busy);
        assert_eq!(rates.len(), 1);
        assert!(rates.reference[0].is_finite() && rates.reference[0] > 0.0);
        assert!(rates.wall[0] > 0.0 && rates.wall[0] <= 100.0 / 0.02);

        let mut wall_only = Rates::default();
        wall_only.push(100.0, busy);
        assert_eq!(wall_only.len(), 1);
        assert!(wall_only.reference.is_empty());
    }
}
