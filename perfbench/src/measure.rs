//! What the benchmark reads about its own process and its machine, and the
//! order statistics it reports. Linux only: everything comes from `/proc`.

use std::fs;
use std::time::Instant;

use tm_obs::Json;

/// `/proc/<pid>/stat` reports CPU time in `USER_HZ` ticks, which Linux
/// fixes at 100 on every architecture.
const USER_HZ: f64 = 100.0;

fn read_proc(path: &str) -> String {
    fs::read_to_string(path).unwrap_or_else(|e| panic!("{path} must be readable: {e}"))
}

/// User + system CPU seconds of this whole process — every thread, running
/// or already exited — from `/proc/self/stat` (10 ms resolution).
pub fn process_cpu_s() -> f64 {
    let stat = read_proc("/proc/self/stat");
    // The command name may contain spaces; the fields after it do not.
    let rest = &stat[stat.rfind(')').expect("stat names the command") + 1..];
    let fields: Vec<&str> = rest.split_whitespace().collect();
    // `utime` and `stime` are fields 14 and 15; `rest` starts at field 3.
    let ticks = |i: usize| -> u64 { fields[i].parse().expect("stat times are integers") };
    (ticks(11) + ticks(12)) as f64 / USER_HZ
}

/// On-CPU seconds of the calling thread, from `/proc/thread-self/schedstat`
/// (nanosecond resolution).
pub fn thread_cpu_s() -> f64 {
    let ns: u64 = read_proc("/proc/thread-self/schedstat")
        .split_whitespace()
        .next()
        .and_then(|f| f.parse().ok())
        .expect("schedstat starts with the on-CPU nanoseconds");
    ns as f64 / 1e9
}

/// Peak resident set size (`VmHWM`) of this process, in MiB.
pub fn peak_rss_mib() -> f64 {
    let kib: u64 = read_proc("/proc/self/status")
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse().ok())
        .expect("status reports VmHWM in kB");
    kib as f64 / 1024.0
}

/// A measurement window over wall-clock time and process CPU time.
pub struct Window {
    start: Instant,
    cpu: f64,
    own_cpu: f64,
}

impl Window {
    /// Opens the window now.
    pub fn open() -> Window {
        Window {
            start: Instant::now(),
            cpu: process_cpu_s(),
            own_cpu: thread_cpu_s(),
        }
    }

    /// Wall-clock seconds since the window opened.
    pub fn wall_s(&self) -> f64 {
        self.start.elapsed().as_secs_f64()
    }

    /// Process CPU seconds since the window opened.
    pub fn cpu_s(&self) -> f64 {
        process_cpu_s() - self.cpu
    }

    /// CPU seconds spent since the window opened by threads other than the
    /// calling one (the one that opened it) — the sweep's worker and
    /// monitor threads, which live only inside `run_sweep`.
    pub fn other_threads_cpu_s(&self) -> f64 {
        self.cpu_s() - (thread_cpu_s() - self.own_cpu)
    }
}

/// The median of `values` (the mean of the middle two for an even count).
/// Panics on an empty slice.
pub fn median(values: &[f64]) -> f64 {
    let v = sorted(values);
    let mid = v.len() / 2;
    if v.len() % 2 == 1 {
        v[mid]
    } else {
        (v[mid - 1] + v[mid]) / 2.0
    }
}

/// The highest order statistic with at least ten samples above it; the
/// maximum when there are ten samples or fewer. Panics on an empty slice.
pub fn tail(values: &[f64]) -> f64 {
    let v = sorted(values);
    let at = if v.len() > 10 {
        v.len() - 11
    } else {
        v.len() - 1
    };
    v[at]
}

fn sorted(values: &[f64]) -> Vec<f64> {
    assert!(!values.is_empty(), "no samples");
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

/// Where a result set was measured: core count, kernel and CPU model.
pub fn machine() -> Json {
    let nproc = std::thread::available_parallelism().map_or(0, usize::from);
    let kernel = |f: &str| {
        fs::read_to_string(format!("/proc/sys/kernel/{f}"))
            .map_or_else(|_| "?".into(), |s| s.trim().to_string())
    };
    let cpu = fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("model name"))
                .map(|v| v.trim_start_matches([' ', '\t', ':']).to_string())
        })
        .unwrap_or_else(|| "?".to_string());
    Json::obj(vec![
        ("nproc", Json::u64(nproc as u64)),
        (
            "uname",
            Json::Str(format!(
                "{} {} {}",
                kernel("ostype"),
                kernel("osrelease"),
                std::env::consts::ARCH
            )),
        ),
        ("cpu", Json::Str(cpu)),
    ])
}
