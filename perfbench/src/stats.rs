//! Small numeric and process helpers: percentiles, medians, `/proc` memory
//! readings and the one-line JSON result.

use std::fmt::Write as _;

/// Nearest-rank percentile (`p` in `0..=100`) of an unsorted sample.
/// Returns `NaN` for an empty sample, which the finiteness check reports.
pub fn percentile(sample: &[f64], p: f64) -> f64 {
    if sample.is_empty() {
        return f64::NAN;
    }
    let mut v = sample.to_vec();
    v.sort_by(f64::total_cmp);
    let rank = ((p / 100.0) * v.len() as f64).ceil() as usize;
    v[rank.clamp(1, v.len()) - 1]
}

/// Median (nearest-rank p50).
pub fn median(sample: &[f64]) -> f64 {
    percentile(sample, 50.0)
}

/// Arithmetic mean, `NaN` when empty.
pub fn mean(sample: &[f64]) -> f64 {
    sample.iter().sum::<f64>() / sample.len() as f64
}

/// Samples strictly above the `p`-th percentile: the tail a percentile
/// rests on. A percentile is reported as trustworthy only when this is at
/// least ten.
pub fn samples_beyond(sample: &[f64], p: f64) -> usize {
    let cut = percentile(sample, p);
    sample.iter().filter(|&&x| x > cut).count()
}

/// One `kB` field of `/proc/self/status` (`VmHWM`, `VmRSS`), in kB.
pub fn proc_status_kb(field: &str) -> Option<u64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    status.lines().find_map(|line| {
        let rest = line.strip_prefix(field)?.strip_prefix(':')?;
        rest.trim().strip_suffix("kB")?.trim().parse().ok()
    })
}

/// Aggregate CPU ticks from `/proc/stat`: `(all, steal)`. Steal is time a
/// hypervisor ran something else while this machine's CPUs wanted to run.
pub fn cpu_ticks() -> Option<(u64, u64)> {
    let stat = std::fs::read_to_string("/proc/stat").ok()?;
    let fields: Vec<u64> = stat
        .lines()
        .next()?
        .strip_prefix("cpu ")?
        .split_whitespace()
        .filter_map(|f| f.parse().ok())
        .collect();
    Some((fields.iter().sum(), *fields.get(7)?))
}

/// The host limits a run of many short TCP sessions can run into, as read
/// from `/proc` (`None` where it cannot be read).
#[derive(Debug, Clone, Copy)]
pub struct HostLimits {
    /// Open file descriptors: `(soft, hard)` (`RLIMIT_NOFILE`).
    pub open_files: Option<(u64, u64)>,
    /// Memory mappings per process (`vm.max_map_count`).
    pub max_map_count: Option<u64>,
}

impl HostLimits {
    /// File descriptors kept free for everything but retained sessions.
    const FD_RESERVE: u64 = 256;
    /// Mappings kept free for everything but retained sessions.
    const MAP_RESERVE: u64 = 4096;
    /// Mappings one retained session holds: two thread stacks, each with
    /// its guard page.
    const MAPS_PER_SESSION: u64 = 4;

    /// Reads the limits of this process.
    pub fn read() -> HostLimits {
        let open_files = std::fs::read_to_string("/proc/self/limits")
            .ok()
            .and_then(|limits| {
                let line = limits.lines().find(|l| l.starts_with("Max open files"))?;
                let mut f = line["Max open files".len()..].split_whitespace();
                let mut next = || match f.next()? {
                    "unlimited" => Some(u64::MAX),
                    v => v.parse().ok(),
                };
                Some((next()?, next()?))
            });
        let max_map_count = std::fs::read_to_string("/proc/sys/vm/max_map_count")
            .ok()
            .and_then(|v| v.trim().parse().ok());
        HostLimits {
            open_files,
            max_map_count,
        }
    }

    /// How many sessions a front may retain within these limits, at most
    /// `cap`: each holds a socket and two thread stacks.
    pub fn session_budget(&self, cap: usize) -> usize {
        let mut budget = cap as u64;
        if let Some((soft, _)) = self.open_files {
            budget = budget.min(soft.saturating_sub(Self::FD_RESERVE));
        }
        if let Some(maps) = self.max_map_count {
            budget = budget.min(maps.saturating_sub(Self::MAP_RESERVE) / Self::MAPS_PER_SESSION);
        }
        budget as usize
    }
}

impl std::fmt::Display for HostLimits {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self.open_files {
            Some((soft, hard)) => write!(f, "open files soft {soft}, hard {hard}")?,
            None => write!(f, "open files unknown")?,
        }
        match self.max_map_count {
            Some(maps) => write!(f, "; vm.max_map_count {maps}"),
            None => write!(f, "; vm.max_map_count unknown"),
        }
    }
}

/// Hands heap pages freed by the database build back to the kernel, so
/// that how much build garbage the allocator happened to keep does not
/// show up as serving memory. A no-op where the C library has no
/// `malloc_trim`.
#[cfg(all(target_os = "linux", target_env = "gnu"))]
pub fn release_free_heap() {
    extern "C" {
        fn malloc_trim(pad: usize) -> i32;
    }
    // SAFETY: glibc's `malloc_trim` takes a plain byte count, touches only
    // the allocator's own free lists, and is safe to call at any time from
    // any thread.
    unsafe {
        malloc_trim(0);
    }
}

#[cfg(not(all(target_os = "linux", target_env = "gnu")))]
pub fn release_free_heap() {}

/// A named measurement with its unit.
#[derive(Debug, Clone)]
pub struct Metric {
    /// Metric name, as listed in `BENCHMARK.json`.
    pub name: String,
    /// Unit string (`ms`, `s`, `count`, ...).
    pub unit: &'static str,
    /// The value as measured.
    pub value: f64,
}

impl Metric {
    /// Shorthand constructor.
    pub fn new(name: impl Into<String>, unit: &'static str, value: f64) -> Self {
        Metric {
            name: name.into(),
            unit,
            value,
        }
    }
}

/// Renders the result line:
/// `{"correct":..,"attempted":..,"failed":..,"metrics":{name:{"value":..,"unit":..}}}`.
/// Non-finite values are rendered as `null`; the command line reports such
/// a run as not correct.
pub fn result_json(correct: bool, attempted: u64, failed: u64, metrics: &[Metric]) -> String {
    let mut s = format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{"
    );
    for (i, m) in metrics.iter().enumerate() {
        if i > 0 {
            s.push_str(", ");
        }
        let value = if m.value.is_finite() {
            format!("{}", m.value)
        } else {
            "null".to_string()
        };
        let _ = write!(
            s,
            "\"{}\": {{\"value\": {value}, \"unit\": \"{}\"}}",
            m.name, m.unit
        );
    }
    s.push_str("}}");
    s
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_percentiles() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&v, 50.0), 50.0);
        assert_eq!(percentile(&v, 99.0), 99.0);
        assert_eq!(percentile(&v, 100.0), 100.0);
        assert_eq!(samples_beyond(&v, 99.0), 1);
        assert!(percentile(&[], 50.0).is_nan());
    }

    #[test]
    fn json_line_shape() {
        let line = result_json(true, 3, 0, &[Metric::new("a_ms", "ms", 1.25)]);
        assert_eq!(
            line,
            "{\"correct\": true, \"attempted\": 3, \"failed\": 0, \"metrics\": \
             {\"a_ms\": {\"value\": 1.25, \"unit\": \"ms\"}}}"
        );
    }

    #[test]
    fn session_budget_stays_inside_every_limit() {
        let unknown = HostLimits {
            open_files: None,
            max_map_count: None,
        };
        assert_eq!(unknown.session_budget(10_000), 10_000);
        let tight = HostLimits {
            open_files: Some((1024, 4096)),
            max_map_count: Some(65_530),
        };
        assert_eq!(tight.session_budget(10_000), 1024 - 256);
        let few_maps = HostLimits {
            open_files: Some((u64::MAX, u64::MAX)),
            max_map_count: Some(8192),
        };
        assert_eq!(few_maps.session_budget(10_000), (8192 - 4096) / 4);
        assert!(HostLimits::read().to_string().contains("open files"));
    }

    #[test]
    fn reads_own_memory() {
        assert!(proc_status_kb("VmRSS").unwrap() > 0);
        assert!(proc_status_kb("VmHWM").unwrap() > 0);
    }
}
