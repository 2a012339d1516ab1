//! Order statistics and the process's own resource counters.

use std::time::Instant;

/// Nearest-rank percentile of `sorted` (ascending): the smallest sample
/// with at least `p` of the samples at or below it.
pub fn percentile(sorted: &[f64], p: f64) -> f64 {
    assert!(!sorted.is_empty(), "percentile of no samples");
    let rank = (p * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// Ascending copy of `xs`.
pub fn sorted(xs: &[f64]) -> Vec<f64> {
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

/// Median of `xs` (mean of the two middle samples for an even count).
pub fn median(xs: &[f64]) -> f64 {
    let v = sorted(xs);
    assert!(!v.is_empty(), "median of no samples");
    let mid = v.len() / 2;
    if v.len() % 2 == 1 {
        v[mid]
    } else {
        (v[mid - 1] + v[mid]) / 2.0
    }
}

/// First and third quartile as Python's `statistics.quantiles(xs, n=4)`
/// gives them (the exclusive method), so spreads printed here can be
/// compared with the ones the benchmark contract computes. One sample is
/// its own quartiles.
pub fn quartiles(xs: &[f64]) -> (f64, f64) {
    let v = sorted(xs);
    let n = v.len();
    assert!(n > 0, "quartiles of no samples");
    if n == 1 {
        return (v[0], v[0]);
    }
    let cut = |i: usize| {
        let j = (i * (n + 1) / 4).clamp(1, n - 1);
        let delta = (i * (n + 1)) as f64 - (j * 4) as f64;
        (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0
    };
    (cut(1), cut(3))
}

/// `(q3 − q1) / median`: the spread the contract bounds.
pub fn spread(xs: &[f64]) -> f64 {
    let (q1, q3) = quartiles(xs);
    let m = median(xs);
    if m == 0.0 {
        0.0
    } else {
        (q3 - q1) / m.abs()
    }
}

/// User and system CPU seconds of the whole process (all threads, living
/// and joined), from `/proc/self/stat`.
#[derive(Debug, Clone, Copy, Default)]
pub struct CpuTimes {
    /// Seconds in user mode.
    pub user: f64,
    /// Seconds in kernel mode.
    pub sys: f64,
}

impl CpuTimes {
    /// Reads the counters now. Zero when `/proc` is unreadable.
    pub fn now() -> CpuTimes {
        std::fs::read_to_string("/proc/self/stat")
            .ok()
            .and_then(|s| parse_stat(&s))
            .unwrap_or_default()
    }

    /// Counters accumulated since `earlier`.
    pub fn since(self, earlier: CpuTimes) -> CpuTimes {
        CpuTimes {
            user: self.user - earlier.user,
            sys: self.sys - earlier.sys,
        }
    }

    /// User plus system seconds.
    pub fn total(self) -> f64 {
        self.user + self.sys
    }
}

/// Linux reports process times in `USER_HZ` ticks, which is 100 on every
/// architecture the kernel supports.
const TICKS_PER_SEC: f64 = 100.0;

/// Fields 14 and 15 (utime, stime) of a `/proc/<pid>/stat` line. The
/// command name (field 2) may contain spaces, so fields are counted from
/// the closing parenthesis.
fn parse_stat(line: &str) -> Option<CpuTimes> {
    let rest = &line[line.rfind(')')? + 1..];
    let mut fields = rest.split_ascii_whitespace();
    let utime: f64 = fields.nth(11)?.parse().ok()?;
    let stime: f64 = fields.next()?.parse().ok()?;
    Some(CpuTimes {
        user: utime / TICKS_PER_SEC,
        sys: stime / TICKS_PER_SEC,
    })
}

/// Peak resident set of this process in MiB (`VmHWM`), 0 when unreadable.
pub fn peak_rss_mib() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| parse_vm_hwm_kib(&s))
        .map_or(0.0, |kib| kib / 1024.0)
}

fn parse_vm_hwm_kib(status: &str) -> Option<f64> {
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    line.split_ascii_whitespace().nth(1)?.parse().ok()
}

/// A fixed amount of single-threaded arithmetic, timed: the box's speed
/// right now. Two probes around a run that disagree mean something else
/// was using the machine. The median of three spins, so that neither one
/// preemption nor one burst with an idle sibling core reads as a change.
pub fn spin_probe_ms() -> f64 {
    let spin = || {
        let t = Instant::now();
        let mut x = 0x9E37_79B9_7F4A_7C15u64;
        for _ in 0..10_000_000u32 {
            // Opaque per step, or the compiler folds the recurrence.
            x = std::hint::black_box(x)
                .wrapping_mul(6_364_136_223_846_793_005)
                .wrapping_add(1_442_695_040_888_963_407);
        }
        t.elapsed().as_secs_f64() * 1e3
    };
    median(&[spin(), spin(), spin()])
}

/// Whether two spin probes differ by more than a tenth of the faster one.
pub fn probes_disagree(before_ms: f64, after_ms: f64) -> bool {
    let (lo, hi) = if before_ms < after_ms {
        (before_ms, after_ms)
    } else {
        (after_ms, before_ms)
    };
    hi > lo * 1.10
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_is_nearest_rank() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&v, 0.50), 50.0);
        assert_eq!(percentile(&v, 0.95), 95.0);
        assert_eq!(percentile(&v, 0.99), 99.0);
        assert_eq!(percentile(&v, 1.0), 100.0);
        // 20 samples: exactly one sample lies beyond the p95.
        let w: Vec<f64> = (1..=20).map(f64::from).collect();
        assert_eq!(percentile(&w, 0.95), 19.0);
        assert_eq!(percentile(&[7.0], 0.95), 7.0);
        assert_eq!(percentile(&w, 0.0), 1.0);
    }

    #[test]
    fn median_handles_both_parities() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
    }

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1, 2, 3, 4, 5], n=4) == [1.5, 3.0, 4.5]
        assert_eq!(quartiles(&[5.0, 1.0, 4.0, 2.0, 3.0]), (1.5, 4.5));
        // statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
        let ten: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&ten), (2.75, 8.25));
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        assert_eq!(quartiles(&[1.0, 2.0]), (0.75, 2.25));
        assert!((spread(&ten) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn stat_line_with_spaces_in_the_name_parses() {
        let line = "42 (a b) c) R 1 1 1 0 -1 4194560 100 0 0 0 250 50 0 0 20 0 9 0 1 2 3";
        let cpu = parse_stat(line).unwrap();
        assert_eq!(cpu.user, 2.5);
        assert_eq!(cpu.sys, 0.5);
        assert!((cpu.total() - 3.0).abs() < 1e-12);
    }

    #[test]
    fn vm_hwm_parses_from_status() {
        let status = "Name:\tperf\nVmPeak:\t  999 kB\nVmHWM:\t   20480 kB\nVmRSS:\t 1 kB\n";
        assert_eq!(parse_vm_hwm_kib(status), Some(20480.0));
        assert!(peak_rss_mib() > 0.0, "this process has a resident set");
    }

    #[test]
    fn probes_disagree_beyond_ten_percent() {
        assert!(!probes_disagree(20.0, 21.9));
        assert!(probes_disagree(20.0, 22.1));
        assert!(probes_disagree(22.1, 20.0));
    }
}
