//! Order statistics, the tail-percentile rule, the metric-name grammar,
//! `/proc/stat` steal accounting, and the seeded Poisson arrival schedule.

/// Median of `xs` (mean of the two middle values for even lengths); NaN
/// when empty.
pub fn median(xs: &[f64]) -> f64 {
    let s = sorted(xs);
    let n = s.len();
    match n {
        0 => f64::NAN,
        _ if n % 2 == 1 => s[n / 2],
        _ => (s[n / 2 - 1] + s[n / 2]) / 2.0,
    }
}

/// Quartiles `(q1, q2, q3)` by the same rule as Python's
/// `statistics.quantiles(xs, n=4)` (the default "exclusive" method), the
/// rule by which the run-to-run spread of a metric (interquartile range over
/// median) is judged. `None` for fewer than two values.
pub fn quartiles(xs: &[f64]) -> Option<(f64, f64, f64)> {
    let s = sorted(xs);
    let ld = s.len();
    if ld < 2 {
        return None;
    }
    let m = ld + 1;
    let q = |i: usize| {
        let j = (i * m / 4).clamp(1, ld - 1);
        let delta = (i * m) as f64 - (j * 4) as f64;
        (s[j - 1] * (4.0 - delta) + s[j] * delta) / 4.0
    };
    Some((q(1), q(2), q(3)))
}

/// Nearest-rank percentile `p` (0–100) of `xs`; NaN when empty.
pub fn percentile(xs: &[f64], p: f64) -> f64 {
    let s = sorted(xs);
    if s.is_empty() {
        return f64::NAN;
    }
    let rank = ((p / 100.0) * s.len() as f64).ceil() as usize;
    s[rank.clamp(1, s.len()) - 1]
}

/// Percentiles a tail latency may be reported at, highest last.
const TAIL_PERCENTILES: [f64; 5] = [50.0, 90.0, 95.0, 99.0, 99.9];

/// The highest percentile in [`TAIL_PERCENTILES`] that has at least ten of
/// `n` samples beyond it, so a reported tail always rests on ten or more
/// observations. `None` when not even the median qualifies (`n < 20`).
pub fn tail_percentile(n: usize) -> Option<f64> {
    TAIL_PERCENTILES
        .iter()
        .rev()
        .copied()
        .find(|p| n as f64 * (1.0 - p / 100.0) >= 10.0 - 1e-6)
}

/// Samples needed before percentile `p` has ten samples beyond it.
pub fn samples_for_percentile(p: f64) -> usize {
    (10.0 / (1.0 - p / 100.0) - 1e-6).ceil() as usize
}

/// Whether `name` is a legal metric name: 1–64 characters from
/// `[A-Za-z0-9_.-]`, starting with a letter or digit.
pub fn valid_metric_name(name: &str) -> bool {
    let b = name.as_bytes();
    !b.is_empty()
        && b.len() <= 64
        && b[0].is_ascii_alphanumeric()
        && b.iter()
            .all(|&c| c.is_ascii_alphanumeric() || matches!(c, b'_' | b'.' | b'-'))
}

/// Aggregate CPU jiffies from the `cpu` line of `/proc/stat`.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct CpuTimes {
    /// Time the hypervisor ran other guests while this one wanted the CPU.
    pub steal: u64,
    /// user + nice + system + idle + iowait + irq + softirq + steal (guest
    /// time is already counted inside user and nice).
    pub total: u64,
}

/// Parse the aggregate `cpu ` line of a `/proc/stat` text. `None` when the
/// line is missing or has fewer than the eight fields up to `steal`.
pub fn parse_cpu_times(proc_stat: &str) -> Option<CpuTimes> {
    let line = proc_stat.lines().find(|l| l.starts_with("cpu "))?;
    let fields: Vec<u64> = line
        .split_whitespace()
        .skip(1)
        .map(|f| f.parse().ok())
        .collect::<Option<_>>()?;
    if fields.len() < 8 {
        return None;
    }
    Some(CpuTimes {
        steal: fields[7],
        total: fields[..8].iter().sum(),
    })
}

/// Steal time between two samples as a percentage of all CPU time between
/// them; 0 when no time elapsed.
pub fn steal_pct(before: CpuTimes, after: CpuTimes) -> f64 {
    let total = after.total.saturating_sub(before.total);
    if total == 0 {
        return 0.0;
    }
    100.0 * after.steal.saturating_sub(before.steal) as f64 / total as f64
}

/// SplitMix64: a small seeded generator for arrival schedules, independent of
/// the program's own PRNG so a change there cannot move the offered load.
struct SplitMix64(u64);

impl SplitMix64 {
    fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `[0, 1)` with 53 bits of precision.
    fn uniform(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }
}

/// Send offsets in seconds from the start of an open-loop phase: `count`
/// arrivals of a Poisson process at `rate` per second (exponential gaps),
/// the same for the same `seed`.
pub fn poisson_schedule(seed: u64, rate: f64, count: usize) -> Vec<f64> {
    assert!(rate > 0.0, "arrival rate must be positive");
    let mut rng = SplitMix64(seed);
    let mut t = 0.0;
    (0..count)
        .map(|_| {
            t += -(1.0 - rng.uniform()).ln() / rate;
            t
        })
        .collect()
}

fn sorted(xs: &[f64]) -> Vec<f64> {
    let mut s = xs.to_vec();
    s.sort_by(f64::total_cmp);
    s
}
