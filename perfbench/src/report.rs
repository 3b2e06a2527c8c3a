//! Metric values, sample statistics and process readings.

use std::time::{Duration, Instant};

/// One named metric with its unit.
pub struct Metric {
    pub name: String,
    pub value: f64,
    pub unit: &'static str,
}

/// What a workload run hands back to `main`.
#[derive(Default)]
pub struct Outcome {
    /// Ops the timed phase attempted.
    pub attempted: u64,
    /// Ops that did not complete.
    pub failed: u64,
    /// Failed output checks.
    pub errors: Vec<String>,
    /// The metrics of the final JSON line.
    pub metrics: Vec<Metric>,
    /// Report lines printed above the JSON line.
    pub lines: Vec<String>,
    /// Process threads while the timed phase ran.
    pub threads: u64,
}

impl Outcome {
    pub fn metric(&mut self, name: &str, value: f64, unit: &'static str) {
        self.metrics.push(Metric {
            name: name.to_string(),
            value,
            unit,
        });
    }
}

/// Nearest-rank percentile of sorted samples.
fn rank(sorted: &[f64], q: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let i = ((q * sorted.len() as f64).ceil() as usize).clamp(1, sorted.len()) - 1;
    sorted[i]
}

/// The median of `v`.
pub fn median(v: &[f64]) -> f64 {
    let mut s = v.to_vec();
    s.sort_by(f64::total_cmp);
    rank(&s, 0.5)
}

/// The mean of `v` (0 when empty).
pub fn mean(v: &[f64]) -> f64 {
    if v.is_empty() {
        0.0
    } else {
        v.iter().sum::<f64>() / v.len() as f64
    }
}

/// The highest percentile of latency samples that still has at least
/// ten samples beyond it: p99 from 1000 samples up. With more samples,
/// the samples (in completion order) are cut into up to ten runs of at
/// least 1000, and the median of the runs' p99 is reported, so one burst
/// of interference moves one run's tail rather than the figure.
pub struct Tail {
    pub tail: f64,
    pub tail_pct: f64,
    pub n: usize,
    pub runs: usize,
}

pub fn tail(samples: &[f64]) -> Tail {
    let n = samples.len();
    if n < 1000 {
        let mut s = samples.to_vec();
        s.sort_by(f64::total_cmp);
        let tail_pct = if n > 10 {
            (100.0 * (n - 10) as f64 / n as f64).floor()
        } else {
            50.0
        };
        return Tail {
            tail: rank(&s, tail_pct / 100.0),
            tail_pct,
            n,
            runs: 1,
        };
    }
    let runs = (n / 1000).min(10);
    let len = n / runs;
    let p99s: Vec<f64> = samples
        .chunks(len)
        .take(runs)
        .map(|run| {
            let mut s = run.to_vec();
            s.sort_by(f64::total_cmp);
            rank(&s, 0.99)
        })
        .collect();
    Tail {
        tail: median(&p99s),
        tail_pct: 99.0,
        n,
        runs,
    }
}

/// A field of `/proc/self/status` in its own unit (kB for memory).
pub fn proc_status(key: &str) -> u64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix(key)?.strip_prefix(':'))
        .and_then(|v| v.split_whitespace().next()?.parse().ok())
        .unwrap_or(0)
}

/// The host's stolen and total CPU ticks so far (`/proc/stat`): the
/// time a hypervisor ran other guests on this guest's CPUs.
pub fn steal_ticks() -> (u64, u64) {
    let stat = std::fs::read_to_string("/proc/stat").unwrap_or_default();
    let ticks: Vec<u64> = stat
        .lines()
        .next()
        .unwrap_or_default()
        .split_whitespace()
        .skip(1)
        .filter_map(|t| t.parse().ok())
        .collect();
    (ticks.get(7).copied().unwrap_or(0), ticks.iter().sum())
}

pub fn threads() -> u64 {
    proc_status("Threads")
}

pub fn peak_rss_mib() -> f64 {
    proc_status("VmHWM") as f64 / 1024.0
}

pub fn us(d: Duration) -> f64 {
    d.as_secs_f64() * 1e6
}

pub fn us_since(t: Instant, now: Instant) -> f64 {
    us(now.saturating_duration_since(t))
}

/// A splitmix64 step: the benchmark's only source of input variety,
/// keyed by the seed and the position of the value in the workload, so
/// the same seed gives the same inputs whatever the timing.
pub fn mix(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^ (x >> 31)
}

pub fn hash(parts: &[u64]) -> u64 {
    parts.iter().fold(0x5EED_u64, |h, p| mix(h ^ p))
}

/// The multicast payload: the op id the checker matches deliveries by,
/// then filler drawn from the seed and the op's place in the workload.
pub const PAYLOAD_BYTES: usize = 64;

pub fn payload(op: u64, key: &[u64]) -> Vec<u8> {
    let mut out = Vec::with_capacity(PAYLOAD_BYTES);
    out.extend_from_slice(&op.to_le_bytes());
    let mut h = hash(key);
    while out.len() < PAYLOAD_BYTES {
        h = mix(h);
        out.extend_from_slice(&h.to_le_bytes());
    }
    out.truncate(PAYLOAD_BYTES);
    out
}

pub fn payload_op(bytes: &[u8]) -> Option<u64> {
    Some(u64::from_le_bytes(bytes.get(..8)?.try_into().ok()?))
}

/// The timed phase cut into chunks of equal op counts. Rates and median
/// latencies are taken per chunk and reported as their median over the
/// chunks, so a burst of interference from outside the process moves one
/// chunk rather than the run's figure. CPU per op is the whole phase's
/// process CPU over its ops, so no cost escapes it; its per-chunk values
/// are only printed.
pub struct Chunks {
    bounds: Vec<u64>,
    /// Wall clock, process CPU and host (steal, total) ticks at each
    /// boundary reached.
    marks: Vec<(Instant, Duration, (u64, u64))>,
    mcasts: Vec<Vec<f64>>,
    changes: Vec<Vec<f64>>,
}

/// What the chunks give.
pub struct ChunkFigures {
    pub mcast_per_s: f64,
    pub mcast_p50_us: f64,
    pub changes_per_s: f64,
    pub change_p50_us: f64,
    pub cpu_us_per_op: f64,
    /// The per-chunk figures, as a report line.
    pub per_chunk: String,
    /// Every multicast latency, for the pooled tail.
    pub mcast_us: Vec<f64>,
    pub changes: usize,
}

impl Chunks {
    pub const COUNT: usize = 10;

    /// Chunks of a phase of `total` ops starting now.
    pub fn start(total: u64) -> Chunks {
        let n = Self::COUNT as u64;
        let bounds = (0..=n).map(|i| (i * total).div_ceil(n)).collect();
        Chunks {
            bounds,
            marks: vec![(Instant::now(), crate::wire::cpu_time(), steal_ticks())],
            mcasts: vec![Vec::new(); Self::COUNT],
            changes: vec![Vec::new(); Self::COUNT],
        }
    }

    fn current(&self) -> usize {
        (self.marks.len() - 1).min(Self::COUNT - 1)
    }

    /// A multicast completed `us` after it was sent.
    pub fn mcast(&mut self, us: f64) {
        let i = self.current();
        self.mcasts[i].push(us);
    }

    /// A view change completed `us` after it was issued.
    pub fn change(&mut self, us: f64) {
        let i = self.current();
        self.changes[i].push(us);
    }

    /// `completed` ops have completed; closes every chunk that ends
    /// there.
    pub fn ops_done(&mut self, completed: u64) {
        while self
            .bounds
            .get(self.marks.len())
            .is_some_and(|b| completed >= *b)
        {
            self.marks
                .push((Instant::now(), crate::wire::cpu_time(), steal_ticks()));
        }
    }

    /// Process CPU from the start of the phase to the last chunk
    /// boundary reached, over the ops up to that boundary.
    fn cpu_us_per_op(&self) -> f64 {
        let (first, last) = (&self.marks[0], &self.marks[self.marks.len() - 1]);
        let ops = self.bounds[self.marks.len() - 1].max(1) as f64;
        us(last.1.saturating_sub(first.1)) / ops
    }

    pub fn figures(&self) -> ChunkFigures {
        let mut mcast_rate = Vec::new();
        let mut change_rate = Vec::new();
        let mut cpu = Vec::new();
        let mut mcast_p50 = Vec::new();
        let mut change_p50 = Vec::new();
        let mut steal = Vec::new();
        for (i, w) in self.marks.windows(2).enumerate() {
            let (ds, dt) = (w[1].2 .0 - w[0].2 .0, w[1].2 .1 - w[0].2 .1);
            steal.push(ds as f64 / dt.max(1) as f64);
            let secs = w[1]
                .0
                .saturating_duration_since(w[0].0)
                .as_secs_f64()
                .max(1e-9);
            let ops = (self.bounds[i + 1] - self.bounds[i]).max(1) as f64;
            mcast_rate.push(self.mcasts[i].len() as f64 / secs);
            change_rate.push(self.changes[i].len() as f64 / secs);
            cpu.push(us(w[1].1.saturating_sub(w[0].1)) / ops);
            if !self.mcasts[i].is_empty() {
                mcast_p50.push(median(&self.mcasts[i]));
            }
            if !self.changes[i].is_empty() {
                change_p50.push(median(&self.changes[i]));
            }
        }
        ChunkFigures {
            mcast_per_s: median(&mcast_rate),
            mcast_p50_us: median(&mcast_p50),
            changes_per_s: median(&change_rate),
            change_p50_us: median(&change_p50),
            cpu_us_per_op: self.cpu_us_per_op(),
            per_chunk: format!(
                "per chunk: mcast/s {:.0?} cpu us/op {:.1?} host steal {:.3?}",
                mcast_rate, cpu, steal
            ),
            mcast_us: self.mcasts.concat(),
            changes: self.changes.iter().map(Vec::len).sum(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tail_has_ten_samples_beyond_it() {
        let v: Vec<f64> = (1..=2000).map(f64::from).collect();
        let t = tail(&v);
        // Two runs of 1000: p99s 990 and 1990, median (nearest rank) 990.
        assert_eq!((t.tail_pct, t.tail, t.runs), (99.0, 990.0, 2));
        let v: Vec<f64> = (1..=999).map(f64::from).collect();
        assert_eq!(tail(&v).tail_pct, 98.0);
        let v: Vec<f64> = (1..=200).map(f64::from).collect();
        let t = tail(&v);
        assert_eq!(t.tail_pct, 95.0);
        assert!(v.iter().filter(|x| **x > t.tail).count() >= 10);
    }

    #[test]
    fn payload_carries_its_op_and_depends_on_its_key() {
        let p = payload(42, &[1, 2]);
        assert_eq!(p.len(), PAYLOAD_BYTES);
        assert_eq!(payload_op(&p), Some(42));
        assert_eq!(p, payload(42, &[1, 2]));
        assert_ne!(p, payload(42, &[1, 3]));
    }
}
