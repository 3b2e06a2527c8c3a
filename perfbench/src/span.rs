//! Spans recorded around the benchmark's calls into each layer.
//!
//! A span has a name, a start, an end, the span that caused it and the
//! op it belongs to. Spans stay in memory and are written out when the
//! run ends. When tracing is off, nothing is recorded and [`Tracer::time`]
//! is a plain call.

use std::collections::BTreeMap;
use std::io::Write;
use std::time::Instant;

/// No parent span.
pub const NONE: u32 = u32::MAX;
/// No op.
pub const NO_OP: u64 = u64::MAX;

pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: u32,
    pub op: u64,
}

pub struct Tracer {
    pub on: bool,
    origin: Instant,
    pub spans: Vec<Span>,
}

/// A layer's share of the traced run.
pub struct LayerTotals {
    pub count: u64,
    pub busy_ns: u64,
    pub self_ns: u64,
}

impl Tracer {
    pub fn new(on: bool) -> Tracer {
        Tracer {
            on,
            origin: Instant::now(),
            spans: Vec::new(),
        }
    }

    /// Records a span that ran from `start` to `end`; returns its id.
    pub fn record(
        &mut self,
        name: &'static str,
        start: Instant,
        end: Instant,
        parent: u32,
        op: u64,
    ) -> u32 {
        if !self.on {
            return NONE;
        }
        let ns = |t: Instant| t.saturating_duration_since(self.origin).as_nanos() as u64;
        self.spans.push(Span {
            name,
            start_ns: ns(start),
            end_ns: ns(end),
            parent,
            op,
        });
        (self.spans.len() - 1) as u32
    }

    /// Times `f` as a span when tracing is on.
    pub fn time<T>(
        &mut self,
        name: &'static str,
        parent: u32,
        op: u64,
        f: impl FnOnce() -> T,
    ) -> T {
        if !self.on {
            return f();
        }
        let start = Instant::now();
        let out = f();
        self.record(name, start, Instant::now(), parent, op);
        out
    }

    /// Durations of every span called `name`, in nanoseconds.
    pub fn durations(&self, name: &str) -> Vec<f64> {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| (s.end_ns - s.start_ns) as f64)
            .collect()
    }

    /// Count, busy time and self time per span name. Self time is a
    /// span's duration less the part its child spans cover.
    pub fn totals(&self) -> BTreeMap<&'static str, LayerTotals> {
        let mut child_ns = vec![0u64; self.spans.len()];
        for s in &self.spans {
            if let Some(c) = child_ns.get_mut(s.parent as usize) {
                *c += s.end_ns - s.start_ns;
            }
        }
        let mut out: BTreeMap<&'static str, LayerTotals> = BTreeMap::new();
        for (s, child) in self.spans.iter().zip(child_ns) {
            let dur = s.end_ns - s.start_ns;
            let t = out.entry(s.name).or_insert(LayerTotals {
                count: 0,
                busy_ns: 0,
                self_ns: 0,
            });
            t.count += 1;
            t.busy_ns += dur;
            t.self_ns += dur - child.min(dur);
        }
        out
    }

    /// Writes every span as a tab-separated line.
    pub fn write(&self, path: &std::path::Path) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut f = std::io::BufWriter::new(std::fs::File::create(path)?);
        writeln!(f, "id\tname\tstart_ns\tend_ns\tparent\top")?;
        for (i, s) in self.spans.iter().enumerate() {
            let parent = if s.parent == NONE {
                "-".to_string()
            } else {
                s.parent.to_string()
            };
            let op = if s.op == NO_OP {
                "-".to_string()
            } else {
                s.op.to_string()
            };
            writeln!(
                f,
                "{i}\t{}\t{}\t{}\t{parent}\t{op}",
                s.name, s.start_ns, s.end_ns
            )?;
        }
        f.flush()
    }
}

/// Nanoseconds one span costs to record, measured on this host; the
/// traced run multiplies it by its span count to estimate its own
/// tracing overhead.
pub fn record_cost_ns() -> f64 {
    let mut t = Tracer::new(true);
    let n = 100_000;
    let start = Instant::now();
    for i in 0..n {
        t.time("calibrate", NONE, i, || std::hint::black_box(i));
    }
    start.elapsed().as_nanos() as f64 / n as f64
}
