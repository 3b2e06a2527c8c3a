//! `vsgm-perfbench` — end-to-end and per-layer benchmark of the
//! `vsgm-server` daemon.
//!
//! ```text
//! vsgm-perfbench --workload <pairs_tcp|octet_fanout|join_churn> \
//!                --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! One generator thread drives one workload, checks every output the
//! program produced, and prints a JSON object as its last line: with
//! `--trace 0` the end-to-end metrics, with `--trace 1` the per-layer
//! metrics of a traced run. The exit code is nonzero when any output
//! check fails. See README.md for the workloads and metrics.

mod check;
mod pairs;
mod pool;
mod replay;
mod report;
mod span;
mod wire;

use report::{median, tail, ChunkFigures, Outcome};
use span::Tracer;
use std::time::{Duration, Instant};

pub struct Args {
    pub workload: String,
    pub seed: u64,
    pub seconds: u64,
    pub trace: bool,
}

/// Groups in every workload.
pub const GROUPS: u64 = 64;
/// Process ids a group can hold (the daemon's default capacity).
pub const CAPACITY: u64 = 16;

/// Shards of the daemon or pool: the host's core count.
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// The end-to-end measurements of one run.
pub struct E2e {
    /// Seconds each set-up took, the first from process start.
    pub setup_s: Vec<f64>,
    pub timed: ChunkFigures,
    /// Rate and median latency of the join phase of each set-up, for the
    /// workloads whose timed phase changes no view.
    pub setup_changes: Option<(Vec<f64>, Vec<f64>)>,
}

impl E2e {
    /// Adds the end-to-end metrics: as the result's metrics in an
    /// untraced run, as report lines in a traced one.
    pub fn emit(&self, traced: bool, out: &mut Outcome) {
        let m = tail(&self.timed.mcast_us);
        let (changes_per_s, change_p50_us, changes_from) = match &self.setup_changes {
            Some((rates, p50s)) => (
                median(rates),
                median(p50s),
                "the join phases of the set-ups",
            ),
            None => (
                self.timed.changes_per_s,
                self.timed.change_p50_us,
                "the timed phase",
            ),
        };
        // The figures in BENCHMARK.json: those that two sets of runs on a
        // shared 2-core host hold within their bounds (README.md).
        let gated = [
            ("setup_s", median(&self.setup_s), "s"),
            ("cpu_us_per_op", self.timed.cpu_us_per_op, "us"),
            ("rss_mb", report::peak_rss_mib(), "MiB"),
        ];
        // Wall-clock figures that hypervisor steal on such a host moves
        // by more than any bound: printed, not gated.
        let reported = [
            ("throughput_mcast_s", self.timed.mcast_per_s, "mcast/s"),
            ("latency_p50_us", self.timed.mcast_p50_us, "us"),
            ("latency_p99_us", m.tail, "us"),
            ("view_changes_s", changes_per_s, "changes/s"),
            ("view_change_p50_us", change_p50_us, "us"),
        ];
        for (name, value, unit) in reported {
            out.lines.push(format!("{name}={value} {unit}"));
        }
        out.lines.push(format!(
            "latency_p99_us is p{} of {} multicasts (median over {} runs of them); \
             view changes from {changes_from}; setup_s is the median of {} set-ups",
            m.tail_pct,
            m.n,
            m.runs,
            self.setup_s.len()
        ));
        out.lines.push(self.timed.per_chunk.clone());
        for (name, value, unit) in gated {
            if traced {
                out.lines.push(format!("traced {name}={value} {unit}"));
            } else {
                out.metric(name, value, unit);
            }
        }
    }
}

/// Prints the per-layer table and the tracing overhead, adds the
/// process metrics, and writes the spans out.
pub fn finish_trace(args: &Args, tr: &Tracer, timed: Duration, out: &mut Outcome) {
    out.metric("proc.threads", out.threads as f64, "threads");
    out.lines
        .push("layer                      count       busy_ms       self_ms".into());
    for (name, t) in tr.totals() {
        out.lines.push(format!(
            "{name:<24} {:>7} {:>13.3} {:>13.3}",
            t.count,
            t.busy_ns as f64 / 1e6,
            t.self_ns as f64 / 1e6
        ));
    }
    let timed_spans = tr.spans.len() as f64;
    let cost = crate::span::record_cost_ns();
    out.lines.push(format!(
        "tracing overhead: {} spans at {cost:.1} ns each, {:.3}% of the timed phase (upper bound; the traced e2e lines above compare with an untraced run)",
        tr.spans.len(),
        100.0 * timed_spans * cost / timed.as_nanos().max(1) as f64
    ));
    let path = std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("out")
        .join(format!("spans-{}-{}.tsv", args.workload, args.seed));
    match tr.write(&path) {
        Ok(()) => out
            .lines
            .push(format!("spans written to {}", path.display())),
        Err(e) => out.lines.push(format!("spans not written: {e}")),
    }
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: String::new(),
        seed: 0,
        seconds: 0,
        trace: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let num = || {
            value
                .parse::<u64>()
                .map_err(|_| format!("{flag}: not a number: {value}"))
        };
        match flag.as_str() {
            "--workload" => args.workload = value.clone(),
            "--seed" => args.seed = num()?,
            "--seconds" => args.seconds = num()?,
            "--trace" => args.trace = num()? != 0,
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    if args.workload.is_empty() || args.seconds == 0 {
        return Err("--workload and --seconds are required".into());
    }
    Ok(args)
}

fn json_escape(s: &str) -> String {
    s.replace('\\', "\\\\").replace('"', "\\\"")
}

fn main() {
    let t0 = Instant::now();
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("{e}\nusage: vsgm-perfbench --workload <pairs_tcp|octet_fanout|join_churn> --seed <n> --seconds <s> --trace <0|1>");
            std::process::exit(2);
        }
    };
    if let Err(e) = check::self_test() {
        eprintln!("output checker self-test failed: {e}");
        std::process::exit(1);
    }
    let result = match args.workload.as_str() {
        "pairs_tcp" => pairs::run(&args, t0),
        "octet_fanout" => pool::run(&args, t0, pool::Shape::Octet),
        "join_churn" => pool::run(&args, t0, pool::Shape::Churn),
        other => Err(format!("unknown workload {other}")),
    };
    let out = match result {
        Ok(out) => out,
        Err(e) => {
            eprintln!("run failed: {e}");
            std::process::exit(1);
        }
    };
    println!(
        "workload={} seed={} seconds={} trace={} nproc={} threads={} attempted={} failed={}",
        args.workload,
        args.seed,
        args.seconds,
        u8::from(args.trace),
        nproc(),
        out.threads,
        out.attempted,
        out.failed
    );
    for line in &out.lines {
        println!("{line}");
    }
    for e in &out.errors {
        eprintln!("CHECK FAILED: {e}");
    }
    let correct = out.errors.is_empty();
    let metrics: Vec<String> = out
        .metrics
        .iter()
        .map(|m| {
            format!(
                "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                json_escape(&m.name),
                m.value,
                m.unit
            )
        })
        .collect();
    println!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        out.attempted,
        out.failed,
        metrics.join(", ")
    );
    if !correct {
        std::process::exit(1);
    }
}
