//! Single-thread replays of a workload's exact command stream, so each
//! call into `server::group`, `harness::sim`, `membership` and `spec`
//! can be timed by itself.
//!
//! A hosted group is a `GroupInstance` over a `Sim` of `capacity`
//! end-points, seeded by `group_seed`; replaying the commands a group
//! received, in the order it applied them, reproduces its trace exactly.
//! The replay checks that it does (same trace length as the live
//! group), times the group calls, then replays the stream on a bare
//! `Sim` without checkers for the membership calls and the simulated
//! network's traffic, and feeds that replay's trace to the spec checkers
//! as a checking `Sim` does, entry by entry, for the checkers' cost.

use crate::report::{mean, Outcome};
use crate::span::{Tracer, NONE, NO_OP};
use std::time::{Duration, Instant};
use vsgm_core::Config;
use vsgm_harness::{Sim, SimOptions};
use vsgm_server::{GroupCmd, GroupInstance};
use vsgm_spec::full_checks;
use vsgm_types::{AppMsg, GroupId, ProcSet, ProcessId};

/// One command a group applied.
#[derive(Clone)]
pub enum Cmd {
    Join(u64),
    Leave(u64),
    Send(u64, Vec<u8>),
}

/// The commands one group applied: the set-up part (joins) and the
/// timed part.
pub struct Stream {
    pub gid: u64,
    pub seed: u64,
    pub setup: Vec<Cmd>,
    pub timed: Vec<Cmd>,
    /// The live group's trace length when the timed phase ended.
    pub live_trace_len: usize,
}

fn group_cmd(c: &Cmd) -> GroupCmd {
    match c {
        Cmd::Join(m) => GroupCmd::Join(ProcessId::new(*m)),
        Cmd::Leave(m) => GroupCmd::Leave(ProcessId::new(*m)),
        Cmd::Send(from, bytes) => GroupCmd::Send {
            from: ProcessId::new(*from),
            msg: AppMsg::from(bytes.clone()),
        },
    }
}

fn replay_group(s: &Stream, capacity: u64, tr: &mut Tracer, errors: &mut Vec<String>) {
    let mut g = GroupInstance::new(GroupId::new(s.gid), capacity, s.seed);
    for c in s.setup.iter().chain(&s.timed) {
        let cmd = group_cmd(c);
        match c {
            Cmd::Send(..) => {
                tr.time("group.send", NONE, NO_OP, || g.apply(cmd));
                tr.time("group.quiesce", NONE, NO_OP, || g.run_to_quiescence());
            }
            Cmd::Join(_) => tr.time("group.join", NONE, NO_OP, || {
                g.apply(cmd);
                g.run_to_quiescence();
            }),
            Cmd::Leave(_) => tr.time("group.leave", NONE, NO_OP, || {
                g.apply(cmd);
                g.run_to_quiescence();
            }),
        }
        tr.time("group.drain", NONE, NO_OP, || g.drain_outputs());
    }
    let len = g.report().trace_len;
    if len != s.live_trace_len {
        errors.push(format!(
            "g{}: replayed trace has {len} entries, the hosted group {}",
            s.gid, s.live_trace_len
        ));
    }
}

/// Replays `s` on a bare `Sim` without checkers, as `GroupInstance`
/// drives it, recording the membership calls as spans; then runs the
/// spec checkers over the replay's trace. Returns the time the checkers
/// took over the timed part's entries.
///
/// The checkers are timed on their own because the difference between a
/// replay with them on and one with them off is smaller than the
/// replays' run-to-run noise on a shared host, and came out negative.
fn replay_sim(s: &Stream, capacity: u64, tr: &mut Tracer, out: &mut SimTotals) -> Duration {
    let opts = SimOptions {
        seed: s.seed,
        check: false,
        ..SimOptions::default()
    };
    let mut sim = Sim::new_paper(capacity as usize, Config::default(), opts);
    let mut members = ProcSet::new();
    let mut timed_from = 0;
    for (i, c) in s.setup.iter().chain(&s.timed).enumerate() {
        if i == s.setup.len() {
            sim.reset_net_stats();
            timed_from = sim.trace().entries().len();
        }
        let changed = match c {
            Cmd::Join(m) => members.insert(ProcessId::new(*m)),
            Cmd::Leave(m) => members.remove(&ProcessId::new(*m)) && !members.is_empty(),
            Cmd::Send(from, bytes) => {
                tr.time("sim.send", NONE, NO_OP, || {
                    sim.send(ProcessId::new(*from), AppMsg::from(bytes.clone()))
                });
                false
            }
        };
        if changed {
            tr.time("membership.start_change", NONE, NO_OP, || {
                sim.start_change(&members)
            });
            tr.time("membership.form_view", NONE, NO_OP, || {
                sim.form_view(&members)
            });
        }
        tr.time("sim.quiesce", NONE, NO_OP, || sim.run_to_quiescence());
    }
    for (tag, count, bytes) in sim.net().stats().rows() {
        let e = out.per_tag.entry(tag).or_insert((0, 0));
        e.0 += count;
        e.1 += bytes;
    }
    let entries = sim.trace().entries();
    let mut checks = full_checks(None);
    for e in &entries[..timed_from] {
        checks.observe(e);
    }
    let start = Instant::now();
    for e in &entries[timed_from..] {
        checks.observe(e);
    }
    let busy = start.elapsed();
    checks.finish();
    if !checks.is_clean() {
        out.violations.push(format!(
            "g{}: spec checkers on the replay: {:?}",
            s.gid,
            checks.violations()
        ));
    }
    busy
}

#[derive(Default)]
struct SimTotals {
    per_tag: std::collections::BTreeMap<&'static str, (u64, u64)>,
    violations: Vec<String>,
}

/// Replays every stream and adds the `group`, `sim`, `spec` and
/// `membership` per-layer metrics; `ops` is the number of timed ops the
/// streams hold.
pub fn replay(streams: &[Stream], capacity: u64, ops: u64, tr: &mut Tracer, out: &mut Outcome) {
    let mut errors = Vec::new();
    for s in streams {
        replay_group(s, capacity, tr, &mut errors);
    }
    let mut totals = SimTotals::default();
    let check: Duration = streams
        .iter()
        .map(|s| replay_sim(s, capacity, tr, &mut totals))
        .sum();
    errors.extend(totals.violations);
    let ops = ops.max(1) as f64;
    let mean_us = |name: &str| mean(&tr.durations(name)) / 1e3;
    out.metric("group.send_us", mean_us("group.send"), "us");
    out.metric("group.quiesce_us", mean_us("group.quiesce"), "us");
    out.metric("group.drain_us", mean_us("group.drain"), "us");
    out.metric("group.join_us", mean_us("group.join"), "us");
    if !tr.durations("group.leave").is_empty() {
        out.lines
            .push(format!("group.leave_us={} us", mean_us("group.leave")));
    }
    let msgs: u64 = totals.per_tag.values().map(|e| e.0).sum();
    let bytes: u64 = totals.per_tag.values().map(|e| e.1).sum();
    out.metric("sim.msgs_per_op", msgs as f64 / ops, "msgs");
    out.metric("sim.net_bytes_per_op", bytes as f64 / ops, "B");
    for (tag, (count, _)) in &totals.per_tag {
        out.lines.push(format!(
            "sim.msgs_per_op.{tag}={} msgs",
            *count as f64 / ops
        ));
    }
    out.metric(
        "spec.check_us_per_op",
        check.as_secs_f64() * 1e6 / ops,
        "us",
    );
    out.metric(
        "membership.start_change_us",
        mean_us("membership.start_change"),
        "us",
    );
    out.metric(
        "membership.form_view_us",
        mean_us("membership.form_view"),
        "us",
    );
    out.errors.extend(errors);
}
