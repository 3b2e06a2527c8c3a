//! `octet_fanout` and `join_churn`: the generator enters at the shard
//! layer — `ShardPool::create_group` / `apply` with `auto_run`, reading
//! the `outputs` channel — with 64 groups of 8 members.
//!
//! * `octet_fanout`: one multicast outstanding per group, from a member
//!   drawn from the seed.
//! * `join_churn`: members 1..=7 stay; member 8 alternately leaves and
//!   rejoins. Each change is preceded by two multicasts (one from a
//!   stable member and one from member 8 while it is in; two from stable
//!   members while it is out), issued together with the change. One
//!   change is outstanding per group, and an op is one view change.

use crate::check::{bit, mask, show_mask, Checker, Delivery};
use crate::replay::{self, Cmd, Stream};
use crate::report::{self, hash, median, payload, payload_op, us_since, Chunks, Outcome};
use crate::span::{Tracer, NONE, NO_OP};
use crate::{finish_trace, nproc, Args, E2e, CAPACITY, GROUPS};
use crossbeam::channel::{unbounded, Receiver, RecvTimeoutError};
use std::time::{Duration, Instant};
use vsgm_server::{group_seed, GroupCmd, ServerConfig, ShardConfig, ShardPool};
use vsgm_types::{AppMsg, GroupId, NetMsg, ProcessId};

#[derive(Clone, Copy, PartialEq, Eq)]
pub enum Shape {
    Octet,
    Churn,
}

/// Members per group; member `MEMBERS` is the one that churns.
const MEMBERS: u64 = 8;
const ALL: u32 = 0b1_1111_1110;
const STABLE: u32 = 0b0_1111_1110;
/// Ops per second of `--seconds` each workload attempts (about what the
/// build host completes, so the timed phase lasts about that long).
const OCTET_OPS_PER_SECOND: u64 = 1600;
const CHURN_OPS_PER_SECOND: u64 = 190;
/// Times each run sets up; `setup_s` is the median.
const SETUP_REPS: usize = 5;
/// Groups whose command stream the traced run replays.
const REPLAY_GROUPS: u64 = 4;
/// The traced run measures a shard fence after this many completions.
const FENCE_EVERY: u64 = 64;
const STALL: Duration = Duration::from_secs(60);

type Output = (GroupId, ProcessId, NetMsg);

struct Env {
    pool: ShardPool,
    outputs: Receiver<Output>,
    checker: Checker,
}

/// A membership change in flight.
struct Change {
    issued: Instant,
    expect: u32,
    seen: u32,
    span: u32,
}

/// Per-group generator state.
struct Group {
    members: u32,
    change: Option<Change>,
    /// Multicasts of the current round not yet delivered everywhere.
    open: u32,
    /// Ops issued so far.
    issued: u64,
}

fn apply(pool: &ShardPool, gid: u64, cmd: GroupCmd, tr: &mut Tracer, op: u64) {
    tr.time("shard.apply", NONE, op, || {
        pool.apply(GroupId::new(gid), cmd)
    });
}

fn issue_change(
    env: &Env,
    groups: &mut [Group],
    gid: u64,
    cmd: GroupCmd,
    expect: u32,
    tr: &mut Tracer,
) {
    let g = &mut groups[gid as usize - 1];
    let issued = Instant::now();
    let span = tr.record("op.view_change", issued, issued, NONE, gid);
    apply(&env.pool, gid, cmd, tr, gid);
    g.change = Some(Change {
        issued,
        expect,
        seen: 0,
        span,
    });
}

/// Handles one installed view; returns the change latency when the
/// view completes the group's change.
fn on_view(
    env: &mut Env,
    groups: &mut [Group],
    gid: u64,
    member: u64,
    v: &vsgm_types::View,
    at: Instant,
    tr: &mut Tracer,
) -> Option<f64> {
    let mask = env.checker.view_msg(gid, member, v);
    let g = groups.get_mut(gid as usize - 1)?;
    let c = g.change.as_mut()?;
    if mask != c.expect {
        return None;
    }
    c.seen |= bit(member);
    if c.seen != c.expect {
        return None;
    }
    let c = g.change.take()?;
    g.members = c.expect;
    if let Some(s) = tr.spans.get_mut(c.span as usize) {
        s.end_ns += at.saturating_duration_since(c.issued).as_nanos() as u64;
    }
    Some(us_since(c.issued, at))
}

/// Creates the pool and the groups, joins members 1..=8 one change at a
/// time per group, and waits until every member holds the full view and
/// every group has answered a report.
fn setup(
    seed_base: u64,
    tr: &mut Tracer,
    change_us: &mut Vec<f64>,
    join_phase: &mut Duration,
) -> Result<Env, String> {
    let (tx, rx) = unbounded();
    let pool = ShardPool::spawn(ShardConfig {
        shards: nproc(),
        auto_run: true,
        outputs: Some(tx),
    });
    for gid in 1..=GROUPS {
        pool.create_group(
            GroupId::new(gid),
            CAPACITY,
            group_seed(seed_base, GroupId::new(gid)),
        );
    }
    let mut env = Env {
        pool,
        outputs: rx,
        checker: Checker::new(),
    };
    let mut groups: Vec<Group> = (0..GROUPS)
        .map(|_| Group {
            members: 0,
            change: None,
            open: 0,
            issued: 0,
        })
        .collect();
    let start = Instant::now();
    for gid in 1..=GROUPS {
        issue_change(
            &env,
            &mut groups,
            gid,
            GroupCmd::Join(ProcessId::new(1)),
            bit(1),
            tr,
        );
    }
    let mut pending = GROUPS;
    while pending > 0 {
        let (g, to, msg) = recv(&env.outputs)?;
        let at = Instant::now();
        let NetMsg::ViewMsg(v) = msg else {
            return Err(format!("unexpected {} output in set-up", msg.tag()));
        };
        if let Some(lat) = on_view(&mut env, &mut groups, g.raw(), to.raw(), &v, at, tr) {
            change_us.push(lat);
            let members = groups[g.raw() as usize - 1].members;
            let next = (1..=MEMBERS).find(|m| members & bit(*m) == 0);
            match next {
                Some(m) => issue_change(
                    &env,
                    &mut groups,
                    g.raw(),
                    GroupCmd::Join(ProcessId::new(m)),
                    members | bit(m),
                    tr,
                ),
                None => pending -= 1,
            }
        }
    }
    *join_phase += start.elapsed();
    for gid in 1..=GROUPS {
        let r = env
            .pool
            .report(GroupId::new(gid))
            .ok_or(format!("g{gid} not hosted"))?;
        let mask = mask(&r.members);
        if mask != ALL {
            return Err(format!(
                "g{gid} hosts {} after the join fence",
                show_mask(mask)
            ));
        }
    }
    Ok(env)
}

fn recv(rx: &Receiver<Output>) -> Result<Output, String> {
    match rx.recv_timeout(STALL) {
        Ok(o) => Ok(o),
        Err(RecvTimeoutError::Timeout) => Err("no output for 60 s".into()),
        Err(RecvTimeoutError::Disconnected) => Err("shard workers exited".into()),
    }
}

/// Multicast bookkeeping of the timed phase.
struct Mcast {
    gid: u64,
    sent: Instant,
    span: u32,
}

struct Timed {
    mcasts: Vec<Mcast>,
    outputs: u64,
    streams: Vec<Stream>,
}

impl Timed {
    /// Sends one multicast by `from` in `gid`; `key` places it in the
    /// workload so its payload depends only on the seed.
    fn send(
        &mut self,
        env: &mut Env,
        gid: u64,
        from: u64,
        members: u32,
        key: &[u64],
        tr: &mut Tracer,
    ) {
        let op = env.checker.sent(gid, from, members);
        let bytes = payload(op, key);
        if let Some(s) = self.streams.get_mut(gid as usize - 1).filter(|_| tr.on) {
            s.timed.push(Cmd::Send(from, bytes.clone()));
        }
        let sent = Instant::now();
        let span = tr.record("op.multicast", sent, sent, NONE, op);
        apply(
            &env.pool,
            gid,
            GroupCmd::Send {
                from: ProcessId::new(from),
                msg: AppMsg::from(bytes),
            },
            tr,
            op,
        );
        self.mcasts.push(Mcast { gid, sent, span });
    }
}

pub fn run(args: &Args, t0: Instant, shape: Shape) -> Result<Outcome, String> {
    let seed_base = ServerConfig::default().seed;
    let mut tr = Tracer::new(args.trace);
    let mut out = Outcome::default();
    let (mut setup_s, mut join_rates, mut join_p50s) = (Vec::new(), Vec::new(), Vec::new());
    let mut env = None;
    for rep in 0..SETUP_REPS {
        drop(env.take());
        let start = if rep == 0 { t0 } else { Instant::now() };
        let mut change_us = Vec::new();
        let mut join_phase = Duration::ZERO;
        env = Some(setup(seed_base, &mut tr, &mut change_us, &mut join_phase)?);
        setup_s.push(start.elapsed().as_secs_f64());
        join_rates.push(change_us.len() as f64 / join_phase.as_secs_f64().max(1e-9));
        join_p50s.push(median(&change_us));
    }
    let mut env = env.ok_or("no set-up")?;
    let rate = if shape == Shape::Octet {
        OCTET_OPS_PER_SECOND
    } else {
        CHURN_OPS_PER_SECOND
    };
    // Whole ops per group; churn rounds come in pairs so member 8 ends in.
    let mut per_group = (args.seconds * rate).div_ceil(GROUPS);
    if shape == Shape::Churn {
        per_group += per_group % 2;
    }
    let total = per_group * GROUPS;
    out.attempted = total;

    let mut groups: Vec<Group> = (0..GROUPS)
        .map(|_| Group {
            members: ALL,
            change: None,
            open: 0,
            issued: 0,
        })
        .collect();
    let mut t = Timed {
        mcasts: Vec::new(),
        outputs: 0,
        streams: (1..=REPLAY_GROUPS)
            .map(|gid| Stream {
                gid,
                seed: group_seed(seed_base, GroupId::new(gid)),
                setup: (1..=MEMBERS).map(Cmd::Join).collect(),
                timed: Vec::new(),
                live_trace_len: 0,
            })
            .collect(),
    };
    let routed_before = env
        .pool
        .counters()
        .frames_routed
        .load(std::sync::atomic::Ordering::Relaxed);
    let trace_before: usize = env.pool.report_all().iter().map(|r| r.trace_len).sum();
    let mut fence_us = Vec::new();

    // Starts group `gid`'s next op.
    let next = |env: &mut Env, groups: &mut [Group], t: &mut Timed, gid: u64, tr: &mut Tracer| {
        let g = &mut groups[gid as usize - 1];
        let k = g.issued;
        g.issued += 1;
        match shape {
            Shape::Octet => {
                g.open = 1;
                let from = 1 + hash(&[args.seed, gid, k]) % MEMBERS;
                t.send(env, gid, from, ALL, &[args.seed, gid, k], tr);
            }
            Shape::Churn => {
                let members = g.members;
                let a = 1 + hash(&[args.seed, gid, k, 0]) % 7;
                let b = if members & bit(MEMBERS) != 0 {
                    MEMBERS
                } else {
                    1 + (a + hash(&[args.seed, gid, k, 1]) % 6) % 7
                };
                g.open = 2;
                t.send(env, gid, a, members, &[args.seed, gid, k, 0], tr);
                t.send(env, gid, b, members, &[args.seed, gid, k, 1], tr);
                let (cmd, expect) = if members & bit(MEMBERS) != 0 {
                    (GroupCmd::Leave(ProcessId::new(MEMBERS)), STABLE)
                } else {
                    (GroupCmd::Join(ProcessId::new(MEMBERS)), ALL)
                };
                if let Some(s) = t.streams.get_mut(gid as usize - 1).filter(|_| tr.on) {
                    s.timed.push(if expect == ALL {
                        Cmd::Join(MEMBERS)
                    } else {
                        Cmd::Leave(MEMBERS)
                    });
                }
                issue_change(env, groups, gid, cmd, expect, tr);
            }
        }
    };

    let start = Instant::now();
    let mut chunks = Chunks::start(total);
    for gid in 1..=GROUPS {
        next(&mut env, &mut groups, &mut t, gid, &mut tr);
    }
    let mut completed = 0u64;
    let mut last_done = start;
    while completed < total {
        let (g, to, msg) = match recv(&env.outputs) {
            Ok(o) => o,
            Err(e) => {
                out.errors.push(e);
                break;
            }
        };
        let at = Instant::now();
        let (gid, member) = (g.raw(), to.raw());
        t.outputs += 1;
        let mut round_done = false;
        match &msg {
            NetMsg::Fwd(f) => {
                let op = payload_op(f.msg.as_bytes()).unwrap_or(u64::MAX);
                let verdict = env
                    .checker
                    .deliver(gid, member, f.origin.raw(), f.index, op);
                if verdict == Delivery::Bad {
                    continue;
                }
                let Some(m) = t.mcasts.get(op as usize) else {
                    continue;
                };
                if verdict == Delivery::Complete {
                    chunks.mcast(us_since(m.sent, at));
                    if let Some(s) = tr.spans.get_mut(m.span as usize) {
                        s.end_ns += at.saturating_duration_since(m.sent).as_nanos() as u64;
                    }
                    let grp = &mut groups[m.gid as usize - 1];
                    grp.open -= 1;
                    round_done = grp.open == 0 && grp.change.is_none();
                    if shape == Shape::Octet {
                        completed += 1;
                        chunks.ops_done(completed);
                    }
                }
            }
            NetMsg::ViewMsg(v) => {
                if let Some(lat) = on_view(&mut env, &mut groups, gid, member, v, at, &mut tr) {
                    chunks.change(lat);
                    completed += 1;
                    chunks.ops_done(completed);
                    round_done = groups[gid as usize - 1].open == 0;
                }
            }
            other => out
                .errors
                .push(format!("unexpected {} output in g{gid}", other.tag())),
        }
        if round_done {
            last_done = at;
            if tr.on && completed.is_multiple_of(FENCE_EVERY) {
                let f = Instant::now();
                env.pool.report(g);
                let end = Instant::now();
                fence_us.push(us_since(f, end));
                tr.record("shard.report", f, end, NONE, NO_OP);
            }
            if groups[gid as usize - 1].issued < per_group {
                next(&mut env, &mut groups, &mut t, gid, &mut tr);
            }
        }
    }
    let elapsed = last_done.saturating_duration_since(start);
    out.threads = report::threads();
    out.failed = total - completed;

    // Output checks.
    for gid in 1..=GROUPS {
        let members = groups[gid as usize - 1].members;
        for m in 1..=MEMBERS {
            if members & bit(m) != 0 {
                env.checker.expect_view(gid, m, members);
            }
        }
    }
    out.errors.extend(env.checker.finish());
    let counters = env.pool.counters();
    let unroutable = counters
        .frames_unroutable
        .load(std::sync::atomic::Ordering::Relaxed);
    if unroutable != 0 {
        out.errors.push(format!("{unroutable} frames unroutable"));
    }
    let routed = counters
        .frames_routed
        .load(std::sync::atomic::Ordering::Relaxed);
    let timed = chunks.figures();
    let changes = timed.changes as u64;
    let applied = GROUPS * MEMBERS + t.mcasts.len() as u64 + changes;
    if out.failed == 0 && routed != applied {
        out.errors.push(format!(
            "{routed} commands routed, the generator applied {applied}"
        ));
    }
    let reports = env.pool.report_all();
    for r in &reports {
        if let Some(s) = t.streams.get_mut(r.gid.raw() as usize - 1) {
            s.live_trace_len = r.trace_len;
        }
    }
    for gid in 1..=GROUPS {
        match env.pool.finish(GroupId::new(gid)) {
            Some(v) if v.is_empty() => {}
            other => out
                .errors
                .push(format!("g{gid}: spec checkers report {other:?}")),
        }
    }

    let setup_changes = (shape == Shape::Octet).then_some((join_rates, join_p50s));
    let e2e = E2e {
        setup_s,
        timed,
        setup_changes,
    };
    e2e.emit(args.trace, &mut out);
    if args.trace {
        let ops_f = completed.max(1) as f64;
        let trace_after: usize = reports.iter().map(|r| r.trace_len).sum();
        out.metric(
            "server.frames_routed_per_op",
            (routed - routed_before) as f64 / ops_f,
            "frames",
        );
        out.metric("shard.fence_us", median(&fence_us), "us");
        out.metric("shard.outputs_per_op", t.outputs as f64 / ops_f, "frames");
        out.metric(
            "group.trace_entries_per_op",
            (trace_after - trace_before) as f64 / ops_f,
            "entries",
        );
        out.lines.push(format!(
            "shard.apply_ns={} ns",
            report::mean(&tr.durations("shard.apply"))
        ));
        let replay_ops: u64 = match shape {
            Shape::Octet => t.streams.iter().map(|s| s.timed.len() as u64).sum(),
            Shape::Churn => per_group * t.streams.len() as u64,
        };
        drop(env);
        replay::replay(&t.streams, CAPACITY, replay_ops, &mut tr, &mut out);
        finish_trace(args, &tr, elapsed, &mut out);
    }
    Ok(out)
}
