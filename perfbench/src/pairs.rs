//! `pairs_tcp`: two clients on plain loopback sockets, 64 groups that
//! both join, each client keeping a fixed window of multicasts
//! outstanding against an in-process `GroupServer`.

use crate::check::{bit, mask, show_mask, Checker, Delivery};
use crate::replay::{self, Cmd, Stream};
use crate::report::{self, hash, median, payload, payload_op, us_since, Chunks, Outcome};
use crate::span::{Tracer, NONE, NO_OP};
use crate::wire::{self, Client, Inbound};
use crate::{finish_trace, nproc, Args, E2e, CAPACITY, GROUPS};
use std::time::{Duration, Instant};
use vsgm_net::codec::encode_frame_grouped;
use vsgm_net::WireFormat;
use vsgm_server::{group_seed, GroupServer, ServerConfig};
use vsgm_types::{AppMsg, GroupId, NetMsg, ProcessId};

/// Multicasts each client keeps outstanding.
const WINDOW: usize = 64;
/// Multicasts per second of `--seconds` the timed phase attempts (about
/// what the build host completes, so the phase lasts about that long).
const OPS_PER_SECOND: u64 = 14000;
/// Times each run sets up; `setup_s` is the median. A set-up takes
/// about 15 ms here, so 200 of them span about 3 s of host time, as the
/// shard workloads' five do.
const SETUP_REPS: usize = 200;
/// Groups whose command stream the traced run replays.
const REPLAY_GROUPS: u64 = 4;
/// The traced run measures a shard fence after this many completions.
const FENCE_EVERY: u64 = 256;
/// A phase that makes no progress for this long fails the run.
const STALL: Duration = Duration::from_secs(60);
const POLL: Duration = Duration::from_millis(100);

struct Env {
    server: GroupServer,
    clients: Vec<Client>,
    checker: Checker,
    all: u32,
}

/// Join-phase measurements of one set-up.
#[derive(Default)]
struct SetupStats {
    change_us: Vec<f64>,
    join_phase: Duration,
    dir_rtt_us: Vec<f64>,
    ack_to_view_us: Vec<f64>,
}

fn group_name(i: u64) -> String {
    format!("g{i}")
}

fn dir_frame(line: &str, tr: &mut Tracer) -> Vec<u8> {
    tr.time("net.encode", NONE, NO_OP, || {
        encode_frame_grouped(
            GroupId::DIRECTORY,
            &NetMsg::App(AppMsg::from(line)),
            WireFormat::Binary,
        )
    })
    .unwrap_or_default()
}

struct Change {
    issued: Instant,
    expect: u32,
    seen: u32,
    acked: Option<Instant>,
    viewed: Option<Instant>,
}

/// Starts a daemon, connects the clients, has client 1 create every
/// group and each other client join it, and waits until every member
/// holds the full view and every shard has answered a report.
fn setup(tr: &mut Tracer, stats: &mut SetupStats) -> Result<Env, String> {
    let cfg = ServerConfig {
        shards: nproc(),
        ..ServerConfig::default()
    };
    let server = GroupServer::bind(ProcessId::new(0), "127.0.0.1:0", cfg)
        .map_err(|e| format!("bind: {e}"))?;
    let n_clients = nproc().clamp(1, 2) as u64;
    let mut clients = Vec::new();
    for pid in 1..=n_clients {
        let c = Client::connect(pid, server.local_addr(), |p, a| {
            server.register_client(p, a)
        })
        .map_err(|e| format!("client {pid}: {e}"))?;
        clients.push(c);
    }
    let all = (1..=n_clients).fold(0, |m, p| m | bit(p));
    let mut env = Env {
        server,
        clients,
        checker: Checker::new(),
        all,
    };
    let mut inbound = Vec::new();
    for ci in 0..env.clients.len() {
        let pid = ci as u64 + 1;
        let verb = if ci == 0 { "create" } else { "join" };
        let expect = (1..=pid).fold(0, |m, p| m | bit(p));
        let start = Instant::now();
        let mut changes = Vec::new();
        for i in 0..GROUPS {
            let frame = dir_frame(&format!("{verb} {}", group_name(i)), tr);
            let issued = Instant::now();
            tr.time("net.write", NONE, NO_OP, || env.clients[ci].send(&frame))
                .map_err(|e| format!("client {pid}: {e}"))?;
            changes.push(Change {
                issued,
                expect,
                seen: 0,
                acked: None,
                viewed: None,
            });
        }
        let mut replies = 0;
        let mut done = 0;
        let mut last_progress = Instant::now();
        while replies < GROUPS || done < GROUPS {
            if last_progress.elapsed() > STALL {
                return Err(format!("set-up stalled: {replies} replies, {done} views"));
            }
            inbound.clear();
            wire::pump(&mut env.clients, POLL, tr, &mut inbound)
                .map_err(|e| format!("socket: {e}"))?;
            for Inbound {
                client,
                gid,
                msg,
                at,
            } in inbound.drain(..)
            {
                last_progress = at;
                let rpid = client as u64 + 1;
                match (gid, msg) {
                    (Some(GroupId::DIRECTORY), NetMsg::App(reply)) => {
                        let text = String::from_utf8_lossy(reply.as_bytes()).into_owned();
                        let words: Vec<&str> = text.split_whitespace().collect();
                        let (i, gid) = match words.as_slice() {
                            ["ok", v, name, gid] if *v == verb && rpid == pid => {
                                let i = name.strip_prefix('g').and_then(|n| n.parse::<u64>().ok());
                                (i, gid.parse::<u64>().ok())
                            }
                            _ => (None, None),
                        };
                        match (i, gid) {
                            (Some(i), Some(gid)) if gid == i + 1 && i < GROUPS => {
                                let c = &mut changes[i as usize];
                                stats.dir_rtt_us.push(us_since(c.issued, at));
                                tr.record("server.dir_request", c.issued, at, NONE, i);
                                c.acked = Some(at);
                                replies += 1;
                            }
                            _ => {
                                return Err(format!(
                                    "client {rpid}: unexpected directory reply {text:?}"
                                ))
                            }
                        }
                    }
                    (Some(g), NetMsg::ViewMsg(v)) => {
                        let mask = env.checker.view_msg(g.raw(), rpid, &v);
                        let Some(c) = changes.get_mut(g.raw() as usize - 1) else {
                            return Err(format!("view for unknown group {g}"));
                        };
                        if rpid == pid {
                            c.viewed = Some(at);
                        }
                        if mask == c.expect && c.seen != c.expect {
                            c.seen |= bit(rpid);
                            if c.seen == c.expect {
                                stats.change_us.push(us_since(c.issued, at));
                                done += 1;
                            }
                        }
                    }
                    (g, m) => return Err(format!("unexpected frame in set-up: {g:?} {}", m.tag())),
                }
            }
        }
        for c in &changes {
            if let (Some(ack), Some(view)) = (c.acked, c.viewed) {
                stats.ack_to_view_us.push(us_since(ack, view));
            }
        }
        stats.join_phase += start.elapsed();
    }
    for gid in 1..=GROUPS {
        let r = env
            .server
            .shards()
            .report(GroupId::new(gid))
            .ok_or(format!("g{gid} not hosted"))?;
        let mask = mask(&r.members);
        if mask != env.all {
            return Err(format!(
                "g{gid} hosts {} after the join fence",
                show_mask(mask)
            ));
        }
    }
    Ok(env)
}

struct Op {
    client: usize,
    sent: Instant,
    span: u32,
}

/// Sends client `ci`'s next multicast.
fn issue(
    ci: usize,
    issued: &mut [u64],
    seed: u64,
    env: &mut Env,
    ops: &mut Vec<Op>,
    tr: &mut Tracer,
) -> Result<(), String> {
    let pid = ci as u64 + 1;
    let k = issued[ci];
    issued[ci] += 1;
    let gid = 1 + hash(&[seed, pid, k]) % GROUPS;
    let op = env.checker.sent(gid, pid, env.all);
    let sent = Instant::now();
    let span = tr.record("op.multicast", sent, sent, NONE, op);
    let msg = NetMsg::App(AppMsg::from(payload(op, &[seed, pid, k])));
    let frame = tr
        .time("net.encode", span, op, || {
            encode_frame_grouped(GroupId::new(gid), &msg, WireFormat::Binary)
        })
        .map_err(|e| format!("encode: {e}"))?;
    tr.time("net.write", span, op, || env.clients[ci].send(&frame))
        .map_err(|e| format!("send: {e}"))?;
    ops.push(Op {
        client: ci,
        sent,
        span,
    });
    Ok(())
}

pub fn run(args: &Args, t0: Instant) -> Result<Outcome, String> {
    let mut tr = Tracer::new(args.trace);
    let mut out = Outcome::default();
    let mut stats = SetupStats::default();
    let (mut setup_s, mut join_rates, mut join_p50s) = (Vec::new(), Vec::new(), Vec::new());
    let mut env = None;
    for rep in 0..SETUP_REPS {
        drop(env.take());
        let start = if rep == 0 { t0 } else { Instant::now() };
        let mut rep_stats = SetupStats::default();
        env = Some(setup(&mut tr, &mut rep_stats)?);
        setup_s.push(start.elapsed().as_secs_f64());
        join_rates
            .push(rep_stats.change_us.len() as f64 / rep_stats.join_phase.as_secs_f64().max(1e-9));
        join_p50s.push(median(&rep_stats.change_us));
        stats.dir_rtt_us.extend(rep_stats.dir_rtt_us);
        stats.ack_to_view_us.extend(rep_stats.ack_to_view_us);
    }
    let mut env = env.ok_or("no set-up")?;
    let n_clients = env.clients.len();
    let quota = (args.seconds * OPS_PER_SECOND).div_ceil(n_clients as u64);
    let total = quota * n_clients as u64;
    out.attempted = total;

    let mut replay_streams: Vec<Stream> = (1..=REPLAY_GROUPS)
        .map(|gid| Stream {
            gid,
            seed: group_seed(ServerConfig::default().seed, GroupId::new(gid)),
            setup: (1..=n_clients as u64).map(Cmd::Join).collect(),
            timed: Vec::new(),
            live_trace_len: 0,
        })
        .collect();
    let before = env.server.stats();
    let trace_before: usize = env
        .server
        .shards()
        .report_all()
        .iter()
        .map(|r| r.trace_len)
        .sum();
    let wire_before: Vec<_> = env.clients.iter().map(|c| c.counters).collect();

    let start = Instant::now();
    let mut chunks = Chunks::start(total);
    let mut ops: Vec<Op> = Vec::with_capacity(total as usize);
    let mut issued = vec![0u64; n_clients];
    let mut first_us = Vec::new();
    let mut fence_us = Vec::new();
    let mut inbound = Vec::new();
    let mut completed = 0u64;
    let mut last_done = start;
    let mut last_progress = start;

    for ci in 0..n_clients {
        for _ in 0..WINDOW.min(quota as usize) {
            issue(ci, &mut issued, args.seed, &mut env, &mut ops, &mut tr)?;
        }
    }
    while completed < total {
        if last_progress.elapsed() > STALL {
            break;
        }
        inbound.clear();
        wire::pump(&mut env.clients, POLL, &mut tr, &mut inbound)
            .map_err(|e| format!("socket: {e}"))?;
        for Inbound {
            client,
            gid,
            msg,
            at,
        } in inbound.drain(..)
        {
            last_progress = at;
            let rpid = client as u64 + 1;
            let gid = gid.map_or(0, GroupId::raw);
            match msg {
                NetMsg::Fwd(f) => {
                    let Some(op) = payload_op(f.msg.as_bytes()) else {
                        env.checker
                            .deliver(gid, rpid, f.origin.raw(), f.index, u64::MAX);
                        continue;
                    };
                    let verdict = env.checker.deliver(gid, rpid, f.origin.raw(), f.index, op);
                    let Some(o) = ops.get(op as usize) else {
                        continue;
                    };
                    if rpid == f.origin.raw() && verdict != Delivery::Bad {
                        first_us.push(us_since(o.sent, at));
                    }
                    if tr.on && client == 0 && gid <= REPLAY_GROUPS && verdict != Delivery::Bad {
                        let bytes = f.msg.as_bytes().to_vec();
                        replay_streams[gid as usize - 1]
                            .timed
                            .push(Cmd::Send(f.origin.raw(), bytes));
                    }
                    if verdict == Delivery::Complete {
                        chunks.mcast(us_since(o.sent, at));
                        if let Some(s) = tr.spans.get_mut(o.span as usize) {
                            s.end_ns += at.saturating_duration_since(o.sent).as_nanos() as u64;
                        }
                        completed += 1;
                        chunks.ops_done(completed);
                        last_done = at;
                        let ci = o.client;
                        if issued[ci] < quota {
                            issue(ci, &mut issued, args.seed, &mut env, &mut ops, &mut tr)?;
                        }
                        if tr.on && completed.is_multiple_of(FENCE_EVERY) {
                            let g = GroupId::new(1 + (completed / FENCE_EVERY) % GROUPS);
                            let t = Instant::now();
                            env.server.shards().report(g);
                            fence_us.push(us_since(t, Instant::now()));
                            tr.record("shard.report", t, Instant::now(), NONE, NO_OP);
                        }
                    }
                }
                NetMsg::ViewMsg(v) => {
                    env.checker.view_msg(gid, rpid, &v);
                }
                other => out
                    .errors
                    .push(format!("unexpected {} frame in g{gid}", other.tag())),
            }
        }
    }
    let elapsed = last_done.saturating_duration_since(start);
    out.threads = report::threads();
    out.failed = total - completed;

    // Output checks.
    for gid in 1..=GROUPS {
        for pid in 1..=n_clients as u64 {
            env.checker.expect_view(gid, pid, env.all);
        }
    }
    out.errors.extend(env.checker.finish());
    let after = env.server.stats();
    if after.frames_unroutable != 0 {
        out.errors
            .push(format!("{} frames unroutable", after.frames_unroutable));
    }
    let sent_frames = GROUPS * n_clients as u64 + completed;
    if out.failed == 0 && after.frames_routed != sent_frames {
        out.errors.push(format!(
            "{} frames routed, the generator sent {sent_frames}",
            after.frames_routed
        ));
    }
    let reports = env.server.shards().report_all();
    for r in &reports {
        if let Some(s) = replay_streams.get_mut(r.gid.raw() as usize - 1) {
            s.live_trace_len = r.trace_len;
        }
    }
    for gid in 1..=GROUPS {
        match env.server.shards().finish(GroupId::new(gid)) {
            Some(v) if v.is_empty() => {}
            other => out
                .errors
                .push(format!("g{gid}: spec checkers report {other:?}")),
        }
    }

    let e2e = E2e {
        setup_s,
        timed: chunks.figures(),
        setup_changes: Some((join_rates, join_p50s)),
    };
    e2e.emit(args.trace, &mut out);
    if args.trace {
        let ops_f = completed.max(1) as f64;
        let mean_ns = |tr: &Tracer, name: &str| report::mean(&tr.durations(name));
        let wire_after: Vec<_> = env.clients.iter().map(|c| c.counters).collect();
        let delta = |f: fn(&wire::WireCounters) -> u64| -> u64 {
            wire_after
                .iter()
                .zip(&wire_before)
                .map(|(a, b)| f(a) - f(b))
                .sum()
        };
        let trace_after: usize = reports.iter().map(|r| r.trace_len).sum();
        // The net layer exists only on this workload: report lines.
        out.lines.push(format!(
            "net.encode_ns_per_frame={} ns",
            mean_ns(&tr, "net.encode")
        ));
        out.lines.push(format!(
            "net.decode_ns_per_frame={} ns",
            mean_ns(&tr, "net.decode")
        ));
        out.lines.push(format!(
            "net.wire_bytes_per_op={} B",
            (delta(|c| c.bytes_out) + delta(|c| c.bytes_in)) as f64 / ops_f
        ));
        out.lines.push(format!(
            "net.first_delivery_us={} us",
            median(&first_us)
        ));
        out.metric(
            "server.frames_routed_per_op",
            (after.frames_routed - before.frames_routed) as f64 / ops_f,
            "frames",
        );
        out.metric("shard.fence_us", median(&fence_us), "us");
        out.metric(
            "shard.outputs_per_op",
            delta(|c| c.frames_in) as f64 / ops_f,
            "frames",
        );
        out.metric(
            "group.trace_entries_per_op",
            (trace_after - trace_before) as f64 / ops_f,
            "entries",
        );
        out.lines.push(format!(
            "net.frames_per_read={} frames",
            delta(|c| c.frames_in) as f64 / delta(|c| c.reads).max(1) as f64
        ));
        out.lines.push(format!(
            "server.dir_rtt_us={} us (median of {})",
            median(&stats.dir_rtt_us),
            stats.dir_rtt_us.len()
        ));
        out.lines.push(format!(
            "server.join_ack_to_view_us={} us",
            median(&stats.ack_to_view_us)
        ));
        let replay_ops: u64 = replay_streams.iter().map(|s| s.timed.len() as u64).sum();
        drop(env);
        replay::replay(&replay_streams, CAPACITY, replay_ops, &mut tr, &mut out);
        finish_trace(args, &tr, elapsed, &mut out);
    }
    Ok(out)
}
