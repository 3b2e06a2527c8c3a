//! Output checkers: judge the daemon's delivery and view streams against
//! what the generator sent and the memberships it set.
//!
//! The checker knows nothing of sockets or shards. The workloads feed it
//! every multicast they issue ([`Checker::sent`]), every `Fwd` delivery
//! ([`Checker::deliver`]) and every `ViewMsg` ([`Checker::view`]) they
//! read back, and at the end the membership each group should have
//! ([`Checker::expect_view`]). It reports:
//!
//! * a delivery of an unknown multicast, from the wrong origin or in the
//!   wrong group;
//! * a delivery to a process outside the multicast's membership (one that
//!   had left, or never joined);
//! * a duplicated delivery;
//! * a delivery out of per-sender FIFO order;
//! * a gap or repeat in `Fwd.index` per (group, receiver, origin);
//! * a view that omits the member it was delivered to;
//! * two members that pass from one view to the next together but
//!   delivered different multicasts in the view that ended (virtual
//!   synchrony);
//! * a member whose last view differs from the membership set;
//! * a multicast not delivered to every member of its membership.
//!
//! [`self_test`] feeds synthetic broken streams and fails unless each
//! one is caught, so no check passes vacuously.

use std::collections::HashMap;
use vsgm_types::{ProcessId, View};

/// Bit of member `m` in a membership mask (members are 1..=31).
pub fn bit(m: u64) -> u32 {
    1u32 << m
}

/// The membership mask of a set of processes.
pub fn mask<'a>(members: impl IntoIterator<Item = &'a ProcessId>) -> u32 {
    members.into_iter().fold(0, |m, p| m | bit(p.raw()))
}

/// Renders a membership mask as `{1,2,..}`.
pub fn show_mask(mask: u32) -> String {
    let ids: Vec<String> = (0..32)
        .filter(|m| mask & (1 << m) != 0)
        .map(|m| m.to_string())
        .collect();
    format!("{{{}}}", ids.join(","))
}

/// A view as the checker sees it: its id.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub struct ViewKey {
    /// View epoch.
    pub epoch: u64,
    /// View proposer.
    pub proposer: u64,
}

/// What one delivery did to its multicast.
#[derive(Debug, PartialEq, Eq)]
pub enum Delivery {
    /// The delivery was wrong; an error was recorded.
    Bad,
    /// Another member still has to deliver it.
    Partial,
    /// Every member of the multicast's membership has delivered it.
    Complete,
}

struct Op {
    gid: u64,
    sender: u64,
    seq: u64,
    members: u32,
    got: u32,
}

#[derive(Default)]
struct MemberState {
    view: Option<(ViewKey, u32)>,
    in_view: Vec<u64>,
}

/// See the module docs.
#[derive(Default)]
pub struct Checker {
    ops: Vec<Op>,
    next_seq: HashMap<(u64, u64), u64>,
    /// (gid, receiver, origin) → (last seq + 1, last index).
    chan: HashMap<(u64, u64, u64), (u64, u64)>,
    members: HashMap<(u64, u64), MemberState>,
    /// (gid, ended view, next view) → multicasts delivered in the ended
    /// view by the first member seen making that transition.
    transitions: HashMap<(u64, ViewKey, ViewKey), (u64, Vec<u64>)>,
    errors: Vec<String>,
}

const MAX_ERRORS: usize = 20;

impl Checker {
    /// An empty checker.
    pub fn new() -> Checker {
        Checker::default()
    }

    fn error(&mut self, msg: String) {
        if self.errors.len() < MAX_ERRORS {
            self.errors.push(msg);
        } else if self.errors.len() == MAX_ERRORS {
            self.errors.push("further errors suppressed".into());
        }
    }

    /// Registers a multicast by `sender` in `gid`, to be delivered to
    /// every member of `members`. Returns its op id, which the payload
    /// carries.
    pub fn sent(&mut self, gid: u64, sender: u64, members: u32) -> u64 {
        let seq = self.next_seq.entry((gid, sender)).or_insert(0);
        let op = Op {
            gid,
            sender,
            seq: *seq,
            members,
            got: 0,
        };
        *seq += 1;
        self.ops.push(op);
        (self.ops.len() - 1) as u64
    }

    /// Judges one `Fwd` delivery of op `op` to `receiver`.
    pub fn deliver(
        &mut self,
        gid: u64,
        receiver: u64,
        origin: u64,
        index: u64,
        op: u64,
    ) -> Delivery {
        let Some(o) = self.ops.get(op as usize) else {
            self.error(format!(
                "g{gid}: p{receiver} delivered unknown multicast {op}"
            ));
            return Delivery::Bad;
        };
        let (o_gid, o_sender, o_seq, o_members, o_got) = (o.gid, o.sender, o.seq, o.members, o.got);
        if o_gid != gid || o_sender != origin {
            self.error(format!(
                "g{gid}: multicast {op} of p{o_sender} in g{o_gid} arrived as from p{origin} in g{gid}"
            ));
            return Delivery::Bad;
        }
        if o_members & bit(receiver) == 0 {
            self.error(format!(
                "g{gid}: p{receiver} delivered multicast {op} sent to {} (not a member)",
                show_mask(o_members)
            ));
            return Delivery::Bad;
        }
        if o_got & bit(receiver) != 0 {
            self.error(format!(
                "g{gid}: p{receiver} delivered multicast {op} twice"
            ));
            return Delivery::Bad;
        }
        let (next_seq, last_index) = self
            .chan
            .get(&(gid, receiver, origin))
            .copied()
            .unwrap_or((0, 0));
        if o_seq < next_seq {
            self.error(format!(
                "g{gid}: p{receiver} delivered seq {o_seq} of p{origin} after seq {} (FIFO)",
                next_seq - 1
            ));
            return Delivery::Bad;
        }
        if index != last_index + 1 {
            self.error(format!(
                "g{gid}: Fwd.index from p{origin} at p{receiver} went {last_index} -> {index}"
            ));
            return Delivery::Bad;
        }
        self.chan
            .insert((gid, receiver, origin), (o_seq + 1, index));
        self.members
            .entry((gid, receiver))
            .or_default()
            .in_view
            .push(op);
        let got = o_got | bit(receiver);
        if let Some(o) = self.ops.get_mut(op as usize) {
            o.got = got;
        }
        if got == o_members {
            Delivery::Complete
        } else {
            Delivery::Partial
        }
    }

    /// Judges one installed view at `member`.
    pub fn view(&mut self, gid: u64, member: u64, key: ViewKey, members: u32) {
        if members & bit(member) == 0 {
            self.error(format!(
                "g{gid}: p{member} installed view {key:?} {} that omits it",
                show_mask(members)
            ));
        }
        let state = self.members.entry((gid, member)).or_default();
        let prev = state.view.replace((key, members));
        let mut delivered = std::mem::take(&mut state.in_view);
        let Some((prev_key, _)) = prev else { return };
        delivered.sort_unstable();
        match self.transitions.get(&(gid, prev_key, key)) {
            None => {
                self.transitions
                    .insert((gid, prev_key, key), (member, delivered));
            }
            Some((first, theirs)) if *theirs != delivered => {
                let first = *first;
                self.error(format!(
                    "g{gid}: p{first} and p{member} passed from {prev_key:?} to {key:?} \
                     having delivered different multicasts (virtual synchrony)"
                ));
            }
            Some(_) => {}
        }
    }

    /// Judges one `ViewMsg` delivered to `member`; returns the view's
    /// membership mask.
    pub fn view_msg(&mut self, gid: u64, member: u64, v: &View) -> u32 {
        let id = v.id();
        let key = ViewKey {
            epoch: id.epoch,
            proposer: id.proposer,
        };
        let members = mask(v.members());
        self.view(gid, member, key, members);
        members
    }

    /// Requires `member`'s last view in `gid` to list exactly `members`.
    pub fn expect_view(&mut self, gid: u64, member: u64, members: u32) {
        let last = self
            .members
            .get(&(gid, member))
            .and_then(|s| s.view)
            .map(|(_, m)| m);
        if last != Some(members) {
            self.error(format!(
                "g{gid}: p{member}'s last view lists {}, the generator set {}",
                last.map_or("nothing".into(), show_mask),
                show_mask(members)
            ));
        }
    }

    /// Requires every multicast to have been delivered to its whole
    /// membership, and returns every error found.
    pub fn finish(&mut self) -> Vec<String> {
        let missing: Vec<String> = self
            .ops
            .iter()
            .enumerate()
            .filter(|(_, o)| o.got != o.members)
            .take(MAX_ERRORS)
            .map(|(i, o)| {
                format!(
                    "g{}: multicast {i} of p{} never delivered at {}",
                    o.gid,
                    o.sender,
                    show_mask(o.members & !o.got)
                )
            })
            .collect();
        for m in missing {
            self.error(m);
        }
        std::mem::take(&mut self.errors)
    }
}

const V1: ViewKey = ViewKey {
    epoch: 1,
    proposer: 1,
};
const V2: ViewKey = ViewKey {
    epoch: 2,
    proposer: 1,
};

/// A clean stream: two members, both views, FIFO deliveries. It must
/// pass, or the broken variants prove nothing.
fn clean(c: &mut Checker) {
    let both = bit(1) | bit(2);
    c.view(7, 1, V1, both);
    c.view(7, 2, V1, both);
    let a = c.sent(7, 1, both);
    let b = c.sent(7, 1, both);
    for r in [1, 2] {
        c.deliver(7, r, 1, 1, a);
        c.deliver(7, r, 1, 2, b);
    }
    c.view(7, 1, V2, both);
    c.view(7, 2, V2, both);
    c.expect_view(7, 1, both);
    c.expect_view(7, 2, both);
}

/// The broken streams, each with the check it must trip.
pub const BROKEN: [&str; 7] = [
    "dropped delivery",
    "duplicated delivery",
    "reordered within a sender",
    "view missing a member",
    "delivery to a member that had left",
    "Fwd.index gap",
    "virtual synchrony split",
];

fn broken(case: &str, c: &mut Checker) {
    let both = bit(1) | bit(2);
    c.view(7, 1, V1, both);
    c.view(7, 2, V1, both);
    let a = c.sent(7, 1, both);
    let b = c.sent(7, 1, both);
    match case {
        "dropped delivery" => {
            c.deliver(7, 1, 1, 1, a);
            c.deliver(7, 1, 1, 2, b);
            c.deliver(7, 2, 1, 1, a);
        }
        "duplicated delivery" => {
            for r in [1, 2] {
                c.deliver(7, r, 1, 1, a);
                c.deliver(7, r, 1, 2, b);
            }
            c.deliver(7, 2, 1, 3, b);
        }
        "reordered within a sender" => {
            c.deliver(7, 1, 1, 1, a);
            c.deliver(7, 1, 1, 2, b);
            c.deliver(7, 2, 1, 1, b);
            c.deliver(7, 2, 1, 2, a);
        }
        "view missing a member" => {
            for r in [1, 2] {
                c.deliver(7, r, 1, 1, a);
                c.deliver(7, r, 1, 2, b);
            }
            c.view(7, 2, V2, bit(1));
        }
        "delivery to a member that had left" => {
            for r in [1, 2] {
                c.deliver(7, r, 1, 1, a);
                c.deliver(7, r, 1, 2, b);
            }
            let late = c.sent(7, 1, bit(1));
            c.deliver(7, 1, 1, 3, late);
            c.deliver(7, 2, 1, 3, late);
        }
        "Fwd.index gap" => {
            c.deliver(7, 1, 1, 1, a);
            c.deliver(7, 1, 1, 3, b);
            c.deliver(7, 2, 1, 1, a);
            c.deliver(7, 2, 1, 2, b);
        }
        "virtual synchrony split" => {
            c.deliver(7, 1, 1, 1, a);
            c.deliver(7, 1, 1, 2, b);
            c.deliver(7, 2, 1, 1, a);
            c.view(7, 1, V2, both);
            c.view(7, 2, V2, both);
            c.deliver(7, 2, 1, 2, b);
            return;
        }
        _ => {}
    }
    c.view(7, 1, V2, both);
    c.view(7, 2, V2, both);
    c.expect_view(7, 1, both);
    c.expect_view(7, 2, both);
}

/// Runs the clean stream and every broken one; fails unless the clean
/// stream passes and each broken stream is caught.
pub fn self_test() -> Result<(), String> {
    let mut c = Checker::new();
    clean(&mut c);
    let errs = c.finish();
    if !errs.is_empty() {
        return Err(format!("clean stream flagged: {errs:?}"));
    }
    for case in BROKEN {
        let mut c = Checker::new();
        broken(case, &mut c);
        if c.finish().is_empty() {
            return Err(format!("broken stream not caught: {case}"));
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn clean_stream_passes() {
        let mut c = Checker::new();
        clean(&mut c);
        assert_eq!(c.finish(), Vec::<String>::new());
    }

    #[test]
    fn every_broken_stream_is_caught() {
        for case in BROKEN {
            let mut c = Checker::new();
            broken(case, &mut c);
            let errs = c.finish();
            assert!(!errs.is_empty(), "{case} passed");
        }
        assert_eq!(self_test(), Ok(()));
    }

    #[test]
    fn each_case_trips_its_own_check() {
        let expect = [
            ("dropped delivery", "never delivered"),
            ("duplicated delivery", "twice"),
            ("reordered within a sender", "FIFO"),
            ("view missing a member", "omits"),
            ("delivery to a member that had left", "not a member"),
            ("Fwd.index gap", "Fwd.index"),
            ("virtual synchrony split", "virtual synchrony"),
        ];
        for (case, needle) in expect {
            let mut c = Checker::new();
            broken(case, &mut c);
            let errs = c.finish();
            assert!(errs.iter().any(|e| e.contains(needle)), "{case}: {errs:?}");
        }
    }
}
