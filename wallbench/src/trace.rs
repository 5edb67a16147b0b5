//! Benchmark-side tracing of a replica: a [`ProtocolNode`] wrapper that
//! records a span around every call into the hosted node and reads the
//! actions it returns. Nothing inside the program is instrumented.
//!
//! Each call gives one span, classified by the message it handled, with
//! its cause (sender plus transaction, sequence or digest id). The
//! wrapper's own bookkeeping before and after the call is recorded as
//! child spans of class [`Class::Trace`], so a span's self time
//! ([`self_times`]) is the time spent inside the node.

use ringbft_core::RingMsg;
use ringbft_net::runtime::Clock;
use ringbft_obs::Histogram;
use ringbft_pbft::PbftMsg;
use ringbft_sim::{AnyMsg, AnyNode};
use ringbft_types::txn::Digest;
use ringbft_types::{Action, Instant, NodeId, ProtocolNode, ReplicaId, TimerKind};
use std::collections::HashMap;
use std::sync::{Arc, Mutex};

/// Keep one delivered message in this many for the codec measurement.
const SAMPLE_EVERY: u64 = 16;
/// At most this many sampled messages per replica.
const SAMPLE_MAX: usize = 2_000;

/// What a span covered.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Class {
    Request,
    Preprepare,
    Prepare,
    Commit,
    Checkpoint,
    ViewChange,
    NewView,
    Forward,
    ForwardShare,
    Execute,
    ExecuteShare,
    RemoteView,
    Recovery,
    Reply,
    Other,
    Timer,
    Pump,
    /// The wrapper's own work around a call.
    Trace,
}

impl Class {
    /// Consensus messages of the intra-shard PBFT engine.
    pub fn is_pbft(self) -> bool {
        matches!(
            self,
            Class::Preprepare
                | Class::Prepare
                | Class::Commit
                | Class::Checkpoint
                | Class::ViewChange
                | Class::NewView
        )
    }

    /// Messages of the ring path between shards.
    pub fn is_ring(self) -> bool {
        matches!(
            self,
            Class::Forward | Class::ForwardShare | Class::Execute | Class::ExecuteShare
        )
    }
}

/// Marks a span without a parent.
pub const NO_PARENT: u32 = u32::MAX;

/// One recorded interval, in clock nanoseconds.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Span {
    pub class: Class,
    pub start: u64,
    pub end: u64,
    /// Index of the enclosing span in the same list, or [`NO_PARENT`].
    pub parent: u32,
    /// Who caused the call (the sender, or the replica itself for timers).
    pub from: NodeId,
    /// Transaction id, sequence number, digest prefix or timer token.
    pub cause: u64,
}

/// Each span's self time: its duration minus the part of it that its
/// child spans cover (overlapping children are counted once).
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut own: Vec<u64> = spans
        .iter()
        .map(|s| s.end.saturating_sub(s.start))
        .collect();
    let mut kids: Vec<(u32, u64, u64)> = spans
        .iter()
        .filter(|s| s.parent != NO_PARENT)
        .map(|s| (s.parent, s.start, s.end))
        .collect();
    kids.sort_unstable();
    for group in kids.chunk_by(|a, b| a.0 == b.0) {
        let p = &spans[group[0].0 as usize];
        let (mut covered, mut reach) = (0, p.start);
        for &(_, s, e) in group {
            let (s, e) = (s.max(reach), e.min(p.end));
            if e > s {
                covered += e - s;
                reach = e;
            }
        }
        own[group[0].0 as usize] -= covered;
    }
    own
}

/// Bytes a call wrote to a WAL whose length went from `before` to
/// `after`: the growth, or after a compaction (which rewrites the log as
/// a snapshot) the whole new length.
pub fn wal_written(before: u64, after: u64) -> u64 {
    if after >= before {
        after - before
    } else {
        after
    }
}

fn digest_key(d: &Digest) -> u64 {
    u64::from_le_bytes(d[..8].try_into().expect("8 bytes"))
}

fn classify(msg: &AnyMsg) -> (Class, u64) {
    let AnyMsg::Ring(m) = msg else {
        return (Class::Other, 0);
    };
    match m {
        RingMsg::Request { txn, .. } => (Class::Request, txn.id.0),
        RingMsg::Pbft(p) => match p {
            PbftMsg::Preprepare { seq, .. } => (Class::Preprepare, seq.0),
            PbftMsg::Prepare { seq, .. } => (Class::Prepare, seq.0),
            PbftMsg::Commit { seq, .. } => (Class::Commit, seq.0),
            PbftMsg::Checkpoint { seq, .. } => (Class::Checkpoint, seq.0),
            PbftMsg::ViewChange { new_view, .. } => (Class::ViewChange, new_view.0),
            PbftMsg::NewView { view, .. } => (Class::NewView, view.0),
        },
        RingMsg::Forward(f) => (Class::Forward, digest_key(&f.digest)),
        RingMsg::ForwardShare(f) => (Class::ForwardShare, digest_key(&f.digest)),
        RingMsg::Execute(e) => (Class::Execute, digest_key(&e.digest)),
        RingMsg::ExecuteShare(e) => (Class::ExecuteShare, digest_key(&e.digest)),
        RingMsg::RemoteView { digest, .. } | RingMsg::RemoteViewShare { digest, .. } => {
            (Class::RemoteView, digest_key(digest))
        }
        RingMsg::Recovery(_) => (Class::Recovery, 0),
        RingMsg::Reply { digest, .. } => (Class::Reply, digest_key(digest)),
    }
}

/// When each Forward left its sender, keyed by `(digest, sender,
/// receiver)`, so the receiver can time the hop. Shared by every wrapper
/// of one cluster.
#[derive(Default)]
pub struct HopBoard(Mutex<HashMap<(u64, ReplicaId, ReplicaId), u64>>);

impl HopBoard {
    fn put(&self, key: (u64, ReplicaId, ReplicaId), at: u64) {
        self.0.lock().expect("hop board").insert(key, at);
    }

    fn take(&self, key: (u64, ReplicaId, ReplicaId)) -> Option<u64> {
        self.0.lock().expect("hop board").remove(&key)
    }
}

/// What one wrapper recorded inside the measured window.
#[derive(Default)]
pub struct TraceRec {
    /// Spans and counts are kept only for calls starting in `[start, end)`.
    pub window: (u64, u64),
    pub spans: Vec<Span>,
    /// Sampled delivered messages with their sender.
    pub sample: Vec<(NodeId, AnyMsg)>,
    delivered: u64,
    /// `Executed` actions and the transactions they carried.
    pub executed: u64,
    pub executed_txns: u64,
    /// Forward messages sent to the next shard.
    pub forwards: u64,
    pub view_changes: u64,
    pub timer_calls: u64,
    /// Lock-manager pending list length, summed over calls, and the count.
    pub pending_sum: u64,
    pub pending_n: u64,
    /// WAL syncs and bytes written by the calls.
    pub wal_syncs: u64,
    pub wal_bytes: u64,
    /// Forward hop times (ns) into this replica.
    pub hop_ns: Histogram,
}

/// A replica wrapped for tracing.
pub struct Traced {
    /// The hosted node.
    pub inner: AnyNode,
    me: ReplicaId,
    clock: Clock,
    hops: Arc<HopBoard>,
    /// Observations.
    pub rec: TraceRec,
}

impl Traced {
    /// Wraps `inner`, hosted as replica `me`; spans are stamped on `clock`.
    pub fn new(inner: AnyNode, me: ReplicaId, clock: Clock, hops: Arc<HopBoard>) -> Traced {
        Traced {
            inner,
            me,
            clock,
            hops,
            rec: TraceRec {
                hop_ns: crate::stats::hist(),
                ..TraceRec::default()
            },
        }
    }

    fn now(&self) -> u64 {
        self.clock.now().0
    }

    fn in_window(&self, t: u64) -> bool {
        (self.rec.window.0..self.rec.window.1).contains(&t)
    }

    /// The replica's WAL length and sync count, if it logs.
    fn wal_point(&self) -> Option<(u64, u64)> {
        match &self.inner {
            AnyNode::Ring(r) => r.wal().map(|w| (w.len_bytes(), w.syncs())),
            _ => None,
        }
    }

    /// Runs `call` on the node, then reads its actions, and records the
    /// call's span with the bookkeeping from `start` to the call and after
    /// the call as its children.
    fn record(
        &mut self,
        (class, from, cause): (Class, NodeId, u64),
        start: u64,
        call: impl FnOnce(&mut AnyNode) -> Vec<Action<AnyMsg>>,
    ) -> Vec<Action<AnyMsg>> {
        let wal0 = self.wal_point();
        let pre_end = self.now();
        let actions = call(&mut self.inner);
        let post_start = self.now();
        if let (Some((len0, syncs0)), Some((len1, syncs1))) = (wal0, self.wal_point()) {
            self.rec.wal_bytes += wal_written(len0, len1);
            self.rec.wal_syncs += syncs1 - syncs0;
        }
        for a in &actions {
            match a {
                Action::Send { to, msg } => self.note_forward(*to, msg, post_start),
                Action::SendMany { tos, msg } => {
                    for to in tos {
                        self.note_forward(*to, msg, post_start);
                    }
                }
                Action::Executed { txns, .. } => {
                    self.rec.executed += 1;
                    self.rec.executed_txns += u64::from(*txns);
                }
                Action::ViewChanged { .. } => self.rec.view_changes += 1,
                Action::SetTimer { .. } | Action::CancelTimer { .. } => {}
            }
        }
        if let AnyNode::Ring(r) = &self.inner {
            self.rec.pending_sum += r.lock_manager().pending_len() as u64;
            self.rec.pending_n += 1;
        }
        let end = self.now();
        let parent = self.rec.spans.len() as u32;
        let span = |class, start, end, parent| Span {
            class,
            start,
            end,
            parent,
            from,
            cause,
        };
        self.rec.spans.push(span(class, start, end, NO_PARENT));
        self.rec
            .spans
            .push(span(Class::Trace, start, pre_end, parent));
        self.rec
            .spans
            .push(span(Class::Trace, post_start, end, parent));
        actions
    }

    fn note_forward(&mut self, to: NodeId, msg: &AnyMsg, at: u64) {
        if let (NodeId::Replica(dst), AnyMsg::Ring(RingMsg::Forward(f))) = (to, msg) {
            self.rec.forwards += 1;
            self.hops.put((digest_key(&f.digest), self.me, dst), at);
        }
    }
}

impl ProtocolNode<AnyMsg> for Traced {
    fn on_start(&mut self, now: Instant) -> Vec<Action<AnyMsg>> {
        self.inner.on_start(now)
    }

    fn on_message(&mut self, now: Instant, from: NodeId, msg: AnyMsg) -> Vec<Action<AnyMsg>> {
        let start = self.now();
        if !self.in_window(start) {
            return self.inner.on_message(now, from, msg);
        }
        let (class, cause) = classify(&msg);
        if let (NodeId::Replica(src), AnyMsg::Ring(RingMsg::Forward(f))) = (from, &msg) {
            if let Some(sent) = self.hops.take((digest_key(&f.digest), src, self.me)) {
                self.rec.hop_ns.record(start.saturating_sub(sent));
            }
        }
        self.rec.delivered += 1;
        if self.rec.delivered.is_multiple_of(SAMPLE_EVERY) && self.rec.sample.len() < SAMPLE_MAX {
            self.rec.sample.push((from, msg.clone()));
        }
        self.record((class, from, cause), start, |n| {
            n.on_message(now, from, msg)
        })
    }

    fn on_timer(&mut self, now: Instant, kind: TimerKind, token: u64) -> Vec<Action<AnyMsg>> {
        let start = self.now();
        if !self.in_window(start) {
            return self.inner.on_timer(now, kind, token);
        }
        self.rec.timer_calls += 1;
        let me = NodeId::Replica(self.me);
        self.record((Class::Timer, me, token), start, |n| {
            n.on_timer(now, kind, token)
        })
    }

    fn on_pump(&mut self, now: Instant) -> Vec<Action<AnyMsg>> {
        let start = self.now();
        if !self.in_window(start) {
            return self.inner.on_pump(now);
        }
        let me = NodeId::Replica(self.me);
        self.record((Class::Pump, me, 0), start, |n| n.on_pump(now))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ringbft_types::{ClientId, ShardId};

    fn span(class: Class, start: u64, end: u64, parent: u32) -> Span {
        Span {
            class,
            start,
            end,
            parent,
            from: NodeId::Client(ClientId(1)),
            cause: 0,
        }
    }

    #[test]
    fn self_time_subtracts_covered_child_time_once() {
        let spans = [
            // 0: a 100 ns call whose children cover [0,10), [10,30) and,
            // overlapping, [20,40): 40 ns covered, 60 ns self.
            span(Class::Commit, 0, 100, NO_PARENT),
            span(Class::Trace, 0, 10, 0),
            span(Class::Trace, 20, 40, 0),
            span(Class::Trace, 10, 30, 0),
            // 4: a child reaching past its parent's end is clipped:
            // [190, 200) of [190, 250) counts, so 100 − 10 = 90.
            span(Class::Request, 100, 200, NO_PARENT),
            span(Class::Trace, 190, 250, 4),
            // 6: no children.
            span(Class::Timer, 300, 307, NO_PARENT),
            // 7: an empty child changes nothing.
            span(Class::Pump, 400, 410, NO_PARENT),
            span(Class::Trace, 400, 400, 7),
        ];
        let own = self_times(&spans);
        assert_eq!(own[0], 60);
        assert_eq!(own[4], 90);
        assert_eq!(own[6], 7);
        assert_eq!(own[7], 10);
        // Children keep their own durations.
        assert_eq!((own[1], own[2], own[3], own[5]), (10, 20, 20, 60));
    }

    #[test]
    fn wal_writes_count_growth_and_whole_compacted_logs() {
        assert_eq!(wal_written(100, 160), 60);
        assert_eq!(wal_written(100, 100), 0);
        // A compaction shrank 5000 bytes of log to a 700-byte snapshot.
        assert_eq!(wal_written(5_000, 700), 700);
    }

    #[test]
    fn hop_board_pairs_a_forward_with_its_delivery_once() {
        let board = HopBoard::default();
        let (a, b) = (ReplicaId::new(ShardId(0), 1), ReplicaId::new(ShardId(1), 1));
        board.put((7, a, b), 1_000);
        assert_eq!(board.take((7, b, a)), None);
        assert_eq!(board.take((7, a, b)), Some(1_000));
        assert_eq!(board.take((7, a, b)), None);
    }
}
