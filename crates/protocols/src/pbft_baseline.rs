//! PBFT as a standalone fully-replicated protocol (Figure 1 baseline).
//!
//! The primary pools client transactions into batches and runs the
//! three-phase PBFT of `ringbft-pbft`; on commit every replica "executes"
//! (the Fig 1 experiments measure consensus cost; YCSB execution cost is
//! orthogonal, §8) and answers the client, which waits for `f + 1`
//! matching replies.

use crate::common::{reply_clients, Pooler, SsMsg};
use ringbft_pbft::{PbftConfig, PbftCore, PbftEvent, PbftMsg};
use ringbft_types::txn::Transaction;
use ringbft_types::{Action, Duration, Instant, NodeId, Outbox, ReplicaId, TimerKind};
use std::sync::Arc;

/// Pool-flush timer token.
const FLUSH_TOKEN: u64 = (1 << 62) - 1;

/// A PBFT baseline replica.
pub struct PbftBaseline {
    me: ReplicaId,
    pbft: PbftCore,
    pool: Pooler,
    flush_after: Duration,
    flush_armed: bool,
    /// Batches committed (diagnostics).
    pub committed: u64,
}

impl PbftBaseline {
    /// Creates replica `me` of an `n`-replica group.
    pub fn new(me: ReplicaId, n: usize, batch_size: usize, local_timeout: Duration) -> Self {
        PbftBaseline {
            me,
            pbft: PbftCore::new(
                me,
                PbftConfig {
                    n,
                    checkpoint_interval: 128,
                    external_checkpoints: false,
                    local_timeout,
                },
            ),
            pool: Pooler::new(batch_size, me.index as u64 + 1),
            flush_after: local_timeout / 4,
            flush_armed: false,
            committed: 0,
        }
    }

    /// Clients should address this replica index with requests.
    pub fn is_primary(&self) -> bool {
        self.pbft.is_primary()
    }

    fn drive<F>(&mut self, now: Instant, f: F, out: &mut Outbox<SsMsg>)
    where
        F: FnOnce(&mut PbftCore, &mut Outbox<PbftMsg>, &mut Vec<PbftEvent>),
    {
        let mut pout = Outbox::new();
        let mut events = Vec::new();
        f(&mut self.pbft, &mut pout, &mut events);
        for a in pout.take() {
            push_pbft_action(out, a);
        }
        for e in events {
            if let PbftEvent::Committed {
                seq, digest, batch, ..
            } = e
            {
                self.committed += 1;
                out.executed(seq.0, batch.len() as u32);
                reply_clients(out, digest, &batch);
            }
        }
        let _ = now;
    }

    /// Handles a message.
    pub fn on_message(&mut self, now: Instant, from: NodeId, msg: SsMsg, out: &mut Outbox<SsMsg>) {
        match msg {
            SsMsg::Request { txn, .. } => self.on_request(now, txn, out),
            SsMsg::Pbft(m) => {
                let NodeId::Replica(r) = from else { return };
                self.drive(now, |p, po, ev| p.on_message(now, r, m, po, ev), out);
            }
            _ => {}
        }
    }

    fn on_request(&mut self, now: Instant, txn: Arc<Transaction>, out: &mut Outbox<SsMsg>) {
        if !self.pbft.is_primary() {
            let primary = ReplicaId::new(self.me.shard, self.pbft.primary_index());
            out.send(
                NodeId::Replica(primary),
                SsMsg::Request { txn, relayed: true },
            );
            return;
        }
        if let Some(batch) = self.pool.push((*txn).clone()) {
            self.drive(
                now,
                |p, po, ev| {
                    p.propose(now, batch, po, ev);
                },
                out,
            );
        }
        if !self.pool.is_empty() && !self.flush_armed {
            self.flush_armed = true;
            out.set_timer(TimerKind::Client, FLUSH_TOKEN, self.flush_after);
        }
    }

    /// Handles a timer.
    pub fn on_timer(&mut self, now: Instant, kind: TimerKind, token: u64, out: &mut Outbox<SsMsg>) {
        if kind == TimerKind::Client && token == FLUSH_TOKEN {
            self.flush_armed = false;
            if let Some(batch) = self.pool.cut() {
                self.drive(
                    now,
                    |p, po, ev| {
                        p.propose(now, batch, po, ev);
                    },
                    out,
                );
            }
            return;
        }
        if kind == TimerKind::Local {
            self.drive(
                now,
                |p, po, ev| {
                    p.on_timer(kind, token, po, ev);
                },
                out,
            );
        }
    }
}

/// Maps a PBFT action into the single-shard message space.
pub(crate) fn push_pbft_action(out: &mut Outbox<SsMsg>, action: Action<PbftMsg>) {
    match action.map_msg(SsMsg::Pbft) {
        Action::Send { to, msg } => out.send(to, msg),
        Action::SendMany { tos, msg } => out.send_many(tos, msg),
        Action::SetTimer { kind, token, after } => out.set_timer(kind, token, after),
        Action::CancelTimer { kind, token } => out.cancel_timer(kind, token),
        Action::Executed { seq, txns } => out.executed(seq, txns),
        Action::ViewChanged { view } => out.view_changed(view),
    }
}
