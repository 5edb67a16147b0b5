//! SharPer (Amiri et al.): sharding without a reference committee (§2
//! "Initiator Shard").
//!
//! For a cross-shard transaction, the primary of one involved shard (the
//! initiator) proposes the transaction *globally*: an `XPreprepare` to
//! every replica of every involved shard, followed by two **global
//! all-to-all** vote phases (`XPrepare`, `XCommit`) with per-shard
//! quorums. This flat quadratic communication across shards is exactly
//! what the paper charges SharPer for in Figures 8 I–X.
//!
//! Single-shard transactions run plain PBFT inside the owning shard, as
//! in the paper's evaluation ("all three protocols have identical
//! implementations for replicating single-shard transactions").

use crate::messages::ShardedMsg;
use ringbft_crypto::Digest;
use ringbft_pbft::{batch_digest, PbftConfig, PbftCore, PbftEvent, PbftMsg};
use ringbft_types::txn::{Batch, Transaction};
use ringbft_types::{
    Action, BatchId, ClientId, Instant, NodeId, Outbox, ReplicaId, ShardId, SystemConfig,
    TimerKind, TxnId,
};
use std::collections::{BTreeMap, HashMap, HashSet};
use std::sync::Arc;

const FLUSH_TOKEN: u64 = (1 << 62) - 1;

/// SharPer's coordinating (initiator) shard for a transaction: one of the
/// involved shards, spread deterministically by transaction id. Unlike
/// AHL's fixed committee, SharPer lets any involved shard's primary
/// coordinate, which distributes the cross-shard fan-out load.
pub fn sharper_initiator(txn: &Transaction) -> ShardId {
    let involved = txn.involved_shards();
    involved[(txn.id.0 % involved.len() as u64) as usize]
}

#[derive(Debug, Default)]
struct XState {
    batch: Option<Arc<Batch>>,
    involved: Vec<ShardId>,
    prepares: HashMap<ShardId, HashSet<u32>>,
    commits: HashMap<ShardId, HashSet<u32>>,
    prepared: bool,
    executed: bool,
}

/// A SharPer replica.
pub struct SharperReplica {
    cfg: SystemConfig,
    me: ReplicaId,
    pbft: PbftCore,
    pool_single: Vec<Transaction>,
    pool_cst: BTreeMap<Vec<ShardId>, Vec<Transaction>>,
    flush_armed: bool,
    next_batch: u64,
    next_gseq: u64,
    xtxns: HashMap<Digest, XState>,
    /// Batches executed (diagnostics).
    pub executed: u64,
}

impl SharperReplica {
    /// Creates replica `me`.
    pub fn new(cfg: SystemConfig, me: ReplicaId) -> Self {
        let n = cfg.shard(me.shard).n;
        let pbft = PbftCore::new(
            me,
            PbftConfig {
                n,
                checkpoint_interval: 128,
                external_checkpoints: false,
                local_timeout: cfg.timers.local,
            },
        );
        SharperReplica {
            pbft,
            pool_single: Vec::new(),
            pool_cst: BTreeMap::new(),
            flush_armed: false,
            next_batch: (me.shard.0 as u64) << 40,
            next_gseq: 1,
            xtxns: HashMap::new(),
            cfg,
            me,
            executed: 0,
        }
    }

    fn involved_replicas<'a>(
        &'a self,
        involved: &'a [ShardId],
    ) -> impl Iterator<Item = NodeId> + 'a {
        let me = self.me;
        involved.iter().flat_map(move |s| {
            let n = self.cfg.shard(*s).n as u32;
            (0..n)
                .filter(move |i| !(*s == me.shard && *i == me.index))
                .map(move |i| NodeId::Replica(ReplicaId::new(*s, i)))
        })
    }

    fn drive<F>(&mut self, _now: Instant, f: F, out: &mut Outbox<ShardedMsg>)
    where
        F: FnOnce(&mut PbftCore, &mut Outbox<PbftMsg>, &mut Vec<PbftEvent>),
    {
        let mut pout = Outbox::new();
        let mut events = Vec::new();
        f(&mut self.pbft, &mut pout, &mut events);
        for a in pout.take() {
            match a.map_msg(ShardedMsg::Pbft) {
                Action::Send { to, msg } => out.send(to, msg),
                Action::SendMany { tos, msg } => out.send_many(tos, msg),
                Action::SetTimer { kind, token, after } => out.set_timer(kind, token, after),
                Action::CancelTimer { kind, token } => out.cancel_timer(kind, token),
                Action::Executed { seq, txns } => out.executed(seq, txns),
                Action::ViewChanged { view } => out.view_changed(view),
            }
        }
        for e in events {
            if let PbftEvent::Committed {
                seq, digest, batch, ..
            } = e
            {
                // Local consensus only orders single-shard batches.
                self.executed += 1;
                out.executed(seq.0, batch.len() as u32);
                reply_clients(out, digest, &batch);
            }
        }
    }

    /// Handles a delivered message.
    pub fn on_message(
        &mut self,
        now: Instant,
        from: NodeId,
        msg: ShardedMsg,
        out: &mut Outbox<ShardedMsg>,
    ) {
        match msg {
            ShardedMsg::Request { txn, relayed } => self.on_request(now, txn, relayed, out),
            ShardedMsg::Pbft(m) => {
                let NodeId::Replica(r) = from else { return };
                if r.shard != self.me.shard {
                    return;
                }
                self.drive(now, |p, po, ev| p.on_message(now, r, m, po, ev), out);
            }
            ShardedMsg::XPreprepare { digest, batch, .. } => {
                self.on_xpreprepare(digest, batch, out)
            }
            ShardedMsg::XPrepare { digest, shard, .. } => {
                let NodeId::Replica(r) = from else { return };
                if r.shard != shard {
                    return;
                }
                self.on_xprepare(digest, shard, r.index, out);
            }
            ShardedMsg::XCommit { digest, shard, .. } => {
                let NodeId::Replica(r) = from else { return };
                if r.shard != shard {
                    return;
                }
                self.on_xcommit(digest, shard, r.index, out);
            }
            _ => {}
        }
    }

    /// Handles a timer.
    pub fn on_timer(
        &mut self,
        now: Instant,
        kind: TimerKind,
        token: u64,
        out: &mut Outbox<ShardedMsg>,
    ) {
        if kind == TimerKind::Client && token == FLUSH_TOKEN {
            self.flush_armed = false;
            self.flush(now, true, out);
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

    fn on_request(
        &mut self,
        now: Instant,
        txn: Arc<Transaction>,
        relayed: bool,
        out: &mut Outbox<ShardedMsg>,
    ) {
        let involved = txn.involved_shards();
        let initiator = sharper_initiator(&txn);
        if initiator != self.me.shard {
            if !relayed {
                out.send(
                    NodeId::Replica(ReplicaId::new(initiator, 0)),
                    ShardedMsg::Request { txn, relayed: true },
                );
            }
            return;
        }
        if !self.pbft.is_primary() {
            let primary = ReplicaId::new(self.me.shard, self.pbft.primary_index());
            out.send(
                NodeId::Replica(primary),
                ShardedMsg::Request { txn, relayed: true },
            );
            return;
        }
        if involved.len() == 1 {
            self.pool_single.push((*txn).clone());
        } else {
            self.pool_cst
                .entry(involved)
                .or_default()
                .push((*txn).clone());
        }
        self.flush(now, false, out);
        if !self.flush_armed
            && (!self.pool_single.is_empty() || self.pool_cst.values().any(|p| !p.is_empty()))
        {
            self.flush_armed = true;
            out.set_timer(TimerKind::Client, FLUSH_TOKEN, self.cfg.timers.local / 4);
        }
    }

    fn flush(&mut self, now: Instant, force: bool, out: &mut Outbox<ShardedMsg>) {
        let bs = self.cfg.batch_size;
        // Single-shard batches → local PBFT.
        while self.pool_single.len() >= bs || (force && !self.pool_single.is_empty()) {
            let take = self.pool_single.len().min(bs);
            let txns: Vec<Transaction> = self.pool_single.drain(..take).collect();
            let id = BatchId(self.next_batch);
            self.next_batch += 1;
            let batch = Arc::new(Batch::new(id, txns));
            self.drive(
                now,
                |p, po, ev| {
                    p.propose(now, batch, po, ev);
                },
                out,
            );
        }
        // Cross-shard batches → global consensus.
        let keys: Vec<Vec<ShardId>> = self
            .pool_cst
            .iter()
            .filter(|(_, p)| p.len() >= bs || (force && !p.is_empty()))
            .map(|(k, _)| k.clone())
            .collect();
        for key in keys {
            loop {
                let pool = self.pool_cst.get_mut(&key).expect("pool exists");
                if pool.is_empty() || (pool.len() < bs && !force) {
                    break;
                }
                let take = pool.len().min(bs);
                let txns: Vec<Transaction> = pool.drain(..take).collect();
                let id = BatchId(self.next_batch);
                self.next_batch += 1;
                let batch = Arc::new(Batch::new(id, txns));
                self.propose_global(batch, out);
            }
        }
    }

    fn propose_global(&mut self, batch: Arc<Batch>, out: &mut Outbox<ShardedMsg>) {
        let digest = batch_digest(&batch);
        let gseq = self.next_gseq;
        self.next_gseq += 1;
        let involved = batch.involved_shards();
        let msg = ShardedMsg::XPreprepare {
            gseq,
            digest,
            batch: Arc::clone(&batch),
        };
        out.multicast(self.involved_replicas(&involved), &msg);
        // Handle our own copy directly.
        self.on_xpreprepare(digest, batch, out);
    }

    fn on_xpreprepare(&mut self, digest: Digest, batch: Arc<Batch>, out: &mut Outbox<ShardedMsg>) {
        let involved = batch.involved_shards();
        if !involved.contains(&self.me.shard) {
            return;
        }
        {
            let state = self.xtxns.entry(digest).or_default();
            if state.batch.is_some() {
                return;
            }
            state.batch = Some(batch);
            state.involved = involved.clone();
        }
        // Global prepare: broadcast to every involved replica.
        let msg = ShardedMsg::XPrepare {
            gseq: 0,
            digest,
            shard: self.me.shard,
        };
        out.multicast(self.involved_replicas(&involved), &msg);
        let me = (self.me.shard, self.me.index);
        self.on_xprepare(digest, me.0, me.1, out);
    }

    fn quorums_met(&self, votes: &HashMap<ShardId, HashSet<u32>>, involved: &[ShardId]) -> bool {
        !involved.is_empty()
            && involved
                .iter()
                .all(|s| votes.get(s).map_or(0, |v| v.len()) >= self.cfg.shard(*s).nf())
    }

    fn on_xprepare(
        &mut self,
        digest: Digest,
        shard: ShardId,
        from: u32,
        out: &mut Outbox<ShardedMsg>,
    ) {
        let (ready, involved) = {
            let state = self.xtxns.entry(digest).or_default();
            state.prepares.entry(shard).or_default().insert(from);
            (
                state.batch.is_some() && !state.prepared,
                state.involved.clone(),
            )
        };
        if !ready {
            return;
        }
        let met = {
            let state = &self.xtxns[&digest];
            self.quorums_met(&state.prepares, &involved)
        };
        if !met {
            return;
        }
        self.xtxns.get_mut(&digest).expect("state exists").prepared = true;
        let msg = ShardedMsg::XCommit {
            gseq: 0,
            digest,
            shard: self.me.shard,
        };
        out.multicast(self.involved_replicas(&involved), &msg);
        let me = (self.me.shard, self.me.index);
        self.on_xcommit(digest, me.0, me.1, out);
    }

    fn on_xcommit(
        &mut self,
        digest: Digest,
        shard: ShardId,
        from: u32,
        out: &mut Outbox<ShardedMsg>,
    ) {
        let (ready, involved) = {
            let state = self.xtxns.entry(digest).or_default();
            state.commits.entry(shard).or_default().insert(from);
            (
                state.batch.is_some() && !state.executed,
                state.involved.clone(),
            )
        };
        if !ready {
            return;
        }
        let met = {
            let state = &self.xtxns[&digest];
            self.quorums_met(&state.commits, &involved)
        };
        if !met {
            return;
        }
        let batch = {
            let state = self.xtxns.get_mut(&digest).expect("state exists");
            state.executed = true;
            state.batch.clone().expect("checked ready")
        };
        self.executed += 1;
        out.executed(0, batch.len() as u32);
        // The initiator shard answers the client.
        if involved.first() == Some(&self.me.shard) {
            reply_clients(out, digest, &batch);
        }
    }
}

/// Sends one `Reply` per distinct client of `batch`.
fn reply_clients(out: &mut Outbox<ShardedMsg>, digest: Digest, batch: &Batch) {
    let mut by_client: BTreeMap<ClientId, Vec<TxnId>> = BTreeMap::new();
    for t in &batch.txns {
        by_client.entry(t.client).or_default().push(t.id);
    }
    for (client, txn_ids) in by_client {
        out.send(
            NodeId::Client(client),
            ShardedMsg::Reply {
                client,
                digest,
                txn_ids,
            },
        );
    }
}
