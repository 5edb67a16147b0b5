//! AHL (Dang et al., SIGMOD'19): sharding with a designated **reference
//! committee** that globally orders every cross-shard transaction and
//! drives two-phase commit against the involved shards (§2).
//!
//! Flow reproduced here:
//!
//! 1. clients send csts to the committee's primary; the committee runs
//!    PBFT to order the cst;
//! 2. committee replicas fan `PrepareReq` out to *every* replica of every
//!    involved shard (all-to-all);
//! 3. each involved shard runs PBFT on the request and sends its 2PC
//!    vote to *every* committee replica (all-to-all);
//! 4. the committee runs a second PBFT round to agree on the decision;
//! 5. committee replicas fan the `Decision` out to the involved shards,
//!    which execute; the lowest-id involved shard answers the client.
//!
//! Single-shard transactions bypass the committee entirely (plain PBFT
//! inside the owning shard), exactly as in the paper's evaluation setup.
//!
//! Scope note (DESIGN.md): the baselines reproduce AHL's *communication
//! pattern and phase structure*, which determine its Figure 8 performance;
//! state-machine storage effects are modeled only for RingBFT.

use crate::messages::ShardedMsg;
use ringbft_crypto::Digest;
use ringbft_pbft::{PbftConfig, PbftCore, PbftEvent, PbftMsg};
use ringbft_types::txn::{Batch, Transaction};
use ringbft_types::{
    Action, BatchId, ClientId, Instant, NodeId, Outbox, ReplicaId, SeqNum, ShardId, SystemConfig,
    TimerKind, TxnId,
};
use std::collections::{BTreeMap, HashMap, HashSet};
use std::sync::Arc;

const FLUSH_TOKEN: u64 = (1 << 62) - 1;

/// Is this node a data-shard replica or a reference-committee member?
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AhlRole {
    /// Replica of a data shard.
    Shard,
    /// Member of the reference committee.
    Committee,
}

#[derive(Debug, Default)]
struct CommitteeTxn {
    batch: Option<Arc<Batch>>,
    involved: Vec<ShardId>,
    /// PBFT rounds completed at the committee: 1 = ordered, 2 = decided.
    rounds: u8,
    /// 2PC votes: shard → distinct shard-replica senders.
    votes: HashMap<ShardId, HashSet<u32>>,
    decision_proposed: bool,
    decided: bool,
}

#[derive(Debug, Default)]
struct ShardTxn {
    batch: Option<Arc<Batch>>,
    /// Distinct committee senders of PrepareReq.
    prepare_from: HashSet<u32>,
    proposed: bool,
    voted: bool,
    /// Distinct committee senders of Decision.
    decision_from: HashSet<u32>,
    executed: bool,
}

/// An AHL node (shard replica or committee member).
pub struct AhlReplica {
    cfg: SystemConfig,
    me: ReplicaId,
    role: AhlRole,
    /// Committee pseudo-shard id = `z` (one past the data shards).
    committee_shard: ShardId,
    pbft: PbftCore,
    /// Single-shard pools (shard primaries) / cst pool (committee primary).
    pool: Vec<Transaction>,
    pool_flush_armed: bool,
    next_batch: u64,
    committee_txns: HashMap<Digest, CommitteeTxn>,
    shard_txns: HashMap<Digest, ShardTxn>,
    /// Executed batches (diagnostics).
    pub executed: u64,
}

impl AhlReplica {
    /// Creates a node. Committee members use `ShardId(cfg.z())` as their
    /// pseudo-shard with the same replication degree as shard 0.
    pub fn new(cfg: SystemConfig, me: ReplicaId, role: AhlRole) -> Self {
        let committee_shard = ShardId(cfg.z() as u32);
        let n = match role {
            AhlRole::Shard => cfg.shard(me.shard).n,
            AhlRole::Committee => cfg.shards[0].n,
        };
        let pbft = PbftCore::new(
            me,
            PbftConfig {
                n,
                checkpoint_interval: 128,
                external_checkpoints: false,
                local_timeout: cfg.timers.local,
            },
        );
        AhlReplica {
            committee_shard,
            pbft,
            pool: Vec::new(),
            pool_flush_armed: false,
            next_batch: ((me.shard.0 as u64) << 40) | ((role == AhlRole::Committee) as u64) << 56,
            committee_txns: HashMap::new(),
            shard_txns: HashMap::new(),
            executed: 0,
            cfg,
            me,
            role,
        }
    }

    /// The committee's pseudo-shard id for a system of `z` shards.
    pub fn committee_shard_of(cfg: &SystemConfig) -> ShardId {
        ShardId(cfg.z() as u32)
    }

    /// Committee size (same as shard 0's replication degree).
    pub fn committee_size(cfg: &SystemConfig) -> usize {
        cfg.shards[0].n
    }

    fn committee_members(&self) -> impl Iterator<Item = NodeId> + '_ {
        let shard = self.committee_shard;
        let n = Self::committee_size(&self.cfg) as u32;
        (0..n).map(move |i| NodeId::Replica(ReplicaId::new(shard, i)))
    }

    fn involved_replicas<'a>(
        &'a self,
        involved: &'a [ShardId],
    ) -> impl Iterator<Item = NodeId> + 'a {
        involved.iter().flat_map(move |s| {
            let n = self.cfg.shard(*s).n as u32;
            (0..n).map(move |i| NodeId::Replica(ReplicaId::new(*s, i)))
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
                self.on_local_commit(seq, digest, batch, out);
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
            ShardedMsg::PrepareReq { digest, batch } => {
                let NodeId::Replica(r) = from else { return };
                if self.role != AhlRole::Shard || r.shard != self.committee_shard {
                    return;
                }
                self.on_prepare_req(now, digest, batch, r.index, out);
            }
            ShardedMsg::Vote2pc {
                digest,
                shard,
                commit,
            } => {
                let NodeId::Replica(r) = from else { return };
                if self.role != AhlRole::Committee || r.shard != shard {
                    return;
                }
                self.on_vote(now, digest, shard, commit, r.index, out);
            }
            ShardedMsg::Decision { digest, commit } => {
                let NodeId::Replica(r) = from else { return };
                if self.role != AhlRole::Shard || r.shard != self.committee_shard {
                    return;
                }
                self.on_decision(digest, commit, r.index, out);
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
            self.pool_flush_armed = false;
            self.flush_pool(now, true, out);
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
        let is_cst = involved.len() > 1;
        // Route: csts belong to the committee; single-shard to the shard.
        let belongs_here = match self.role {
            AhlRole::Committee => is_cst,
            AhlRole::Shard => !is_cst && involved.first() == Some(&self.me.shard),
        };
        if !belongs_here {
            if !relayed {
                let target = if is_cst {
                    ReplicaId::new(self.committee_shard, 0)
                } else {
                    ReplicaId::new(involved[0], 0)
                };
                out.send(
                    NodeId::Replica(target),
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
        self.pool.push((*txn).clone());
        self.flush_pool(now, false, out);
        if !self.pool.is_empty() && !self.pool_flush_armed {
            self.pool_flush_armed = true;
            out.set_timer(TimerKind::Client, FLUSH_TOKEN, self.cfg.timers.local / 4);
        }
    }

    fn flush_pool(&mut self, now: Instant, force: bool, out: &mut Outbox<ShardedMsg>) {
        // Group pooled transactions by involved-shard set (blocks must
        // share involvement, §7) and cut batches.
        while !self.pool.is_empty() {
            let key = self.pool[0].involved_shards();
            let mut group: Vec<Transaction> = Vec::new();
            let mut rest: Vec<Transaction> = Vec::new();
            for t in self.pool.drain(..) {
                if t.involved_shards() == key && group.len() < self.cfg.batch_size {
                    group.push(t);
                } else {
                    rest.push(t);
                }
            }
            self.pool = rest;
            if group.len() < self.cfg.batch_size && !force {
                // Put the partial group back and wait for more.
                self.pool.extend(group);
                break;
            }
            let id = BatchId(self.next_batch);
            self.next_batch += 1;
            let batch = Arc::new(Batch::new(id, group));
            self.drive(
                now,
                |p, po, ev| {
                    p.propose(now, batch, po, ev);
                },
                out,
            );
            if !force {
                break;
            }
        }
    }

    fn on_local_commit(
        &mut self,
        seq: SeqNum,
        digest: Digest,
        batch: Arc<Batch>,
        out: &mut Outbox<ShardedMsg>,
    ) {
        match self.role {
            AhlRole::Committee => {
                let (rounds, decided, involved) = {
                    let entry = self.committee_txns.entry(digest).or_default();
                    entry.batch = Some(Arc::clone(&batch));
                    entry.involved = batch.involved_shards();
                    entry.rounds += 1;
                    (entry.rounds, entry.decided, entry.involved.clone())
                };
                if rounds == 1 {
                    // Ordered: fan PrepareReq out to all involved replicas.
                    let msg = ShardedMsg::PrepareReq {
                        digest,
                        batch: Arc::clone(&batch),
                    };
                    out.multicast(self.involved_replicas(&involved), &msg);
                } else if rounds == 2 && !decided {
                    // Decision agreed: fan it out.
                    self.committee_txns
                        .get_mut(&digest)
                        .expect("entry exists")
                        .decided = true;
                    let msg = ShardedMsg::Decision {
                        digest,
                        commit: true,
                    };
                    out.multicast(self.involved_replicas(&involved), &msg);
                }
            }
            AhlRole::Shard => {
                let involved = batch.involved_shards();
                if involved.len() <= 1 {
                    // Single-shard: execute and reply directly.
                    self.executed += 1;
                    out.executed(seq.0, batch.len() as u32);
                    reply_clients(out, digest, &batch);
                    return;
                }
                // Cross-shard vote consensus finished: vote to committee.
                let entry = self.shard_txns.entry(digest).or_default();
                if entry.voted {
                    return;
                }
                entry.voted = true;
                entry.batch = Some(batch);
                let vote = ShardedMsg::Vote2pc {
                    digest,
                    shard: self.me.shard,
                    commit: true,
                };
                out.multicast(self.committee_members(), &vote);
            }
        }
    }

    fn on_prepare_req(
        &mut self,
        now: Instant,
        digest: Digest,
        batch: Arc<Batch>,
        from: u32,
        out: &mut Outbox<ShardedMsg>,
    ) {
        let committee_f = (Self::committee_size(&self.cfg) - 1) / 3;
        let entry = self.shard_txns.entry(digest).or_default();
        entry.prepare_from.insert(from);
        if entry.batch.is_none() {
            entry.batch = Some(Arc::clone(&batch));
        }
        if entry.proposed || entry.prepare_from.len() <= committee_f {
            return;
        }
        entry.proposed = true;
        if self.pbft.is_primary() {
            self.drive(
                now,
                |p, po, ev| {
                    p.propose(now, batch, po, ev);
                },
                out,
            );
        }
    }

    fn on_vote(
        &mut self,
        now: Instant,
        digest: Digest,
        shard: ShardId,
        commit: bool,
        from: u32,
        out: &mut Outbox<ShardedMsg>,
    ) {
        if !commit {
            return; // deterministic YCSB votes never abort in this setup
        }
        let (involved, vote_counts, rounds, decision_proposed, batch) = {
            let entry = self.committee_txns.entry(digest).or_default();
            entry.votes.entry(shard).or_default().insert(from);
            let counts: Vec<(ShardId, usize)> = entry
                .involved
                .iter()
                .map(|s| (*s, entry.votes.get(s).map_or(0, |v| v.len())))
                .collect();
            (
                entry.involved.clone(),
                counts,
                entry.rounds,
                entry.decision_proposed,
                entry.batch.clone(),
            )
        };
        // A shard's vote counts once f+1 of its replicas agree.
        let all_voted =
            !involved.is_empty() && vote_counts.iter().all(|(s, c)| *c > self.cfg.shard(*s).f());
        if !all_voted || decision_proposed || rounds < 1 {
            return;
        }
        self.committee_txns
            .get_mut(&digest)
            .expect("entry exists")
            .decision_proposed = true;
        // Second committee PBFT round on the decision.
        if self.pbft.is_primary() {
            if let Some(batch) = batch {
                self.drive(
                    now,
                    |p, po, ev| {
                        p.propose(now, batch, po, ev);
                    },
                    out,
                );
            }
        }
    }

    fn on_decision(
        &mut self,
        digest: Digest,
        commit: bool,
        from: u32,
        out: &mut Outbox<ShardedMsg>,
    ) {
        if !commit {
            return;
        }
        let committee_f = (Self::committee_size(&self.cfg) - 1) / 3;
        let entry = self.shard_txns.entry(digest).or_default();
        entry.decision_from.insert(from);
        if entry.executed || entry.decision_from.len() <= committee_f {
            return;
        }
        entry.executed = true;
        self.executed += 1;
        let Some(batch) = entry.batch.clone() else {
            return;
        };
        out.executed(0, batch.len() as u32);
        // The lowest-id involved shard answers the client.
        if batch.involved_shards().first() == Some(&self.me.shard) {
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
