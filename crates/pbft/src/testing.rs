//! In-memory test cluster: drives a shard of [`PbftCore`]s to a fixpoint
//! with synchronous message delivery, optional message filtering, and
//! manual timer firing. Used by this crate's unit tests and by the
//! protocol crates' tests; it is *not* the performance simulator (that is
//! `ringbft-simnet`).

use crate::messages::PbftMsg;
use crate::replica::{PbftConfig, PbftCore, PbftEvent};
use ringbft_types::{Action, Duration, Instant, NodeId, Outbox, ReplicaId, ShardId, TimerKind};
use std::collections::{HashSet, VecDeque};

/// Predicate deciding whether a message is delivered.
pub type DropFilter = Box<dyn Fn(ReplicaId, ReplicaId, &PbftMsg) -> bool>;

/// A synchronous in-memory PBFT shard.
pub struct TestCluster {
    /// The replica cores, indexed by replica index.
    pub cores: Vec<PbftCore>,
    shard: ShardId,
    queue: VecDeque<(ReplicaId, ReplicaId, PbftMsg)>,
    /// All events emitted, tagged by replica index.
    pub events: Vec<(u32, PbftEvent)>,
    /// Currently armed timers `(replica, kind, token)`.
    pub timers: HashSet<(u32, TimerKind, u64)>,
    /// Messages dropped when this returns true.
    pub drop_filter: Option<DropFilter>,
    /// Total messages delivered (diagnostics).
    pub delivered: u64,
}

impl TestCluster {
    /// A shard of `n` replicas with a default configuration.
    pub fn new(shard: ShardId, n: usize) -> Self {
        let cfg = PbftConfig {
            n,
            checkpoint_interval: 10,
            external_checkpoints: false,
            local_timeout: Duration::from_millis(500),
        };
        Self::with_config(shard, cfg)
    }

    /// A shard with an explicit configuration.
    pub fn with_config(shard: ShardId, cfg: PbftConfig) -> Self {
        let cores = (0..cfg.n as u32)
            .map(|i| PbftCore::new(ReplicaId::new(shard, i), cfg.clone()))
            .collect();
        TestCluster {
            cores,
            shard,
            queue: VecDeque::new(),
            events: Vec::new(),
            timers: HashSet::new(),
            drop_filter: None,
            delivered: 0,
        }
    }

    /// Index of the current primary according to replica 0's view.
    pub fn primary(&self) -> u32 {
        self.cores[0].primary_index()
    }

    fn absorb(&mut self, from_idx: u32, actions: Vec<Action<PbftMsg>>) {
        for a in actions {
            match a {
                Action::Send { to, msg } => {
                    if let NodeId::Replica(r) = to {
                        debug_assert_eq!(r.shard, self.shard);
                        let from = ReplicaId::new(self.shard, from_idx);
                        self.queue.push_back((from, r, msg));
                    }
                }
                Action::SendMany { tos, msg } => {
                    for to in tos {
                        if let NodeId::Replica(r) = to {
                            debug_assert_eq!(r.shard, self.shard);
                            let from = ReplicaId::new(self.shard, from_idx);
                            self.queue.push_back((from, r, msg.clone()));
                        }
                    }
                }
                Action::SetTimer { kind, token, .. } => {
                    self.timers.insert((from_idx, kind, token));
                }
                Action::CancelTimer { kind, token } => {
                    self.timers.remove(&(from_idx, kind, token));
                }
                Action::Executed { .. } | Action::ViewChanged { .. } => {}
            }
        }
    }

    /// Primary at `idx` proposes `batch`. The cluster has no clock:
    /// every event happens at `Instant::ZERO`.
    pub fn propose(&mut self, idx: u32, batch: std::sync::Arc<ringbft_types::Batch>) {
        let mut out = Outbox::new();
        let mut events = Vec::new();
        self.cores[idx as usize].propose(Instant::ZERO, batch, &mut out, &mut events);
        for e in events {
            self.events.push((idx, e));
        }
        self.absorb(idx, out.take());
    }

    /// Delivers queued messages until quiescence, in a pseudo-random
    /// order derived from `seed` (adversarial-scheduler testing: safety
    /// must hold under any delivery order).
    pub fn deliver_all_shuffled(&mut self, mut seed: u64) {
        while !self.queue.is_empty() {
            // xorshift64* step
            seed ^= seed << 13;
            seed ^= seed >> 7;
            seed ^= seed << 17;
            let idx = (seed as usize) % self.queue.len();
            let (from, to, msg) = self.queue.remove(idx).expect("index in range");
            if let Some(f) = &self.drop_filter {
                if f(from, to, &msg) {
                    continue;
                }
            }
            self.delivered += 1;
            let mut out = Outbox::new();
            let mut events = Vec::new();
            self.cores[to.index as usize].on_message(
                Instant::ZERO,
                from,
                msg,
                &mut out,
                &mut events,
            );
            for e in events {
                self.events.push((to.index, e));
            }
            self.absorb(to.index, out.take());
        }
    }

    /// Delivers queued messages until quiescence.
    pub fn deliver_all(&mut self) {
        while let Some((from, to, msg)) = self.queue.pop_front() {
            if let Some(f) = &self.drop_filter {
                if f(from, to, &msg) {
                    continue;
                }
            }
            self.delivered += 1;
            let mut out = Outbox::new();
            let mut events = Vec::new();
            self.cores[to.index as usize].on_message(
                Instant::ZERO,
                from,
                msg,
                &mut out,
                &mut events,
            );
            for e in events {
                self.events.push((to.index, e));
            }
            self.absorb(to.index, out.take());
        }
    }

    /// Fires an armed timer on replica `idx` (simulating its expiry).
    /// Returns false if the timer was not armed.
    pub fn fire_timer(&mut self, idx: u32, kind: TimerKind, token: u64) -> bool {
        if !self.timers.remove(&(idx, kind, token)) {
            return false;
        }
        let mut out = Outbox::new();
        let mut events = Vec::new();
        self.cores[idx as usize].on_timer(kind, token, &mut out, &mut events);
        for e in events {
            self.events.push((idx, e));
        }
        self.absorb(idx, out.take());
        true
    }

    /// Sequence numbers committed by replica `idx`, in emission order.
    pub fn committed_seqs(&self, idx: u32) -> Vec<u64> {
        self.events
            .iter()
            .filter_map(|(i, e)| match e {
                PbftEvent::Committed { seq, .. } if *i == idx => Some(seq.0),
                _ => None,
            })
            .collect()
    }

    /// Views entered by replica `idx`.
    pub fn views_entered(&self, idx: u32) -> Vec<u64> {
        self.events
            .iter()
            .filter_map(|(i, e)| match e {
                PbftEvent::EnteredView { view } if *i == idx => Some(view.0),
                _ => None,
            })
            .collect()
    }
}

/// Builds a single-shard batch of `txns` read-modify-write transactions
/// over distinct keys — shared helper for protocol tests.
pub fn test_batch(
    shard: ShardId,
    batch_id: u64,
    txns: usize,
) -> std::sync::Arc<ringbft_types::Batch> {
    use ringbft_types::txn::{Operation, OperationKind, Transaction};
    use ringbft_types::{BatchId, ClientId, TxnId};
    let txns: Vec<Transaction> = (0..txns as u64)
        .map(|i| {
            Transaction::new(
                TxnId(batch_id * 1_000 + i),
                ClientId(i),
                vec![Operation {
                    shard,
                    key: batch_id * 1_000 + i,
                    kind: OperationKind::ReadModifyWrite,
                }],
            )
        })
        .collect();
    std::sync::Arc::new(ringbft_types::Batch::new(BatchId(batch_id), txns))
}
