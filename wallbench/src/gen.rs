//! The benchmark's load generator: one [`ProtocolNode`] hosting many
//! logical clients, addressing only the shard primaries.
//!
//! It differs from the simulator's `SimClient` in three ways that matter
//! on a real clock:
//!
//! * Open loop issues **every overdue arrival** on each wake-up and times
//!   each request from the instant it was *due*, so a generator that
//!   stalls charges the stall to the requests it delayed (and records how
//!   late it ran). One timer per arrival cannot keep up over real sockets.
//! * Latencies go into histograms, not an ever-growing `Vec`.
//! * Reply votes are dropped as soon as their transactions complete, and a
//!   periodic sweep removes votes whose transactions all completed through
//!   another digest, so memory stays bounded by the requests in flight.

use crate::stats::{hist, Windows};
use ringbft_core::RingMsg;
use ringbft_obs::Histogram;
use ringbft_sim::AnyMsg;
use ringbft_types::txn::Digest;
use ringbft_types::{
    Action, ClientId, Duration, Instant, NodeId, Outbox, ProtocolNode, ReplicaId, RingOrder,
    SystemConfig, TimerKind, TxnId,
};
use ringbft_workload::arrivals::{ArrivalGen, ArrivalProcess};
use ringbft_workload::WorkloadGen;
use std::collections::HashMap;
use std::sync::Arc;

const ARRIVAL_TOKEN: u64 = 0;
const SWEEP_TOKEN: u64 = 1;
const SWEEP_EVERY: Duration = Duration::from_secs(1);

/// How requests are offered.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Load {
    /// Each logical client keeps one request in flight.
    Closed,
    /// Poisson arrivals at this mean rate, round-robin over the clients.
    Open { rate_tps: f64 },
}

struct InFlight {
    /// When the request was due: its send time in closed loop, its
    /// scheduled arrival in open loop.
    due: Instant,
    client: ClientId,
    cross_shard: bool,
}

/// Replies received for one `(batch digest, client)`.
struct Votes {
    /// One bit per replica (`shard · n + index`).
    senders: u64,
    /// The transaction ids the first reply named; later replies must match.
    txn_ids: Vec<TxnId>,
}

/// What the generator observed; read by the benchmark after the run.
pub struct Record {
    /// Requests sent.
    pub issued: u64,
    /// Requests completed by f+1 matching replies.
    pub completed: u64,
    /// When the first request completed.
    pub first_quorum: Option<Instant>,
    /// Measured window `[start, end)` in clock nanoseconds.
    window: (u64, u64),
    /// Completions inside the window, and how many of them crossed shards.
    pub window_completed: u64,
    pub window_cross: u64,
    /// Latency (ns, from due time) of requests due inside the window.
    pub latency: Histogram,
    /// Per-second completions and latencies inside the window.
    pub windows: Windows,
    /// How late (ns) each open-loop request was issued after it was due.
    pub late: Histogram,
    /// Nanoseconds spent generating requests (over all `issued`).
    pub gen_ns: u64,
    /// Replies whose transaction ids disagreed with earlier replies for
    /// the same `(digest, client)`; they never count towards a quorum.
    pub mismatched: u64,
}

impl Record {
    pub(crate) fn new() -> Record {
        Record {
            issued: 0,
            completed: 0,
            first_quorum: None,
            window: (u64::MAX, u64::MAX),
            window_completed: 0,
            window_cross: 0,
            latency: hist(),
            windows: Windows::new(0, 1, 0),
            late: hist(),
            gen_ns: 0,
            mismatched: 0,
        }
    }

    fn in_window(&self, t: Instant) -> bool {
        (self.window.0..self.window.1).contains(&t.0)
    }
}

/// The generator node.
pub struct Generator {
    gen: WorkloadGen,
    ring: RingOrder,
    trace_rate: u64,
    replicas_per_shard: u32,
    quorum: u32,
    clients: Vec<ClientId>,
    cursor: usize,
    arrivals: Option<ArrivalGen>,
    next_due: Instant,
    issuing: bool,
    in_flight: HashMap<TxnId, InFlight>,
    votes: HashMap<(Digest, ClientId), Votes>,
    /// Observations.
    pub rec: Record,
}

impl Generator {
    /// Hosts logical clients `first_id..first_id + count` offering `load`;
    /// every input is derived from `seed`.
    pub fn new(cfg: &SystemConfig, seed: u64, first_id: u64, count: u64, load: Load) -> Generator {
        let n = cfg.shards[0].n;
        assert!(cfg.z() * n <= 64, "reply votes are tracked in a 64-bit set");
        let mut gen = WorkloadGen::new(cfg.clone(), seed);
        gen.set_txn_namespace(first_id);
        let arrivals = match load {
            Load::Closed => None,
            Load::Open { rate_tps } => Some(ArrivalGen::new(
                ArrivalProcess::Poisson { rate_tps },
                seed ^ 0x5eed_a771_7a15,
            )),
        };
        Generator {
            gen,
            ring: cfg.ring_order(),
            trace_rate: cfg.trace_sample_rate,
            replicas_per_shard: n as u32,
            quorum: (cfg.shards[0].f() + 1) as u32,
            clients: (first_id..first_id + count).map(ClientId).collect(),
            cursor: 0,
            arrivals,
            next_due: Instant::ZERO,
            issuing: true,
            in_flight: HashMap::new(),
            votes: HashMap::new(),
            rec: Record::new(),
        }
    }

    /// Sets the measured window `[start, end)` (clock nanoseconds) and its
    /// per-second series.
    pub fn set_window(&mut self, start: u64, end: u64) {
        const SEC: u64 = 1_000_000_000;
        self.rec.window = (start, end);
        self.rec.windows = Windows::new(start, SEC, (end - start).div_ceil(SEC) as usize);
    }

    /// Stops issuing; requests in flight may still complete.
    pub fn stop_issuing(&mut self) {
        self.issuing = false;
    }

    /// Requests sent and not yet completed.
    pub fn in_flight_len(&self) -> usize {
        self.in_flight.len()
    }

    fn issue(&mut self, due: Instant, now: Instant, client: ClientId, out: &mut Outbox<AnyMsg>) {
        let t = std::time::Instant::now();
        let mut txn = self.gen.next_txn(client);
        // Same deterministic sampling as the simulator's client, so the
        // replicas stamp spans for the same share of transactions.
        if ringbft_types::trace::sampled(txn.id.0, self.trace_rate) {
            txn.trace = Some(ringbft_types::TraceContext::new(
                ringbft_types::trace::trace_id_for(txn.id.0),
            ));
        }
        let involved = txn.involved_shards();
        let primary = ReplicaId::new(self.ring.first(&involved), 0);
        self.in_flight.insert(
            txn.id,
            InFlight {
                due,
                client,
                cross_shard: involved.len() > 1,
            },
        );
        out.send(
            NodeId::Replica(primary),
            AnyMsg::Ring(RingMsg::Request {
                txn: Arc::new(txn),
                relayed: false,
            }),
        );
        self.rec.issued += 1;
        if self.arrivals.is_some() {
            self.rec.late.record(now.since(due).as_nanos());
        }
        self.rec.gen_ns += t.elapsed().as_nanos() as u64;
    }

    fn next_client(&mut self) -> ClientId {
        let c = self.clients[self.cursor % self.clients.len()];
        self.cursor += 1;
        c
    }

    /// Issues every arrival due by `now`, then re-arms for the next one.
    fn issue_overdue(&mut self, now: Instant, out: &mut Outbox<AnyMsg>) {
        while self.issuing && self.next_due <= now {
            let due = self.next_due;
            let client = self.next_client();
            self.issue(due, now, client, out);
            let gap = self
                .arrivals
                .as_mut()
                .expect("open loop")
                .next_interarrival();
            self.next_due += gap;
        }
        if self.issuing {
            out.set_timer(TimerKind::Client, ARRIVAL_TOKEN, self.next_due.since(now));
        }
    }

    fn complete(&mut self, now: Instant, fl: InFlight, out: &mut Outbox<AnyMsg>) {
        self.rec.completed += 1;
        self.rec.first_quorum.get_or_insert(now);
        let latency = now.since(fl.due).as_nanos();
        if self.rec.in_window(fl.due) {
            self.rec.latency.record(latency);
        }
        self.rec.windows.record(now.0, latency);
        if self.rec.in_window(now) {
            self.rec.window_completed += 1;
            self.rec.window_cross += fl.cross_shard as u64;
        }
        if self.arrivals.is_none() && self.issuing {
            self.issue(now, now, fl.client, out);
        }
    }

    fn on_reply(
        &mut self,
        now: Instant,
        from: ReplicaId,
        key: (Digest, ClientId),
        txn_ids: Vec<TxnId>,
        out: &mut Outbox<AnyMsg>,
    ) {
        let bit = 1u64 << (from.shard.0 * self.replicas_per_shard + from.index);
        let votes = match self.votes.get_mut(&key) {
            Some(v) => v,
            // Late replies for completed transactions open no entry.
            None if !txn_ids.iter().any(|id| self.in_flight.contains_key(id)) => return,
            None => self.votes.entry(key).or_insert(Votes {
                senders: 0,
                txn_ids: txn_ids.clone(),
            }),
        };
        if votes.txn_ids != txn_ids {
            self.rec.mismatched += 1;
            return;
        }
        votes.senders |= bit;
        if votes.senders.count_ones() < self.quorum {
            return;
        }
        let done = self.votes.remove(&key).expect("votes present");
        for id in done.txn_ids {
            if let Some(fl) = self.in_flight.remove(&id) {
                self.complete(now, fl, out);
            }
        }
    }
}

impl ProtocolNode<AnyMsg> for Generator {
    fn on_start(&mut self, now: Instant) -> Vec<Action<AnyMsg>> {
        let mut out = Outbox::new();
        out.set_timer(TimerKind::Client, SWEEP_TOKEN, SWEEP_EVERY);
        match self.arrivals.as_mut() {
            Some(a) => {
                self.next_due = now + a.next_interarrival();
                out.set_timer(TimerKind::Client, ARRIVAL_TOKEN, self.next_due.since(now));
            }
            None => {
                for i in 0..self.clients.len() {
                    self.issue(now, now, self.clients[i], &mut out);
                }
            }
        }
        out.take()
    }

    fn on_message(&mut self, now: Instant, from: NodeId, msg: AnyMsg) -> Vec<Action<AnyMsg>> {
        let mut out = Outbox::new();
        if let (
            NodeId::Replica(r),
            AnyMsg::Ring(RingMsg::Reply {
                client,
                digest,
                txn_ids,
            }),
        ) = (from, msg)
        {
            self.on_reply(now, r, (digest, client), txn_ids, &mut out);
        }
        out.take()
    }

    fn on_timer(&mut self, now: Instant, kind: TimerKind, token: u64) -> Vec<Action<AnyMsg>> {
        let mut out = Outbox::new();
        match (kind, token) {
            (TimerKind::Client, ARRIVAL_TOKEN) => self.issue_overdue(now, &mut out),
            (TimerKind::Client, SWEEP_TOKEN) => {
                let in_flight = &self.in_flight;
                self.votes
                    .retain(|_, v| v.txn_ids.iter().any(|id| in_flight.contains_key(id)));
                out.set_timer(TimerKind::Client, SWEEP_TOKEN, SWEEP_EVERY);
            }
            _ => {}
        }
        out.take()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ringbft_types::{ProtocolKind, ShardId};

    const MS: u64 = 1_000_000;

    fn cfg() -> SystemConfig {
        let mut cfg = SystemConfig::uniform(ProtocolKind::RingBft, 2, 4);
        cfg.cross_shard_rate = 0.0;
        cfg
    }

    /// Requests sent by `actions`, as `(primary, txn id, client)`.
    fn requests(actions: &[Action<AnyMsg>]) -> Vec<(ReplicaId, TxnId, ClientId)> {
        actions
            .iter()
            .filter_map(|a| match a {
                Action::Send {
                    to: NodeId::Replica(r),
                    msg: AnyMsg::Ring(RingMsg::Request { txn, .. }),
                } => Some((*r, txn.id, txn.client)),
                _ => None,
            })
            .collect()
    }

    fn reply(g: &mut Generator, now: u64, from: ReplicaId, req: (ReplicaId, TxnId, ClientId)) {
        let msg = AnyMsg::Ring(RingMsg::Reply {
            client: req.2,
            digest: [req.1 .0 as u8; 32],
            txn_ids: vec![req.1],
        });
        g.on_message(Instant(now), NodeId::Replica(from), msg);
    }

    #[test]
    fn stalled_open_loop_charges_requests_their_wait() {
        let mut g = Generator::new(&cfg(), 7, 1, 10, Load::Open { rate_tps: 1000.0 });
        g.set_window(0, 1_000 * MS);
        let start = g.on_start(Instant::ZERO);
        assert!(
            requests(&start).is_empty(),
            "open loop waits for its first arrival"
        );
        // The generator's next wake comes 100 ms late: every arrival due
        // by then goes out at once, each remembered with its due time.
        let sent = requests(&g.on_timer(Instant(100 * MS), TimerKind::Client, ARRIVAL_TOKEN));
        assert!(sent.len() > 50, "{} arrivals issued", sent.len());
        assert_eq!(sent.len(), g.in_flight.len());
        let dues: Vec<u64> = sent.iter().map(|s| g.in_flight[&s.1].due.0).collect();
        assert!(dues.iter().all(|&d| d <= 100 * MS));
        assert!(g.next_due.0 > 100 * MS);
        // Lateness is recorded per request: the earliest waited longest.
        let max_late = 100 * MS - dues.iter().min().unwrap();
        assert!(g.rec.late.max().abs_diff(max_late) <= max_late / 256);
        // f+1 = 2 replies at 110 ms complete each request; its latency is
        // 110 ms minus its due time, not the 10 ms since it was sent.
        for s in &sent {
            reply(&mut g, 110 * MS, s.0, *s);
            reply(&mut g, 110 * MS, ReplicaId::new(s.0.shard, 1), *s);
        }
        assert_eq!(g.rec.completed, sent.len() as u64);
        let want_mean = dues.iter().map(|d| (110 * MS - d) as f64).sum::<f64>() / dues.len() as f64;
        assert!(
            (g.rec.latency.mean() - want_mean).abs() < 1.0,
            "mean {}",
            g.rec.latency.mean()
        );
        assert!(g.rec.latency.min() >= 10 * MS);
        assert_eq!(g.in_flight_len(), 0);
        assert!(g.votes.is_empty(), "completed votes are pruned");
    }

    #[test]
    fn completion_needs_f_plus_one_matching_replies() {
        let mut g = Generator::new(&cfg(), 3, 1, 1, Load::Closed);
        let sent = requests(&g.on_start(Instant::ZERO));
        assert_eq!(sent.len(), 1);
        let req = sent[0];
        assert_eq!(req.0.index, 0, "requests go to the primary");
        // The same replica twice is one vote.
        reply(&mut g, MS, req.0, req);
        reply(&mut g, MS, req.0, req);
        assert_eq!(g.rec.completed, 0);
        // A reply naming other transactions for the same key does not vote.
        let bad = AnyMsg::Ring(RingMsg::Reply {
            client: req.2,
            digest: [req.1 .0 as u8; 32],
            txn_ids: vec![req.1, TxnId(req.1 .0 + 1)],
        });
        g.on_message(
            Instant(MS),
            NodeId::Replica(ReplicaId::new(req.0.shard, 2)),
            bad,
        );
        assert_eq!((g.rec.completed, g.rec.mismatched), (0, 1));
        // A second distinct replica completes it and the closed loop
        // issues the client's next request.
        let out = g.on_message(
            Instant(2 * MS),
            NodeId::Replica(ReplicaId::new(req.0.shard, 3)),
            AnyMsg::Ring(RingMsg::Reply {
                client: req.2,
                digest: [req.1 .0 as u8; 32],
                txn_ids: vec![req.1],
            }),
        );
        assert_eq!(g.rec.completed, 1);
        assert_eq!(requests(&out).len(), 1);
        // A late third reply for the completed request is dropped.
        reply(
            &mut g,
            3 * MS,
            ReplicaId::new(ShardId(req.0.shard.0), 1),
            req,
        );
        assert_eq!(g.rec.completed, 1);
        assert_eq!(g.votes.len(), 0);
    }

    #[test]
    fn sweep_drops_votes_of_completed_transactions() {
        let mut g = Generator::new(&cfg(), 5, 1, 1, Load::Closed);
        let req = requests(&g.on_start(Instant::ZERO))[0];
        // One vote under a second digest, then completion under the first.
        let other = AnyMsg::Ring(RingMsg::Reply {
            client: req.2,
            digest: [0xee; 32],
            txn_ids: vec![req.1],
        });
        g.on_message(Instant(MS), NodeId::Replica(req.0), other);
        reply(&mut g, MS, req.0, req);
        reply(&mut g, MS, ReplicaId::new(req.0.shard, 1), req);
        g.stop_issuing();
        assert_eq!(g.votes.len(), 1);
        g.on_timer(Instant(2 * MS), TimerKind::Client, SWEEP_TOKEN);
        assert!(g.votes.is_empty());
    }
}
