//! Launching the cluster under test and its generator.
//!
//! Untraced runs use `LocalCluster` as a user would. Traced runs assemble
//! the same cluster from the same public parts `LocalCluster` uses, with
//! each replica wrapped in [`Traced`].

use crate::gen::{Generator, Record};
use crate::trace::{HopBoard, TraceRec, Traced};
use crate::workload::Workload;
use ringbft_core::RingReplica;
use ringbft_net::cluster::LocalCluster;
use ringbft_net::codec::FrameAuth;
use ringbft_net::runtime::{Clock, NetStatsSnapshot, NodeRuntime, PeerTable};
use ringbft_recovery::ReplicaWal;
use ringbft_sim::{AnyMsg, AnyNode};
use ringbft_types::{ClientId, NodeId, ReplicaId, SystemConfig};
use std::net::TcpListener;
use std::path::Path;
use std::sync::Arc;
use std::time::Duration;

/// The generator's node id; its logical clients follow it.
const FIRST_CLIENT: u64 = 1_000_000;

enum Replicas {
    Plain(Box<LocalCluster>),
    Traced(Vec<NodeRuntime<AnyMsg, Traced>>),
}

/// What a node needs to join a running cluster.
struct Wiring {
    clock: Clock,
    peers: PeerTable,
    auth: FrameAuth,
}

/// A running cluster plus its generator.
pub struct Bench {
    replicas: Replicas,
    gen: NodeRuntime<AnyMsg, Generator>,
    clock: Clock,
    launched: std::time::Instant,
}

/// What a stopped bench hands back.
pub struct Finished {
    /// Every runtime's reactors acknowledged the stop.
    pub clean: bool,
    pub gen: Record,
    /// Requests still without a reply quorum when the generator stopped.
    pub unanswered: u64,
    /// Per-replica trace records (traced runs only).
    pub traces: Vec<(ReplicaId, TraceRec)>,
}

/// One replica's net counters and `metrics_json()` at a point in time.
pub struct NetPoint {
    pub stats: NetStatsSnapshot,
    /// Total nanoseconds its reactor spent in `epoll_wait`.
    pub epoll_wait_ns: f64,
}

fn epoll_wait_ns(metrics_json: &str) -> f64 {
    let doc = serde_json::from_str(metrics_json).expect("runtime metrics are JSON");
    let h = doc
        .get("histograms")
        .and_then(|h| h.get("net.epoll_wait_ns"))
        .expect("epoll-wait histogram in runtime metrics");
    let field = |k| h.get(k).and_then(|v| v.as_f64()).expect("histogram field");
    field("count") * field("mean")
}

fn wal_path(dir: &Path, r: ReplicaId) -> std::path::PathBuf {
    dir.join(format!("{r}.wal"))
}

/// Assembles the cluster from public parts, as `LocalCluster::launch`
/// does, with every replica wrapped for tracing.
fn launch_traced(
    cfg: &SystemConfig,
    wal_dir: Option<&Path>,
) -> std::io::Result<(Vec<NodeRuntime<AnyMsg, Traced>>, Wiring)> {
    // `LocalCluster` re-homes the execution stage onto the runtime's
    // worker pool; with no workers there is no pool and nothing to move.
    assert_eq!(
        cfg.pipeline_workers, 0,
        "traced runs host the inline pipeline only"
    );
    let deployment = ringbft_sim::nodes::deployment(cfg);
    let auth = FrameAuth::from_seed(cfg.auth_seed);
    let peers = PeerTable::new();
    let mut listeners = Vec::new();
    for (r, _, _) in &deployment {
        let listener = TcpListener::bind("127.0.0.1:0")?;
        peers.insert(NodeId::Replica(*r), listener.local_addr()?);
        listeners.push(listener);
    }
    let clock = Clock::start();
    let hops = Arc::new(HopBoard::default());
    let mut runtimes = Vec::new();
    for ((r, _, mut node), listener) in deployment.into_iter().zip(listeners) {
        if let (Some(dir), AnyNode::Ring(ring)) = (wal_dir, &mut node) {
            let (wal, recovered) = ReplicaWal::open_file(wal_path(dir, r), cfg.durability)?;
            ring.attach_wal(wal, &recovered);
        }
        runtimes.push(NodeRuntime::launch_with_pipeline(
            NodeId::Replica(r),
            Traced::new(node, r, clock.clone(), Arc::clone(&hops)),
            listener,
            peers.clone(),
            clock.clone(),
            auth.clone(),
            cfg.reactor_shards,
            cfg.pipeline_workers,
        )?);
    }
    Ok((runtimes, Wiring { clock, peers, auth }))
}

impl Bench {
    /// Launches `w`'s cluster (with a file-backed WAL under `wal_dir` when
    /// given) and then its generator, which starts issuing at once.
    pub fn launch(
        w: &Workload,
        seed: u64,
        traced: bool,
        wal_dir: Option<&Path>,
    ) -> std::io::Result<Bench> {
        let launched = std::time::Instant::now();
        let cfg = w.config();
        let (replicas, wiring) = if traced {
            let (rts, wiring) = launch_traced(&cfg, wal_dir)?;
            (Replicas::Traced(rts), wiring)
        } else {
            let c = match wal_dir {
                Some(dir) => LocalCluster::launch_durable(cfg.clone(), dir)?,
                None => LocalCluster::launch(cfg.clone())?,
            };
            let wiring = Wiring {
                clock: c.clock().clone(),
                peers: c.peers().clone(),
                auth: c.auth().clone(),
            };
            (Replicas::Plain(Box::new(c)), wiring)
        };
        let Wiring { clock, peers, auth } = wiring;
        let host = NodeId::Client(ClientId(FIRST_CLIENT));
        let listener = TcpListener::bind("127.0.0.1:0")?;
        peers.insert(host, listener.local_addr()?);
        for c in FIRST_CLIENT + 1..FIRST_CLIENT + w.clients {
            peers.add_alias(NodeId::Client(ClientId(c)), host);
        }
        let gen = Generator::new(&cfg, seed, FIRST_CLIENT, w.clients, w.load);
        let gen =
            NodeRuntime::launch_with_shards(host, gen, listener, peers, clock.clone(), auth, 1)?;
        Ok(Bench {
            replicas,
            gen,
            clock,
            launched,
        })
    }

    /// The cluster's clock, in nanoseconds.
    pub fn now(&self) -> u64 {
        self.clock.now().0
    }

    /// Seconds from the launch call to the generator's first reply quorum,
    /// or `None` if none arrives within `timeout`.
    pub fn wait_first_quorum(&self, timeout: Duration) -> Option<f64> {
        loop {
            if let Some(t) = self.gen.with_node(|g| g.rec.first_quorum) {
                let since = Duration::from_nanos(self.now().saturating_sub(t.0));
                return Some((self.launched.elapsed().saturating_sub(since)).as_secs_f64());
            }
            if self.launched.elapsed() > timeout {
                return None;
            }
            std::thread::sleep(Duration::from_millis(1));
        }
    }

    /// Sets the measured window `[start, end)` on the generator and on
    /// every traced replica.
    pub fn set_window(&self, start: u64, end: u64) {
        self.gen.with_node(|g| g.set_window(start, end));
        if let Replicas::Traced(rts) = &self.replicas {
            for rt in rts {
                rt.with_node(|t| t.rec.window = (start, end));
            }
        }
    }

    /// Runs `f` on the generator.
    pub fn with_gen<R>(&self, f: impl FnOnce(&mut Generator) -> R) -> R {
        self.gen.with_node(f)
    }

    /// Runs `f` on every replica.
    pub fn each_replica(&self, mut f: impl FnMut(&mut RingReplica)) {
        let mut ring = |n: &mut AnyNode| {
            if let AnyNode::Ring(r) = n {
                f(r)
            }
        };
        match &self.replicas {
            Replicas::Plain(c) => c.replica_runtimes().for_each(|rt| rt.with_node(&mut ring)),
            Replicas::Traced(rts) => rts
                .iter()
                .for_each(|rt| rt.with_node(|t| ring(&mut t.inner))),
        }
    }

    /// Net counters of every replica runtime.
    pub fn replica_net(&self) -> Vec<NetPoint> {
        let point = |stats, json: String| NetPoint {
            stats,
            epoll_wait_ns: epoll_wait_ns(&json),
        };
        match &self.replicas {
            Replicas::Plain(c) => c
                .replica_runtimes()
                .map(|rt| point(rt.stats(), rt.metrics_json()))
                .collect(),
            Replicas::Traced(rts) => rts
                .iter()
                .map(|rt| point(rt.stats(), rt.metrics_json()))
                .collect(),
        }
    }

    /// Net counters of the generator's runtime.
    pub fn gen_net(&self) -> NetStatsSnapshot {
        self.gen.stats()
    }

    /// Stops the generator, then the replicas (closing their WALs).
    pub fn shutdown(self) -> Finished {
        let (gen, unanswered) = self.gen.with_node(|g| {
            let rec = std::mem::replace(&mut g.rec, Record::new());
            (rec, g.in_flight_len() as u64)
        });
        let mut clean = self.gen.shutdown().is_some();
        let mut traces = Vec::new();
        match self.replicas {
            Replicas::Plain(c) => clean &= c.shutdown(),
            Replicas::Traced(rts) => {
                // Mirrors `LocalCluster::shutdown`: the WAL is closed only
                // after the node's reactors have joined.
                for rt in rts {
                    match rt.shutdown() {
                        Some(mut t) => {
                            if let AnyNode::Ring(r) = &mut t.inner {
                                r.close_wal();
                                traces.push((r.id(), t.rec));
                            }
                        }
                        None => clean = false,
                    }
                }
            }
        }
        Finished {
            clean,
            gen,
            unanswered,
            traces,
        }
    }
}
