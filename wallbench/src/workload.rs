//! The benchmark's workloads.

use crate::gen::Load;
use ringbft_types::{Durability, ProtocolKind, SystemConfig};

/// One traffic mix against a 2-shard × 4-replica RingBFT cluster.
pub struct Workload {
    pub name: &'static str,
    pub load: Load,
    /// Logical clients hosted by the generator.
    pub clients: u64,
    pub cross_shard_rate: f64,
    /// Replicas log to a file-backed WAL with `durability: strict`.
    pub wal: bool,
    /// Why the workload is in the benchmark.
    pub why: &'static str,
}

/// Every workload, by name.
pub const WORKLOADS: &[Workload] = &[
    Workload {
        name: "single_shard",
        load: Load::Closed,
        clients: 500,
        cross_shard_rate: 0.0,
        wal: false,
        why: "ceiling of the intra-shard path (pbft, codec, crypto, reactor) while the ring path idles",
    },
    Workload {
        name: "cross_shard",
        load: Load::Closed,
        clients: 500,
        cross_shard_rate: 1.0,
        wal: false,
        why: "the paper's case: ring forwarding, the lock manager and the linear primitive do most of the work",
    },
    Workload {
        name: "paper_open",
        // At 6000 tps on a 2-core host the window's p99 is its single
        // longest checkpoint stall (every replica spends 70-150 ms in one
        // Commit call every ~3 s): 89-450 ms across seeds. At 3000 tps
        // latency is mostly batch-fill wait and the same stall shows
        // steadily in p99.
        load: Load::Open { rate_tps: 3_000.0 },
        clients: 500,
        cross_shard_rate: 0.30,
        wal: true,
        why: "independent users on a schedule: partial batches through admission and batching; the only WAL writer",
    },
];

impl Workload {
    /// Looks a workload up by name.
    pub fn by_name(name: &str) -> Option<&'static Workload> {
        WORKLOADS.iter().find(|w| w.name == name)
    }

    /// The cluster configuration: `ringbft-node --example-config 2 4` on
    /// a 2-core host (batch 100, 600k keys, timers 2/4/6/8 s, trace
    /// sample rate 64, one reactor, no pipeline workers), with this
    /// workload's mix.
    pub fn config(&self) -> SystemConfig {
        let mut cfg = SystemConfig::uniform(ProtocolKind::RingBft, 2, 4);
        cfg.pipeline_workers = 0;
        cfg.clients = self.clients as usize;
        cfg.cross_shard_rate = self.cross_shard_rate;
        if self.wal {
            cfg.durability = Durability::Strict;
        }
        cfg
    }
}
