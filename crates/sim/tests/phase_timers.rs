//! Phase-timer attribution on the simulated network: which replica
//! records which consensus phase, how often, and from which start
//! point. Every sample here comes from one deterministic run, so the
//! counts are exact and any change to where a phase opens or closes
//! shows up as a changed number.

use ringbft_core::{Phase, ReplicaObs};
use ringbft_sim::{AnyMsg, AnyNode, SimClient};
use ringbft_simnet::{FaultPlan, Topology, World};
use ringbft_types::{ClientId, Duration, Instant, NodeId, ProtocolKind, ReplicaId, SystemConfig};
use std::collections::BTreeMap;

/// Builds a RingBFT world on a single-datacenter topology (every link
/// has the same one-way delay) with no latency jitter, one client host
/// per entry of `hosts` (its own workload config and client count),
/// and runs it for `secs` of simulated time.
fn run(
    replica_cfg: &SystemConfig,
    hosts: &[(SystemConfig, u64)],
    secs: f64,
) -> World<AnyMsg, AnyNode> {
    let mut world: World<AnyMsg, AnyNode> = World::new(Topology::local(), FaultPlan::default(), 11);
    world.set_jitter(0.0);
    for (r, region, node) in ringbft_sim::nodes::deployment(replica_cfg) {
        world.add_node(NodeId::Replica(r), region, node);
    }
    let region = replica_cfg.shards[0].region;
    let mut first_id = 1_000_000;
    for (h, (cfg, count)) in hosts.iter().enumerate() {
        let client = SimClient::new(cfg.clone(), 100 + h as u64, first_id, *count);
        let host = NodeId::Client(ClientId(first_id));
        world.add_node(host, region, AnyNode::Client(Box::new(client)));
        for c in first_id + 1..first_id + count {
            world.add_alias(NodeId::Client(ClientId(c)), host);
        }
        first_id += count;
    }
    world.start();
    world.run_until(Instant::ZERO + Duration::from_secs_f64(secs));
    world
}

fn ring_obs(world: &World<AnyMsg, AnyNode>) -> Vec<(ReplicaId, &ReplicaObs)> {
    world
        .nodes()
        .filter_map(|(id, n)| Some((id.as_replica()?, n.ring_obs()?)))
        .collect()
}

/// `phase.preprepare_commit` durations per trace id, read off the span
/// events in one replica's trace ring.
fn preprepare_commit_spans(obs: &ReplicaObs) -> BTreeMap<u64, u64> {
    let idx = Phase::ALL
        .iter()
        .position(|p| *p == Phase::PreprepareCommit)
        .unwrap() as u64;
    obs.trace
        .iter()
        .filter(|(_, ev)| ev.kind == "span" && field(ev, "phase") == Some(idx))
        .filter_map(|(_, ev)| Some((field(ev, "trace")?, field(ev, "dur_ns")?)))
        .collect()
}

fn field(ev: &ringbft_obs::TraceEvent, name: &str) -> Option<u64> {
    ev.fields.iter().find(|(k, _)| *k == name).map(|(_, v)| *v)
}

/// The primary's preprepare→commit clock starts when it proposes; a
/// backup's starts when the pre-prepare reaches it, one link delay
/// later. Both close at local commit, which every replica reaches at
/// about the same time on uniform links, so for each slot the
/// primary's sample is at least as long as any backup's.
#[test]
fn primary_preprepare_commit_is_never_shorter_than_a_backup() {
    let mut cfg = SystemConfig::uniform(ProtocolKind::RingBft, 2, 4);
    cfg.num_keys = 2_000;
    cfg.batch_size = 1;
    cfg.cross_shard_rate = 0.0;
    cfg.trace_sample_rate = 1;
    let world = run(&cfg, &[(cfg.clone(), 4)], 0.3);
    assert!(world.view_log.is_empty(), "a view change moved the primary");

    let mut compared = 0;
    for shard in 0..2u32 {
        let spans: BTreeMap<u32, BTreeMap<u64, u64>> = ring_obs(&world)
            .into_iter()
            .filter(|(r, _)| r.shard.0 == shard)
            .map(|(r, obs)| (r.index, preprepare_commit_spans(obs)))
            .collect();
        let primary = &spans[&0];
        assert!(
            !primary.is_empty(),
            "shard {shard}: primary stamped no spans"
        );
        for (trace, p_dur) in primary {
            for (backup, b_spans) in spans.iter().filter(|(i, _)| **i != 0) {
                let Some(b_dur) = b_spans.get(trace) else {
                    continue;
                };
                assert!(
                    p_dur >= b_dur,
                    "shard {shard} trace {trace:#x}: primary {p_dur} ns < backup {backup} {b_dur} ns"
                );
                compared += 1;
            }
        }
    }
    assert!(compared > 100, "only {compared} slot samples compared");
}

/// Exact per-replica sample counts of every phase in one fixed-seed run
/// that mixes single-shard transactions, simple csts and complex csts
/// at full trace sampling. The counts pin the attribution rules: the
/// primary alone records admission, only initiator-shard replicas
/// record `cst_forward`, simple csts record no `execute_reply`, and
/// so on.
#[test]
fn phase_sample_counts_are_pinned() {
    let mut cfg = SystemConfig::uniform(ProtocolKind::RingBft, 3, 4);
    cfg.num_keys = 3_000;
    cfg.batch_size = 2;
    cfg.checkpoint_interval = 16;
    cfg.cross_shard_rate = 0.5;
    cfg.involved_shards = 2;
    cfg.trace_sample_rate = 1;
    let simple = cfg.clone();
    let mut complex = cfg.clone();
    complex.remote_reads = 1;
    let world = run(&cfg, &[(simple, 6), (complex, 6)], 1.0);

    // Columns follow `Phase::ALL`: admission, preprepare_commit,
    // commit_execute, execute_reply, cst_forward, cst_execute. A change
    // to where any phase opens or closes moves these numbers.
    let expected: [(&str, [u64; 6]); 12] = [
        ("S0r0", [654, 654, 653, 550, 445, 343]),
        ("S0r1", [0, 654, 653, 550, 445, 343]),
        ("S0r2", [0, 654, 653, 550, 445, 343]),
        ("S0r3", [0, 654, 653, 550, 445, 343]),
        ("S1r0", [422, 646, 645, 371, 210, 335]),
        ("S1r1", [0, 646, 645, 371, 210, 335]),
        ("S1r2", [0, 646, 645, 371, 210, 335]),
        ("S1r3", [0, 646, 645, 371, 210, 335]),
        ("S2r0", [213, 645, 643, 213, 0, 329]),
        ("S2r1", [0, 645, 643, 213, 0, 329]),
        ("S2r2", [0, 645, 643, 213, 0, 329]),
        ("S2r3", [0, 645, 643, 213, 0, 329]),
    ];
    let counts: Vec<(String, [u64; 6])> = ring_obs(&world)
        .into_iter()
        .map(|(r, obs)| (r.to_string(), Phase::ALL.map(|p| obs.phase_hist(p).count())))
        .collect();
    let expected: Vec<(String, [u64; 6])> =
        expected.iter().map(|(r, c)| (r.to_string(), *c)).collect();
    assert_eq!(counts, expected);
}
