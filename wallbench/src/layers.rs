//! Per-layer metrics of a traced run, and what each should move.

use crate::cluster::NetPoint;
use crate::gen::Record;
use crate::stats::{hist, quantile_ms};
use crate::trace::{self_times, Class, TraceRec};
use ringbft_core::RingMsg;
use ringbft_net::codec::{encode_body, frame_prefix, Frame, FrameAssembler, FrameAuth};
use ringbft_net::runtime::NetStatsSnapshot;
use ringbft_pbft::{batch_digest, PbftMsg};
use ringbft_sim::AnyMsg;
use ringbft_simnet::SimMessage;
use ringbft_types::{NodeId, ReplicaId};
use std::hint::black_box;
use std::io::Write;
use std::time::Instant;

/// A per-layer metric: its unit, the end-to-end metric it should move
/// and the workload where that shows.
pub struct LayerMetric {
    pub name: &'static str,
    pub unit: &'static str,
    pub moves: &'static str,
    pub on: &'static str,
}

const fn m(
    name: &'static str,
    unit: &'static str,
    moves: &'static str,
    on: &'static str,
) -> LayerMetric {
    LayerMetric {
        name,
        unit,
        moves,
        on,
    }
}

/// Every per-layer metric a traced run prints, in order: the one table of
/// their units and targets.
pub const LAYER_METRICS: &[LayerMetric] = &[
    m("workload.gen_us_per_txn", "us", "cpu_us_per_txn", "all"),
    m(
        "client.late_p99_ms",
        "ms",
        "validity of latency_*",
        "paper_open",
    ),
    m(
        "client.window_tps_ratio",
        "ratio",
        "throughput_tps",
        "cross_shard",
    ),
    m(
        "net.msgs_per_txn",
        "count",
        "cpu_us_per_txn, throughput_tps",
        "single_shard",
    ),
    m(
        "net.bytes_per_txn",
        "B",
        "cpu_us_per_txn, throughput_tps",
        "single_shard",
    ),
    m("net.drops", "count", "fail_frac", "all"),
    m(
        "net.reactor_idle_frac",
        "frac",
        "throughput_tps (CPU-bound when ~0)",
        "closed loops",
    ),
    m(
        "codec.encode_ns_per_msg",
        "ns",
        "cpu_us_per_txn",
        "single_shard",
    ),
    m(
        "codec.decode_ns_per_msg",
        "ns",
        "cpu_us_per_txn",
        "single_shard",
    ),
    m("codec.bytes_per_msg", "B", "cpu_us_per_txn", "single_shard"),
    m(
        "crypto.mac_ns_per_msg",
        "ns",
        "cpu_us_per_txn",
        "single_shard",
    ),
    m(
        "crypto.digest_ns_per_batch",
        "ns",
        "cpu_us_per_txn",
        "single_shard",
    ),
    m(
        "pbft.handle_us_per_batch",
        "us",
        "throughput_tps; latency_p50_ms",
        "single_shard; paper_open",
    ),
    m(
        "pbft.msgs_per_batch",
        "count",
        "throughput_tps; latency_p50_ms",
        "single_shard; paper_open",
    ),
    m("core.busy_frac", "frac", "throughput_tps", "closed loops"),
    m("core.request_us", "us", "throughput_tps", "closed loops"),
    m(
        "core.batch_txns",
        "count",
        "latency_p50_ms (batch-fill wait)",
        "paper_open",
    ),
    m("core.view_changes", "count", "must stay 0", "all"),
    m("core.timer_calls_per_s", "1/s", "cpu_us_per_txn", "all"),
    m(
        "ring.forward_us_per_cst",
        "us",
        "throughput_tps, latency_p50_ms",
        "cross_shard",
    ),
    m(
        "ring.forwards_per_cst",
        "count",
        "linear primitive check",
        "cross_shard",
    ),
    m("ring.hop_ms_p50", "ms", "latency_p50_ms", "cross_shard"),
    m(
        "store.lock_pending_mean",
        "count",
        "latency_p99_ms",
        "cross_shard",
    ),
    m(
        "wal.syncs_per_txn",
        "count",
        "latency_p99_ms, cpu_us_per_txn",
        "paper_open",
    ),
    m(
        "wal.bytes_per_txn",
        "B",
        "latency_p99_ms, cpu_us_per_txn",
        "paper_open",
    ),
    m(
        "trace.overhead_frac",
        "frac",
        "none (cost of the traced run)",
        "all",
    ),
];

/// Codec and crypto cost per message, timed on sampled delivered messages.
#[derive(Debug, Default, PartialEq)]
pub struct CodecCost {
    pub msgs: u64,
    pub encode_ns: f64,
    /// `FrameAssembler::next_frame` time minus the MAC time below.
    pub decode_ns: f64,
    /// `frame_prefix` time, which is the frame HMAC.
    pub mac_ns: f64,
    pub bytes: f64,
    pub batches: u64,
    pub digest_ns: f64,
}

/// Passes over the sample, so each operation is timed over enough calls.
const REPS: u32 = 5;

/// Times encoding, framing and decoding of every `(from, to, msg)` and
/// digesting every batch; panics if a frame does not decode to the
/// message it was built from.
pub fn codec_cost(sample: &[(NodeId, NodeId, AnyMsg)], auth: &FrameAuth) -> CodecCost {
    let mut c = CodecCost::default();
    let mut asm = FrameAssembler::new();
    let (mut enc, mut mac, mut dec, mut dig) = (0u128, 0u128, 0u128, 0u128);
    for (from, to, msg) in sample {
        let trace = msg.trace_context();
        let t = Instant::now();
        for _ in 0..REPS {
            black_box(encode_body(*from, black_box(msg), &trace).expect("encodable"));
        }
        enc += t.elapsed().as_nanos();
        let body = encode_body(*from, msg, &trace).expect("encodable");
        let t = Instant::now();
        for _ in 0..REPS {
            black_box(frame_prefix(*from, *to, black_box(&body), auth));
        }
        mac += t.elapsed().as_nanos();
        let mut frame = frame_prefix(*from, *to, &body, auth).to_vec();
        frame.extend_from_slice(&body);
        let t = Instant::now();
        let mut last = None;
        for _ in 0..REPS {
            asm.extend(black_box(&frame));
            last = asm.next_frame::<AnyMsg>(auth, *to).expect("frame decodes");
        }
        dec += t.elapsed().as_nanos();
        match last {
            Some(Frame::Data(env)) if env.from == *from && env.msg == *msg => {}
            other => panic!("frame from {from} decoded to {other:?}"),
        }
        c.msgs += 1;
        c.bytes += frame.len() as f64;
        if let AnyMsg::Ring(RingMsg::Pbft(PbftMsg::Preprepare { batch, .. })) = msg {
            let t = Instant::now();
            for _ in 0..REPS {
                black_box(batch_digest(black_box(batch)));
            }
            dig += t.elapsed().as_nanos();
            c.batches += 1;
        }
    }
    let per = |ns: u128, n: u64| ns as f64 / (n.max(1) as f64 * f64::from(REPS));
    c.encode_ns = per(enc, c.msgs);
    c.mac_ns = per(mac, c.msgs);
    c.decode_ns = (per(dec, c.msgs) - c.mac_ns).max(0.0);
    c.bytes /= c.msgs.max(1) as f64;
    c.digest_ns = per(dig, c.batches);
    c
}

/// Net counters summed over runtimes: messages and bytes sent, frames
/// dropped (backpressure drops included) or undeliverable, and time spent
/// waiting in `epoll_wait`.
fn net_sum(points: &[NetPoint], gen: NetStatsSnapshot) -> (u64, u64, u64, f64) {
    let mut s = (
        gen.messages_sent,
        gen.bytes_sent,
        gen.messages_dropped + gen.messages_undeliverable,
        0.0,
    );
    for p in points {
        s.0 += p.stats.messages_sent;
        s.1 += p.stats.bytes_sent;
        s.2 += p.stats.messages_dropped + p.stats.messages_undeliverable;
        s.3 += p.epoll_wait_ns;
    }
    s
}

/// Everything a traced run measured that the per-layer metrics need.
pub struct LayerInput<'a> {
    pub window_s: f64,
    pub gen: &'a Record,
    pub traces: &'a [(ReplicaId, TraceRec)],
    /// Replica and generator net counters at the window's start and end.
    pub net: [(&'a [NetPoint], NetStatsSnapshot); 2],
    pub codec: CodecCost,
    /// Process CPU per committed transaction, untraced and traced.
    pub cpu_us_per_txn: [f64; 2],
}

/// The [`LAYER_METRICS`] entry named `name`.
fn layer_metric(name: &str) -> &'static LayerMetric {
    LAYER_METRICS
        .iter()
        .find(|m| m.name == name)
        .unwrap_or_else(|| panic!("{name} is not in LAYER_METRICS"))
}

/// Computes every metric of [`LAYER_METRICS`], in that order. "Per txn"
/// divides by transactions committed in the window, "per cst" by the
/// cross-shard ones among them, and "per batch" by `Executed` actions
/// summed over replicas (each replica executing a batch counts once).
/// Self times come from [`self_times`], so the wrapper's own work is
/// excluded. Net counters are window deltas.
pub fn per_layer(inp: &LayerInput) -> Vec<(&'static LayerMetric, f64)> {
    let committed = inp.gen.window_completed.max(1) as f64;
    let csts = inp.gen.window_cross as f64;
    let per_cst = |v: f64| if csts > 0.0 { v / csts } else { 0.0 };
    let window_ns = inp.window_s * 1e9;
    let replicas = inp.traces.len().max(1) as f64;

    let (s0, s1) = (
        net_sum(inp.net[0].0, inp.net[0].1),
        net_sum(inp.net[1].0, inp.net[1].1),
    );
    let (mut pbft_ns, mut pbft_n, mut ring_ns, mut busy_ns) = (0u64, 0u64, 0u64, 0u64);
    let (mut req_ns, mut req_n) = (0u64, 0u64);
    let (mut executed, mut executed_txns, mut forwards, mut views, mut timers) = (0, 0, 0, 0, 0);
    let (mut pending_sum, mut pending_n, mut wal_syncs, mut wal_bytes) = (0, 0, 0, 0);
    let mut hops = hist();
    for (_, t) in inp.traces {
        for (s, own) in t.spans.iter().zip(self_times(&t.spans)) {
            if s.class == Class::Trace {
                continue;
            }
            busy_ns += own;
            if s.class.is_pbft() {
                pbft_ns += own;
                pbft_n += 1;
            } else if s.class.is_ring() {
                ring_ns += own;
            } else if s.class == Class::Request {
                req_ns += own;
                req_n += 1;
            }
        }
        executed += t.executed;
        executed_txns += t.executed_txns;
        forwards += t.forwards;
        views += t.view_changes;
        timers += t.timer_calls;
        pending_sum += t.pending_sum;
        pending_n += t.pending_n;
        wal_syncs += t.wal_syncs;
        wal_bytes += t.wal_bytes;
        hops.merge(&t.hop_ns);
    }
    let batches = executed.max(1) as f64;
    let reactors = inp.net[1].0.len().max(1) as f64;
    let mut out = Vec::with_capacity(LAYER_METRICS.len());
    let mut put = |name: &str, v: f64| out.push((layer_metric(name), v));
    put(
        "workload.gen_us_per_txn",
        inp.gen.gen_ns as f64 / inp.gen.issued.max(1) as f64 / 1e3,
    );
    put("client.late_p99_ms", quantile_ms(&inp.gen.late, 0.99));
    put("client.window_tps_ratio", inp.gen.windows.tps_ratio());
    put("net.msgs_per_txn", (s1.0 - s0.0) as f64 / committed);
    put("net.bytes_per_txn", (s1.1 - s0.1) as f64 / committed);
    put("net.drops", (s1.2 - s0.2) as f64);
    put(
        "net.reactor_idle_frac",
        (s1.3 - s0.3) / (window_ns * reactors),
    );
    put("codec.encode_ns_per_msg", inp.codec.encode_ns);
    put("codec.decode_ns_per_msg", inp.codec.decode_ns);
    put("codec.bytes_per_msg", inp.codec.bytes);
    put("crypto.mac_ns_per_msg", inp.codec.mac_ns);
    put("crypto.digest_ns_per_batch", inp.codec.digest_ns);
    put("pbft.handle_us_per_batch", pbft_ns as f64 / batches / 1e3);
    put("pbft.msgs_per_batch", pbft_n as f64 / batches);
    put("core.busy_frac", busy_ns as f64 / (window_ns * replicas));
    put("core.request_us", req_ns as f64 / req_n.max(1) as f64 / 1e3);
    put("core.batch_txns", executed_txns as f64 / batches);
    put("core.view_changes", views as f64);
    put("core.timer_calls_per_s", timers as f64 / inp.window_s);
    put("ring.forward_us_per_cst", per_cst(ring_ns as f64 / 1e3));
    put("ring.forwards_per_cst", per_cst(forwards as f64));
    put("ring.hop_ms_p50", quantile_ms(&hops, 0.50));
    put(
        "store.lock_pending_mean",
        pending_sum as f64 / pending_n.max(1) as f64,
    );
    put("wal.syncs_per_txn", wal_syncs as f64 / committed);
    put("wal.bytes_per_txn", wal_bytes as f64 / committed);
    put(
        "trace.overhead_frac",
        inp.cpu_us_per_txn[1] / inp.cpu_us_per_txn[0] - 1.0,
    );
    out
}

/// Writes every span as a tab-separated line:
/// `replica class start_ns end_ns parent from cause`.
pub fn write_spans(
    path: &std::path::Path,
    traces: &[(ReplicaId, TraceRec)],
) -> std::io::Result<()> {
    let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
    writeln!(out, "replica\tclass\tstart_ns\tend_ns\tparent\tfrom\tcause")?;
    for (r, t) in traces {
        for s in &t.spans {
            writeln!(
                out,
                "{r}\t{:?}\t{}\t{}\t{}\t{}\t{}",
                s.class, s.start, s.end, s.parent as i64, s.from, s.cause
            )?;
        }
    }
    out.flush()
}

#[cfg(test)]
mod tests {
    use super::*;
    use ringbft_types::txn::{Batch, Operation, OperationKind, Transaction};
    use ringbft_types::{BatchId, ClientId, SeqNum, ShardId, TxnId, ViewNum};
    use std::sync::Arc;

    #[test]
    fn codec_cost_round_trips_sampled_messages() {
        let txn = Transaction::new(
            TxnId(9),
            ClientId(3),
            vec![Operation {
                shard: ShardId(0),
                key: 5,
                kind: OperationKind::ReadModifyWrite,
            }],
        );
        let batch = Arc::new(Batch::new(BatchId(1), vec![txn.clone()]));
        let r0 = NodeId::Replica(ReplicaId::new(ShardId(0), 0));
        let r1 = NodeId::Replica(ReplicaId::new(ShardId(0), 1));
        let sample = vec![
            (
                NodeId::Client(ClientId(3)),
                r0,
                AnyMsg::Ring(RingMsg::Request {
                    txn: Arc::new(txn),
                    relayed: false,
                }),
            ),
            (
                r0,
                r1,
                AnyMsg::Ring(RingMsg::Pbft(PbftMsg::Preprepare {
                    view: ViewNum(0),
                    seq: SeqNum(1),
                    digest: batch_digest(&batch),
                    batch,
                })),
            ),
        ];
        let c = codec_cost(&sample, &FrameAuth::from_seed(0));
        assert_eq!((c.msgs, c.batches), (2, 1));
        assert!(c.encode_ns > 0.0 && c.mac_ns > 0.0 && c.digest_ns > 0.0);
        assert!(c.bytes > 32.0, "a frame carries at least its MAC");
    }

    #[test]
    fn every_layer_metric_gets_a_value() {
        let rec = Record::new();
        let inp = LayerInput {
            window_s: 1.0,
            gen: &rec,
            traces: &[],
            net: [
                (&[], NetStatsSnapshot::default()),
                (&[], NetStatsSnapshot::default()),
            ],
            codec: CodecCost::default(),
            cpu_us_per_txn: [1.0, 1.0],
        };
        let got = per_layer(&inp);
        let names: Vec<&str> = got.iter().map(|(m, _)| m.name).collect();
        let table: Vec<&str> = LAYER_METRICS.iter().map(|m| m.name).collect();
        assert_eq!(names, table, "each metric once, in table order");
        assert!(got.iter().all(|(_, v)| v.is_finite()));
    }

    #[test]
    fn table_matches_benchmark_json() {
        let declared = crate::benchmark_json_metrics("per_layer");
        let table: Vec<(String, String)> = LAYER_METRICS
            .iter()
            .map(|m| (m.name.to_string(), m.unit.to_string()))
            .collect();
        assert_eq!(table, declared);
    }
}
