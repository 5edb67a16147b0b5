//! Wall-clock benchmark of a 2-shard × 4-replica RingBFT cluster on
//! loopback TCP, driven by one in-process generator.
//!
//! ```text
//! cargo run --release --manifest-path wallbench/Cargo.toml -- \
//!     --workload single_shard --seed 1 --seconds 10 --trace 0
//! ```
//!
//! `--trace 0` runs `LocalCluster` untraced, as users run it, sets it up
//! several times to time set-up, and prints the end-to-end metrics.
//! `--trace 1` runs it untraced once and then traced (every replica
//! wrapped in a span recorder), and prints the per-layer metrics,
//! including the tracing overhead between the two. Either way the
//! outputs are checked after the run: every completion had f+1 matching
//! replies, and each shard's replicas agree on state at a common
//! execution watermark. Progress and a detail object (per-second series,
//! sample counts, host cores, the per-layer targets) go before the last
//! line; the last line of standard output is the result object.

mod cluster;
mod gen;
mod layers;
mod stats;
mod trace;
mod workload;

use cluster::{Bench, Finished, NetPoint};
use layers::{codec_cost, per_layer, write_spans, LayerInput, LAYER_METRICS};
use ringbft_net::codec::FrameAuth;
use ringbft_net::runtime::NetStatsSnapshot;
use ringbft_obs::json::ObjectWriter;
use ringbft_types::{NodeId, ReplicaId};
use stats::{median, process_cpu_s, quantile_ms, rss_peak_mb};
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::time::Duration;
use workload::{Workload, WORKLOADS};

/// Set-ups per untraced run; `setup_s` is their median. Half of the
/// extra ones run before the measured cluster, half after its run, so a
/// slow spell of the host lands on few of them.
const SETUPS: usize = 41;
/// Load before the measured window opens.
const WARMUP: Duration = Duration::from_secs(2);
/// Longest wait for the first reply quorum after launch.
const SETUP_TIMEOUT: Duration = Duration::from_secs(30);
/// Longest wait for requests in flight once issuing stops.
const DRAIN_TIMEOUT: Duration = Duration::from_secs(5);
/// Longest wait for a shard's replicas to reach one execution watermark.
const CONVERGE_TIMEOUT: Duration = Duration::from_secs(5);
/// Where runs write WALs and span dumps, relative to the working directory.
const OUT_DIR: &str = ".bench_out/wallbench";

struct Args {
    workload: &'static Workload,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let mut kv = BTreeMap::new();
    for pair in argv.chunks(2) {
        match pair {
            [k, v] if k.starts_with("--") => kv.insert(k.as_str(), v.as_str()),
            _ => return Err(format!("expected `--flag value` pairs, got {pair:?}")),
        };
    }
    let get = |k: &str| kv.get(k).copied().ok_or(format!("missing {k}"));
    let num = |k: &str| get(k)?.parse::<u64>().map_err(|e| format!("{k}: {e}"));
    let name = get("--workload")?;
    let workload = Workload::by_name(name).ok_or_else(|| {
        let names: Vec<&str> = WORKLOADS.iter().map(|w| w.name).collect();
        format!("unknown workload {name}; one of {names:?}")
    })?;
    let seconds = num("--seconds")?;
    if seconds == 0 {
        return Err("--seconds must be positive".into());
    }
    Ok(Args {
        workload,
        seed: num("--seed")?,
        seconds,
        trace: match get("--trace")? {
            "0" => false,
            "1" => true,
            t => return Err(format!("--trace takes 0 or 1, got {t}")),
        },
    })
}

/// One measured run.
struct Run {
    setup_s: Vec<f64>,
    window_s: f64,
    cpu_s: f64,
    fin: Finished,
    /// Replica and generator net counters at the window's start and end.
    net: [(Vec<NetPoint>, NetStatsSnapshot); 2],
    /// Requests still without a reply quorum after the drain.
    unanswered: u64,
    violations: Vec<String>,
}

impl Run {
    fn committed(&self) -> u64 {
        self.fin.gen.window_completed
    }

    fn cpu_us_per_txn(&self) -> f64 {
        self.cpu_s * 1e6 / self.committed().max(1) as f64
    }
}

fn sleep_until(b: &Bench, t: u64) {
    std::thread::sleep(Duration::from_nanos(t.saturating_sub(b.now())));
}

/// What the consistency check reads off one replica.
#[derive(Debug)]
struct ReplicaState {
    #[expect(dead_code, reason = "printed through Debug in violation messages")]
    id: ReplicaId,
    exec: u64,
    ckpt_seq: u64,
    ckpt_fp: u64,
    /// Read only once the watermarks agree: it folds the whole store.
    store_fp: Option<u64>,
}

fn same<T: PartialEq>(rows: &[ReplicaState], f: impl Fn(&ReplicaState) -> T) -> bool {
    rows.iter().all(|x| f(x) == f(&rows[0]))
}

/// After the drain: each shard's replicas must reach one execution
/// watermark and agree there on their store, and on their last
/// checkpoint's fingerprint.
fn check_replicas(b: &Bench, violations: &mut Vec<String>) {
    let deadline = std::time::Instant::now() + CONVERGE_TIMEOUT;
    let by_shard = |with_store: bool| {
        let mut shards: BTreeMap<u32, Vec<ReplicaState>> = BTreeMap::new();
        b.each_replica(|r| {
            shards
                .entry(r.id().shard.0)
                .or_default()
                .push(ReplicaState {
                    id: r.id(),
                    exec: r.exec_watermark(),
                    ckpt_seq: r.checkpoint_seq(),
                    ckpt_fp: r.checkpoint_fingerprint(),
                    store_fp: with_store.then(|| r.store().state_fingerprint()),
                })
        });
        shards
    };
    while !by_shard(false).values().all(|rows| same(rows, |x| x.exec))
        && std::time::Instant::now() < deadline
    {
        std::thread::sleep(Duration::from_millis(20));
    }
    for (shard, rows) in by_shard(true) {
        if !same(&rows, |x| x.exec) {
            violations.push(format!("shard {shard}: no common exec watermark: {rows:?}"));
        } else if !same(&rows, |x| x.store_fp) {
            violations.push(format!(
                "shard {shard}: stores differ at one watermark: {rows:?}"
            ));
        } else if rows[0].ckpt_seq == 0 {
            violations.push(format!("shard {shard}: no checkpoint taken: {rows:?}"));
        } else if !same(&rows, |x| (x.ckpt_seq, x.ckpt_fp)) {
            violations.push(format!("shard {shard}: checkpoints differ: {rows:?}"));
        }
    }
}

/// A launched cluster, its WAL directory and its set-up time in seconds.
fn set_up(
    w: &Workload,
    seed: u64,
    traced: bool,
    tag: usize,
) -> Result<(Bench, PathBuf, f64), String> {
    let wal_dir =
        PathBuf::from(OUT_DIR).join(format!("wal-{}-{}-{tag}", w.name, std::process::id()));
    let wal = w.wal.then_some(wal_dir.as_path());
    let b = Bench::launch(w, seed, traced, wal).map_err(|e| format!("launch: {e}"))?;
    let s = b
        .wait_first_quorum(SETUP_TIMEOUT)
        .ok_or_else(|| format!("no reply quorum within {SETUP_TIMEOUT:?} of launch"))?;
    Ok((b, wal_dir, s))
}

/// Times one set-up of `w` per tag, each shut down at once.
fn time_set_ups(w: &Workload, seed: u64, tags: std::ops::Range<usize>) -> Result<Vec<f64>, String> {
    tags.map(|tag| {
        let (b, wal_dir, s) = set_up(w, seed, false, tag)?;
        b.shutdown();
        remove_dir(&wal_dir);
        Ok(s)
    })
    .collect()
}

/// Launches `w` and measures `seconds` after the warm-up, drains and
/// checks; `setups` set-ups are timed in all, the measured one included.
fn run(w: &Workload, seed: u64, seconds: u64, traced: bool, setups: usize) -> Result<Run, String> {
    let before = (setups - 1) / 2;
    let mut setup_s = time_set_ups(w, seed, 0..before)?;
    let (b, wal_dir, s) = set_up(w, seed, traced, before)?;
    setup_s.push(s);
    let t0 = b.now() + WARMUP.as_nanos() as u64;
    let t1 = t0 + seconds * 1_000_000_000;
    b.set_window(t0, t1);
    sleep_until(&b, t0);
    let cpu0 = process_cpu_s();
    let net0 = (b.replica_net(), b.gen_net());
    sleep_until(&b, t1);
    let cpu1 = process_cpu_s();
    let net1 = (b.replica_net(), b.gen_net());
    b.with_gen(|g| g.stop_issuing());
    let deadline = std::time::Instant::now() + DRAIN_TIMEOUT;
    while b.with_gen(|g| g.in_flight_len()) > 0 && std::time::Instant::now() < deadline {
        std::thread::sleep(Duration::from_millis(10));
    }
    let mut violations = Vec::new();
    check_replicas(&b, &mut violations);
    let fin = b.shutdown();
    remove_dir(&wal_dir);
    let (g, unanswered) = (&fin.gen, fin.unanswered);
    if g.mismatched > 0 {
        violations.push(format!(
            "{} replies disagreed with their quorum",
            g.mismatched
        ));
    }
    if unanswered > 0 {
        violations.push(format!(
            "{unanswered} of {} requests without a reply quorum after the drain",
            g.issued
        ));
    }
    setup_s.extend(time_set_ups(w, seed, before + 1..setups)?);
    Ok(Run {
        setup_s,
        window_s: seconds as f64,
        cpu_s: cpu1 - cpu0,
        fin,
        net: [net0, net1],
        unanswered,
        violations,
    })
}

fn remove_dir(dir: &Path) {
    if dir.exists() {
        std::fs::remove_dir_all(dir).expect("remove benchmark scratch directory");
    }
}

/// A metric's name, value and unit.
type Metric = (&'static str, f64, &'static str);

/// The per-layer metrics of `traced`, with `plain` as the untraced baseline.
fn layer_metrics(w: &Workload, plain: &Run, traced: &Run) -> Vec<Metric> {
    let auth = FrameAuth::from_seed(w.config().auth_seed);
    let sample: Vec<(NodeId, NodeId, _)> = traced
        .fin
        .traces
        .iter()
        .flat_map(|(r, t)| {
            t.sample
                .iter()
                .map(|(from, m)| (*from, NodeId::Replica(*r), m.clone()))
        })
        .collect();
    let inp = LayerInput {
        window_s: traced.window_s,
        gen: &traced.fin.gen,
        traces: &traced.fin.traces,
        net: [
            (&traced.net[0].0, traced.net[0].1),
            (&traced.net[1].0, traced.net[1].1),
        ],
        codec: codec_cost(&sample, &auth),
        cpu_us_per_txn: [plain.cpu_us_per_txn(), traced.cpu_us_per_txn()],
    };
    per_layer(&inp)
        .into_iter()
        .map(|(m, v)| (m.name, v, m.unit))
        .collect()
}

fn end_to_end(r: &Run) -> Vec<Metric> {
    let lat = &r.fin.gen.latency;
    vec![
        ("setup_s", median(&r.setup_s).expect("set-up timed"), "s"),
        ("throughput_tps", r.committed() as f64 / r.window_s, "1/s"),
        ("latency_p50_ms", quantile_ms(lat, 0.50), "ms"),
        ("latency_p90_ms", quantile_ms(lat, 0.90), "ms"),
        ("latency_p99_ms", quantile_ms(lat, 0.99), "ms"),
        ("cpu_us_per_txn", r.cpu_us_per_txn(), "us"),
        ("rss_peak_mb", rss_peak_mb(), "MiB"),
    ]
}

/// The detail object: what a reader needs beyond the metrics.
fn detail(args: &Args, runs: &[(&str, &Run)]) -> String {
    let cores = std::thread::available_parallelism().map_or(1, |p| p.get());
    let mut w = ObjectWriter::new();
    w.field_str("workload", args.workload.name)
        .field_str("why", args.workload.why)
        .field_str(
            "params",
            &format!(
                "{:?}, clients {}, cross_shard_rate {}, wal {}",
                args.workload.load,
                args.workload.clients,
                args.workload.cross_shard_rate,
                args.workload.wal
            ),
        )
        .field_u64("seed", args.seed)
        .field_u64("seconds", args.seconds)
        .field_u64("warmup_s", WARMUP.as_secs())
        .field_u64("host_cores", cores as u64);
    for (label, r) in runs {
        let g = &r.fin.gen;
        let mut o = ObjectWriter::new();
        let series: Vec<String> = g
            .windows
            .rows()
            .iter()
            .map(|x| format!("[{},{},{}]", x.tps, x.p50_ms, x.p99_ms))
            .collect();
        let setups: Vec<String> = r.setup_s.iter().map(f64::to_string).collect();
        o.field_u64("issued", g.issued)
            .field_u64("unanswered", r.unanswered)
            .field_f64("fail_frac", r.unanswered as f64 / g.issued.max(1) as f64)
            .field_u64("latency_samples", g.latency.count())
            .field_u64("committed_in_window", r.committed())
            .field_raw("setup_samples_s", &format!("[{}]", setups.join(",")))
            .field_raw(
                "per_second_tps_p50ms_p99ms",
                &format!("[{}]", series.join(",")),
            )
            .field_u64("clean_shutdown", r.fin.clean as u64)
            .field_raw(
                "violations",
                &format!(
                    "[{}]",
                    r.violations
                        .iter()
                        .map(|v| format!("\"{}\"", ringbft_obs::json::escape(v)))
                        .collect::<Vec<_>>()
                        .join(",")
                ),
            );
        w.field_raw(label, &o.finish());
    }
    if args.trace {
        let mut t = ObjectWriter::new();
        for m in LAYER_METRICS {
            t.field_str(m.name, &format!("{} on {}", m.moves, m.on));
        }
        w.field_raw("layer_targets", &t.finish());
    }
    let mut out = ObjectWriter::new();
    out.field_raw("wallbench", &w.finish());
    out.finish()
}

fn result_line(correct: bool, attempted: u64, failed: u64, metrics: &[Metric]) -> String {
    let mut m = ObjectWriter::new();
    for (name, value, unit) in metrics {
        let mut v = ObjectWriter::new();
        v.field_f64("value", *value).field_str("unit", unit);
        m.field_raw(name, &v.finish());
    }
    let mut o = ObjectWriter::new();
    o.field_raw("correct", if correct { "true" } else { "false" })
        .field_u64("attempted", attempted)
        .field_u64("failed", failed)
        .field_raw("metrics", &m.finish());
    o.finish()
}

fn main() {
    let args = parse_args().unwrap_or_else(|e| {
        eprintln!("wallbench: {e}");
        eprintln!("usage: wallbench --workload NAME --seed N --seconds S --trace 0|1");
        std::process::exit(2);
    });
    std::fs::create_dir_all(OUT_DIR).expect("create output directory");
    let w = args.workload;
    let fail = |e: String| -> ! {
        eprintln!("wallbench: {e}");
        std::process::exit(1);
    };
    eprintln!(
        "wallbench: {} seed {} for {} s, trace {}",
        w.name, args.seed, args.seconds, args.trace as u8
    );
    let (runs, metrics) = if args.trace {
        let plain = run(w, args.seed, args.seconds, false, 1).unwrap_or_else(|e| fail(e));
        let traced = run(w, args.seed, args.seconds, true, 1).unwrap_or_else(|e| fail(e));
        let metrics = layer_metrics(w, &plain, &traced);
        let spans = PathBuf::from(OUT_DIR).join(format!("{}.spans.tsv", w.name));
        write_spans(&spans, &traced.fin.traces)
            .unwrap_or_else(|e| fail(format!("write spans: {e}")));
        eprintln!("wallbench: spans written to {}", spans.display());
        (vec![("untraced", plain), ("traced", traced)], metrics)
    } else {
        let r = run(w, args.seed, args.seconds, false, SETUPS).unwrap_or_else(|e| fail(e));
        let metrics = end_to_end(&r);
        (vec![("untraced", r)], metrics)
    };
    let refs: Vec<(&str, &Run)> = runs.iter().map(|(l, r)| (*l, r)).collect();
    println!("{}", detail(&args, &refs));
    let correct = runs.iter().all(|(_, r)| r.violations.is_empty());
    for (label, r) in &runs {
        for v in &r.violations {
            eprintln!("wallbench: {label} run violation: {v}");
        }
    }
    let attempted = runs.iter().map(|(_, r)| r.fin.gen.issued).sum();
    let failed = runs.iter().map(|(_, r)| r.unanswered).sum();
    println!("{}", result_line(correct, attempted, failed, &metrics));
    if !correct {
        std::process::exit(1);
    }
}

/// The `(name, unit)` of every metric in `section` of the repository's
/// `BENCHMARK.json`, in order.
#[cfg(test)]
fn benchmark_json_metrics(section: &str) -> Vec<(String, String)> {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let text = std::fs::read_to_string(path).expect("read BENCHMARK.json");
    let doc = serde_json::from_str(&text).expect("BENCHMARK.json is JSON");
    let field = |m: &serde_json::Value, k| m.get(k).and_then(|v| v.as_str()).expect(k).to_string();
    doc.get(section)
        .and_then(|v| v.as_array())
        .expect("metric list")
        .iter()
        .map(|m| (field(m, "name"), field(m, "unit")))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn end_to_end_metrics_match_benchmark_json() {
        let r = Run {
            setup_s: vec![0.5],
            window_s: 1.0,
            cpu_s: 0.0,
            fin: Finished {
                clean: true,
                gen: gen::Record::new(),
                unanswered: 0,
                traces: Vec::new(),
            },
            net: [
                (Vec::new(), NetStatsSnapshot::default()),
                (Vec::new(), NetStatsSnapshot::default()),
            ],
            unanswered: 0,
            violations: Vec::new(),
        };
        let got: Vec<(String, String)> = end_to_end(&r)
            .into_iter()
            .map(|(n, _, u)| (n.to_string(), u.to_string()))
            .collect();
        assert_eq!(got, benchmark_json_metrics("end_to_end"));
    }
}
