//! Per-layer figures of the traced run, measured from outside each layer
//! through its public entry points: the telemetry registry snapshot, the
//! run's round records, and timed calls on the run's own shapes and
//! weights.

use std::collections::BTreeMap;
use std::hint::black_box;
use std::path::Path;
use std::time::Instant;

use aergia::fold::{self, CohortLayout};
use aergia_codec::{dense, topk, CodecConfig, CodecId, Frame, FrameBuilder, SectionKind};
use aergia_data::batcher::Batcher;
use aergia_net::proto::TrainOrderMsg;
use aergia_tensor::gemm::{tuned_variant, GemmOp, KernelVariant, PackedB};
use aergia_tensor::{init, ops, Tensor};
use rand::rngs::StdRng;
use rand::SeedableRng;

use crate::inproc::Run;
use crate::report::Report;
use crate::workloads::Workload;

/// The parsed registry snapshot.
pub struct Snapshot(BTreeMap<String, f64>);

impl Snapshot {
    pub fn take() -> Snapshot {
        Snapshot(
            aergia_telemetry::parse_snapshot(&aergia_telemetry::snapshot()).unwrap_or_default(),
        )
    }

    pub fn get(&self, key: &str) -> f64 {
        self.0.get(key).copied().unwrap_or(0.0)
    }

    /// Sum over every series whose name starts with `prefix`.
    pub fn sum_prefix(&self, prefix: &str) -> f64 {
        self.0.iter().filter(|(k, _)| k.starts_with(prefix)).map(|(_, v)| v).sum()
    }

    /// The `q` quantile of histogram `base`, interpolated linearly inside
    /// the bucket it falls in (0 when the histogram is empty).
    pub fn quantile(&self, base: &str, q: f64) -> f64 {
        let prefix = format!("{base}_bucket{{le=\"");
        let mut buckets: Vec<(f64, f64)> = self
            .0
            .iter()
            .filter_map(|(k, &v)| {
                let le = k.strip_prefix(&prefix)?.strip_suffix("\"}")?;
                let bound = if le == "+Inf" { f64::INFINITY } else { le.parse().ok()? };
                Some((bound, v))
            })
            .collect();
        buckets.sort_by(|a, b| a.0.total_cmp(&b.0));
        let total = buckets.last().map_or(0.0, |b| b.1);
        if total == 0.0 {
            return 0.0;
        }
        let rank = q * total;
        let (mut lo, mut below) = (0.0, 0.0);
        for (bound, cum) in buckets {
            if cum >= rank {
                if bound.is_infinite() {
                    return lo;
                }
                return lo + (bound - lo) * (rank - below) / (cum - below).max(f64::MIN_POSITIVE);
            }
            (lo, below) = (bound, cum);
        }
        lo
    }
}

/// Median of `reps` timed calls of `f`; the result passes through
/// `black_box` so the timed work cannot be optimised away.
pub fn median_time<R>(reps: usize, mut f: impl FnMut() -> R) -> f64 {
    let mut times: Vec<f64> = (0..reps)
        .map(|_| {
            let t = Instant::now();
            black_box(f());
            t.elapsed().as_secs_f64()
        })
        .collect();
    median(&mut times)
}

pub fn median(values: &mut [f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    values.sort_by(f64::total_cmp);
    let n = values.len();
    if n % 2 == 1 {
        values[n / 2]
    } else {
        (values[n / 2 - 1] + values[n / 2]) / 2.0
    }
}

fn mean(values: impl Iterator<Item = f64>) -> f64 {
    let (mut sum, mut n) = (0.0, 0usize);
    for v in values {
        sum += v;
        n += 1;
    }
    if n == 0 {
        0.0
    } else {
        sum / n as f64
    }
}

/// Autotuned GEMM throughput at `(m, k, n)` and the tile the tuner picked.
pub fn gemm_gflops(m: usize, k: usize, n: usize) -> (f64, KernelVariant) {
    let variant = tuned_variant(GemmOp::Nn, m, k, n);
    let mut rng = StdRng::seed_from_u64(7);
    let mut a = Tensor::zeros(&[m, k]);
    let mut b = Tensor::zeros(&[k, n]);
    init::normal(&mut a, &mut rng, 0.0, 1.0);
    init::normal(&mut b, &mut rng, 0.0, 1.0);
    let mut pb = PackedB::new();
    pb.pack_with(&b, variant).expect("pack");
    let mut out = Tensor::default();
    ops::matmul_packed_into(&a, &pb, &mut out).expect("matmul");
    let secs = median_time(9, || {
        ops::matmul_packed_into(&a, &pb, &mut out).expect("matmul");
        black_box(&mut out);
    });
    (2.0 * (m * k * n) as f64 / secs / 1e9, variant)
}

/// Encodes `weights` as one frame under `codec` (top-k deltas against
/// `base`).
fn encode_frame(codec: CodecConfig, weights: &[Tensor], base: &[Tensor]) -> Frame {
    let mut fb = FrameBuilder::new();
    let n = weights.len();
    match codec {
        CodecConfig::TopKDelta { keep_permille } => {
            fb.push_section(SectionKind::Features, CodecId::TopKDelta, n, |out| {
                topk::encode_payload_into(weights, base, keep_permille, None, out)
            });
        }
        _ => {
            fb.push_section(SectionKind::Features, CodecId::DenseF32, n, |out| {
                dense::encode_payload_into(weights, out)
            });
        }
    }
    fb.finish()
}

fn decode_frame(frame: &Frame, base: &[Tensor]) -> Vec<Tensor> {
    let frame = Frame::from_bytes(frame.as_bytes().to_vec()).expect("frame");
    let sections = frame.sections().expect("sections");
    let s = &sections[0];
    match s.codec {
        CodecId::TopKDelta => topk::decode_payload(s.payload, s.tensor_count, base).expect("topk"),
        _ => dense::decode_payload(s.payload, s.tensor_count).expect("dense"),
    }
}

/// Every per-layer figure of one traced run.
pub fn measure(
    workload: Workload,
    seed: u64,
    run: &mut Run,
    snap: &Snapshot,
    dir: &Path,
) -> Report {
    let config = run.engine.config().clone();
    let rounds = run.rounds_s.len().max(1) as f64;
    let mut r = Report::default();

    // engine
    let mut rounds_s = run.rounds_s.clone();
    let round_p50 = median(&mut rounds_s);
    let self_s: Vec<f64> =
        run.rounds_s.iter().zip(&run.calls).map(|(w, c)| w - c.train_s - c.offload_s).collect();
    r.num("engine.round_s", mean(run.rounds_s.iter().copied()));
    r.num("engine.federator_self_s", mean(self_s.iter().copied()));
    r.num("engine.warmup_s", run.rounds_s[0] - round_p50);
    r.num("engine.finish_s", run.finish_s);
    r.num("engine.eval_s", median_time(3, || run.engine.evaluate_global()));
    r.num("engine.new_s", run.new_s);
    r.num("data.synth_s", median_time(3, || config.dataset.generate_pair()));

    // transport
    r.num("transport.train_s", mean(run.calls.iter().map(|c| c.train_s)));
    r.num("transport.offload_train_s", mean(run.calls.iter().map(|c| c.offload_s)));
    r.num("transport.orders", run.shim.orders as f64);
    r.num("transport.offload_orders", run.shim.offload_orders as f64);

    // runtime
    let threads = aergia_runtime::ThreadPool::global().threads() as f64;
    let idle = if run.shim.train_wall_s > 0.0 {
        (1.0 - run.shim.train_cpu_s / (run.shim.train_wall_s * threads)).max(0.0)
    } else {
        1.0
    };
    r.num("runtime.idle_share", idle);

    // tensor
    let calls = |op: &str| snap.get(&format!("aergia_gemm_calls_total{{op=\"{op}\"}}"));
    r.num("tensor.gemm_calls.nn", calls("nn"));
    r.num("tensor.gemm_calls.nt", calls("nt"));
    r.num("tensor.gemm_calls.tn", calls("tn"));
    let guarded = snap.get("aergia_gemm_subtiles_guarded_total");
    let dense_tiles = snap.get("aergia_gemm_subtiles_dense_total");
    r.num("tensor.guarded_subtile_share", guarded / (guarded + dense_tiles).max(1.0));
    let (m, k, n) = workload.conv_gemm_shape();
    let (gflops, tile) = gemm_gflops(m, k, n);
    r.num("tensor.gemm_gflops", gflops);
    r.text(
        "tensor.gemm_tile",
        &format!("{} {}x{} at {m}x{k}x{n}", tile.isa.label(), tile.mr, tile.nr),
    );

    // codec
    let frames = snap.get("aergia_codec_frames_encoded_total");
    let encoded = snap.get("aergia_codec_frame_bytes_encoded_total");
    let payload = snap.sum_prefix("aergia_codec_encoded_bytes_total");
    let dense_equiv = snap.sum_prefix("aergia_codec_dense_equiv_bytes_total");
    r.num("codec.encoded_bytes", encoded);
    r.num("codec.frames", frames);
    r.num("codec.ratio", if payload > 0.0 { dense_equiv / payload } else { 1.0 });
    let weights = run.engine.global_weights().to_vec();
    let base = aergia::transport::build_template(&config).weights();
    let frame = encode_frame(config.codec, &weights, &base);
    r.num("codec.encode_s", median_time(5, || encode_frame(config.codec, &weights, &base)));
    r.num("codec.decode_s", median_time(5, || decode_frame(&frame, &base)));

    // fold
    let last = run.result.rounds.last().expect("at least one round");
    let layout: &CohortLayout = run.engine.cohort_layout();
    let edges: Vec<usize> = last.participants.iter().map(|&c| layout.edge_of(c)).collect();
    let contributions: Vec<(f32, Vec<Tensor>)> =
        last.participants.iter().map(|_| (1.0, weights.clone())).collect();
    let num_edges = layout.num_edges();
    let fold_s = median_time(3, || {
        let partials = fold::weighted_edge_partials(&contributions, &edges, num_edges, true);
        fold::merge_weighted_partials(fold::through_wire(partials))
    });
    r.num("fold.s_per_update", fold_s / contributions.len().max(1) as f64);

    // pool
    let pools = run.result.rounds.iter().map(|r| r.pool);
    let (hits, misses) = pools
        .clone()
        .fold((0u64, 0u64), |(h, m), p| (h + u64::from(p.hits), m + u64::from(p.misses)));
    r.num("pool.hit_ratio", hits as f64 / (hits + misses).max(1) as f64);
    r.num("pool.rebuilds", pools.clone().map(|p| f64::from(p.rebuilds)).sum());
    r.num("pool.evictions", pools.clone().map(|p| f64::from(p.evictions)).sum());
    r.num("pool.resident_bytes", pools.map(|p| p.resident_bytes as f64).fold(0.0, f64::max));

    // scheduler / simnet
    let participants: usize = run.result.rounds.iter().map(|r| r.participants.len()).sum();
    r.num(
        "scheduler.offload_share",
        run.result.total_offloads() as f64 / participants.max(1) as f64,
    );
    let mut virtual_rounds = run.result.round_durations();
    r.num("simnet.round_virtual_s", median(&mut virtual_rounds));

    // net
    r.num("net.order_rtt_p50_s", snap.quantile("aergia_net_order_rtt_seconds", 0.5));
    let shard = run.engine.partition().indices(0).to_vec();
    let order = TrainOrderMsg {
        round: 0,
        client: 0,
        own_batches: config.local_updates,
        freeze_after: None,
        snapshot_wanted: false,
        batcher: Batcher::new(shard, config.batch_size, seed).state(),
        round_base: weights.clone(),
    };
    r.num(
        "net.proto_encode_s",
        median_time(5, || TrainOrderMsg::decode(&order.encode()).expect("order")),
    );
    r.num("net.envelope_bytes_per_round", snap.get("aergia_net_envelope_bytes_sum") / rounds);
    r.num("net.connects", snap.get("aergia_net_connects_total"));
    r.num("net.backoffs", snap.get("aergia_net_backoffs_total"));
    r.num("net.drops", snap.get("aergia_net_client_drops_total"));

    // checkpoint: after every round on the loopback twin, otherwise three
    // saves of the finished run's state.
    let (save_s, bytes) = if run.checkpoint_s.is_empty() {
        checkpoint_after_run(run, &dir.join("run.ckpt"))
    } else {
        (median(&mut run.checkpoint_s.clone()), run.checkpoint_bytes as f64)
    };
    r.num("checkpoint.save_s", save_s);
    r.num("checkpoint.bytes", bytes);
    r
}

/// Times `save_checkpoint_to` of the finished engine state.
fn checkpoint_after_run(run: &Run, path: &Path) -> (f64, f64) {
    let progress = aergia::engine::RunProgress {
        next_round: run.result.rounds.len() as u32,
        now: run.result.finished_at,
        pretraining: run.result.pretraining,
        rounds: run.result.rounds.clone(),
    };
    let secs =
        median_time(3, || run.engine.save_checkpoint_to(path, &progress).expect("checkpoint"));
    (secs, std::fs::metadata(path).map_or(0, |m| m.len()) as f64)
}
