//! One in-process run of a workload: the engine built from the generated
//! config and driven round by round through the [`Shim`] transport.

use std::path::Path;
use std::time::Instant;

use aergia::messages::{Message, RoundWireSizes, SignedAssignment};
use aergia::prelude::*;
use aergia::profiler::ProfileReport;
use aergia::scheduler::Assignment;
use aergia_codec::{sizing, ShapeSpec};
use aergia_tensor::Tensor;

use crate::layers::median;
use crate::shim::{peak_rss_mib, RoundCalls, Shim};
use crate::workloads::Workload;

/// Everything one run measured, before it is summarised.
pub struct Run {
    pub setups_s: Vec<f64>,
    pub setup_s: f64,
    pub new_s: f64,
    pub rounds_s: Vec<f64>,
    pub calls: Vec<RoundCalls>,
    pub checkpoint_s: Vec<f64>,
    pub checkpoint_bytes: u64,
    pub finish_s: f64,
    pub result: RunResult,
    pub final_accuracy: f64,
    pub weights: Vec<Tensor>,
    pub peak_rss_mib: f64,
    pub shim: Shim,
    pub engine: Engine,
}

impl Run {
    /// Setup, every round and the final evaluation — the experiment's own
    /// time, without the benchmark's bookkeeping between rounds.
    pub fn run_s(&self) -> f64 {
        self.setup_s + self.rounds_s.iter().sum::<f64>() + self.finish_s
    }
}

/// Builds the engine [`Workload::setups`] times (the first timed from
/// `started`, the process start) and runs the fixed experiment on the last
/// one.
/// `checkpoint_dir`, when set, receives a `save_checkpoint_to` after every
/// round (timed separately, outside the round).
pub fn run(
    workload: Workload,
    seed: u64,
    traced: bool,
    started: Instant,
    checkpoint_dir: Option<&Path>,
) -> Result<Run, String> {
    let (mut setups, mut news) = (Vec::new(), Vec::new());
    let mut engine = None;
    for i in 0..workload.setups() {
        drop(engine.take());
        let from = if i == 0 { started } else { Instant::now() };
        let built = Instant::now();
        let config = workload.config(seed);
        engine = Some(
            Engine::with_topology(config, workload.strategy(), workload.topology(seed))
                .map_err(|e| format!("engine setup: {e}"))?,
        );
        news.push(built.elapsed().as_secs_f64());
        setups.push(from.elapsed().as_secs_f64());
        crate::heartbeat("setup");
    }
    let mut engine = engine.expect("at least one setup");
    let (setup_s, new_s) = (median(&mut setups.clone()), median(&mut news));

    let mut shim = Shim::new(traced);
    let mut progress = engine.start_progress();
    let mut rounds_s = Vec::new();
    let mut calls = Vec::new();
    let mut checkpoint_s = Vec::new();
    let mut checkpoint_bytes = 0;
    loop {
        let t = Instant::now();
        let more = engine
            .step_round_with(&mut progress, &mut shim)
            .map_err(|e| format!("round {}: {e}", rounds_s.len()))?;
        rounds_s.push(t.elapsed().as_secs_f64());
        calls.push(shim.take_round());
        if let Some(dir) = checkpoint_dir {
            let path = dir.join("twin.ckpt");
            let t = Instant::now();
            engine.save_checkpoint_to(&path, &progress).map_err(|e| format!("checkpoint: {e}"))?;
            checkpoint_s.push(t.elapsed().as_secs_f64());
            checkpoint_bytes = std::fs::metadata(&path).map_or(0, |m| m.len());
        }
        if traced {
            // Keeps the in-memory event stream bounded.
            let _ = aergia_telemetry::drain_jsonl();
        }
        crate::heartbeat("round");
        if !more {
            break;
        }
    }
    let t = Instant::now();
    let result = engine.finish_run(progress);
    // Timing mode trains nothing and the engine reports NaN; the
    // benchmark reports chance level, the accuracy such a run can claim.
    let final_accuracy = match engine.config().mode {
        Mode::Real => result.final_accuracy,
        Mode::Timing => 1.0 / engine.config().arch.num_classes() as f64,
    };
    let finish_s = t.elapsed().as_secs_f64();
    let weights = engine.global_weights().to_vec();
    Ok(Run {
        setups_s: setups,
        setup_s,
        new_s,
        rounds_s,
        calls,
        checkpoint_s,
        checkpoint_bytes,
        finish_s,
        result,
        final_accuracy,
        weights,
        peak_rss_mib: peak_rss_mib(),
        shim,
        engine,
    })
}

/// Training samples the run processed: own plus offloaded batches times
/// the batch size. Timing mode trains nothing, so there the figure is the
/// simulated samples (every folded participant's local updates).
pub fn samples(run: &Run) -> f64 {
    let config = run.engine.config();
    let batches = match config.mode {
        Mode::Real => run.shim.own_batches + run.shim.offload_batches,
        Mode::Timing => updates(&run.result) * u64::from(config.local_updates),
    };
    (batches * config.batch_size as u64) as f64
}

/// Participant updates folded over the run.
pub fn updates(result: &RunResult) -> u64 {
    result.rounds.iter().map(|r| (r.participants.len() - r.dropped.len()) as u64).sum()
}

/// Bytes on the wire as the codec sizing API predicts them from the
/// model's shapes and each round's message counts: a broadcast per
/// participant, an update per surviving participant, and under Aergia a
/// profile report per participant plus schedule, notice, snapshot and
/// result per offload. Returns the run's total and the size of one
/// schedule + notice pair: a straggler that finishes before its schedule
/// lands sends no offload, and the round records do not count such
/// assignments, so the measured total may exceed the prediction by whole
/// pairs.
pub fn predicted_bytes(
    config: &ExperimentConfig,
    strategy: &Strategy,
    result: &RunResult,
) -> (u64, u64) {
    let template = aergia::transport::build_template(config);
    let weights = template.weights();
    let (features, classifier) = ShapeSpec::of(&weights).split_at(template.feature_weights().len());
    let kp = config.codec.keep_permille();
    let steady = config.codec.steady_id();
    let full = |id| sizing::frame_len(id, kp, &[&features, &classifier]);
    let aergia = matches!(strategy, Strategy::Aergia { .. });
    let signed = SignedAssignment::sign(
        0,
        0,
        Assignment { sender: 0, receiver: 1, offload_batches: 1, estimated_ct: 0.0 },
    );
    let report = ProfileReport { round: 0, per_batch: Default::default(), remaining_updates: 0 };
    let mut total = 0u64;
    let mut pair = 0u64;
    for (i, r) in result.rounds.iter().enumerate() {
        let opening = if i == 0 { config.codec.keyframe_id() } else { steady };
        let sizes = RoundWireSizes {
            start_round: full(opening),
            client_update: full(steady),
            offload_model: full(steady),
            offload_result: sizing::frame_len(steady, kp, &[&features]),
        };
        let size = |m: Message| m.wire_size(&sizes) as u64;
        pair = size(Message::Schedule(signed)) + size(Message::ScheduleNotice(signed));
        let p = r.participants.len() as u64;
        let o = r.offloads.len() as u64;
        let u = p - r.dropped.len() as u64;
        total += p * size(Message::StartRound { round: 0, payload: None });
        total += u * size(Message::ClientUpdate {
            round: 0,
            client: 0,
            payload: None,
            num_samples: 0,
            tau: 0,
        });
        if aergia {
            total += p * size(Message::Profile { client: 0, report });
            total += o
                * (pair
                    + size(Message::OffloadModel { round: 0, from: 0, payload: None })
                    + size(Message::OffloadedResult { round: 0, weak: 0, payload: None }));
        }
    }
    (total, if aergia { pair } else { 0 })
}

/// FNV-1a over the bit patterns of every weight.
pub fn fingerprint(weights: &[Tensor]) -> String {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for t in weights {
        for d in t.dims() {
            h = (h ^ *d as u64).wrapping_mul(0x0100_0000_01b3);
        }
        for v in t.data() {
            h = (h ^ u64::from(v.to_bits())).wrapping_mul(0x0100_0000_01b3);
        }
    }
    format!("{h:016x}")
}

/// Output checks every run must pass; returns the failed ones.
pub fn checks(
    workload: Workload,
    seed: u64,
    result: &RunResult,
    final_accuracy: f64,
) -> Vec<String> {
    let config = workload.config(seed);
    let mut failed = Vec::new();
    if workload.is_real() {
        for r in &result.rounds {
            if !r.test_accuracy.is_finite() || !r.train_loss.is_finite() {
                failed.push(format!("round {}: non-finite accuracy or loss", r.round));
            }
        }
    }
    if !final_accuracy.is_finite() {
        failed.push("final accuracy is not finite".to_string());
    }
    if result.rounds.len() != config.rounds as usize {
        failed.push("run ended before its fixed round count".to_string());
    }
    let (predicted, pair) = predicted_bytes(&config, &workload.strategy(), result);
    let measured = result.total_bytes_on_wire();
    let extra = measured.wrapping_sub(predicted);
    let participants: u64 = result.rounds.iter().map(|r| r.participants.len() as u64).sum();
    let whole_pairs = pair > 0 && measured > predicted && extra % pair == 0;
    if measured != predicted && !(whole_pairs && extra / pair <= participants) {
        failed.push(format!("bytes on wire {measured} != codec sizing prediction {predicted}"));
    }
    failed
}
