//! The four closed-loop workloads: each is a generated
//! `ExperimentConfig` plus the strategy and topology it runs under. A
//! round's orders go out only after the previous round has folded, so
//! every workload is a closed loop whose load follows the system's speed.

use aergia::config::ClientStateMode;
use aergia::prelude::*;
use aergia_codec::CodecConfig;
use aergia_data::partition::Scheme;
use aergia_data::{DataConfig, DatasetSpec};
use aergia_nn::models::ModelArch;
use aergia_nn::optim::SgdConfig;

/// One benchmark workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// Real mode, CIFAR-10 CNN, 6 heterogeneous clients, Aergia.
    CrossSiloCifar,
    /// Real mode, MNIST CNN, 20k cohort-sampled clients, 64 per round,
    /// top-k uplinks through 8 edge cohorts, FedAvg.
    CrossDeviceMnist,
    /// Timing mode, 1M clients, 10k per round, 32 edge cohorts, FedAvg.
    Population1mTiming,
    /// The networked coordinator plus two workers over loopback TCP.
    LoopbackTcp,
}

impl Workload {
    pub const ALL: [Workload; 4] = [
        Workload::CrossSiloCifar,
        Workload::CrossDeviceMnist,
        Workload::Population1mTiming,
        Workload::LoopbackTcp,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Workload::CrossSiloCifar => "cross-silo-cifar",
            Workload::CrossDeviceMnist => "cross-device-mnist",
            Workload::Population1mTiming => "population-1m-timing",
            Workload::LoopbackTcp => "loopback-tcp",
        }
    }

    pub fn by_name(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    pub fn strategy(self) -> Strategy {
        match self {
            Workload::CrossSiloCifar | Workload::LoopbackTcp => Strategy::aergia_default(),
            Workload::CrossDeviceMnist | Workload::Population1mTiming => Strategy::FedAvg,
        }
    }

    pub fn topology(self, seed: u64) -> TopologyBuilder {
        match self {
            Workload::CrossSiloCifar | Workload::LoopbackTcp => TopologyBuilder::new(),
            Workload::CrossDeviceMnist => TopologyBuilder::new().edge_cohorts(8, seed),
            Workload::Population1mTiming => TopologyBuilder::new().edge_cohorts(32, seed),
        }
    }

    /// The generated experiment; everything seed-dependent derives from
    /// `seed`.
    pub fn config(self, seed: u64) -> ExperimentConfig {
        match self {
            Workload::CrossSiloCifar => ExperimentConfig {
                dataset: DataConfig {
                    spec: DatasetSpec::Cifar10Like,
                    train_size: 6 * 96,
                    test_size: 128,
                    seed: seed ^ 0xda7a,
                },
                arch: ModelArch::Cifar10Cnn,
                partition: Scheme::Iid,
                num_clients: 6,
                clients_per_round: 6,
                rounds: CIFAR_ROUNDS,
                local_updates: 4,
                batch_size: 8,
                speeds: spread_speeds(6, 0.1, 1.0, seed),
                // At the default rate of 0.05 this short run diverges on
                // some seeds; 0.005 learns steadily on every seed tried.
                sgd: SgdConfig { lr: 0.005, momentum: 0.9, ..SgdConfig::default() },
                eval_samples: 128,
                mode: Mode::Real,
                codec: CodecConfig::DenseF32,
                seed,
                ..ExperimentConfig::default()
            },
            Workload::CrossDeviceMnist => ExperimentConfig {
                dataset: DataConfig {
                    spec: DatasetSpec::MnistLike,
                    train_size: 4096,
                    test_size: 256,
                    seed: seed ^ 0xda7a,
                },
                arch: ModelArch::MnistCnn,
                partition: Scheme::Iid,
                num_clients: 20_000,
                clients_per_round: 64,
                rounds: MNIST_ROUNDS,
                local_updates: 1,
                batch_size: 1,
                speeds: aergia_simnet::cluster::uniform_speeds(20_000, 0.05, 1.0, seed),
                // One local step per client makes each round a single
                // averaged SGD step; at the default rate of 0.05 the test
                // accuracy swings between rounds, at 0.03 it climbs
                // steadily past 0.9 by the last round on every seed tried.
                sgd: SgdConfig { lr: 0.03, momentum: 0.9, ..SgdConfig::default() },
                eval_samples: 256,
                mode: Mode::Real,
                codec: CodecConfig::TopKDelta { keep_permille: 50 },
                client_state: ClientStateMode::CohortSampled { max_resident: 64 },
                seed,
                ..ExperimentConfig::default()
            },
            Workload::Population1mTiming => {
                aergia_bench::scaleout_config(1_000_000, 10_000, TIMING_ROUNDS, seed)
            }
            Workload::LoopbackTcp => ExperimentConfig {
                num_clients: 2,
                clients_per_round: 2,
                rounds: TCP_ROUNDS,
                speeds: spread_speeds(2, 0.25, 1.0, seed),
                // The preset's 3 rounds are stable at the default rate of
                // 0.05; over 20 rounds some seeds diverge to NaN there (in
                // process as well as over TCP), at 0.01 none of those did.
                sgd: SgdConfig { lr: 0.01, momentum: 0.9, ..SgdConfig::default() },
                ..aergia_net::presets::smoke_config(seed, CodecConfig::DenseF32)
            },
        }
    }

    /// The largest conv im2col GEMM `(m, k, n)` of the workload's model at
    /// its batch size: `(batch·H·W, C_in·k², C_out)`.
    pub fn conv_gemm_shape(self) -> (usize, usize, usize) {
        let batch = self.config(0).batch_size;
        match self {
            // conv2: 32→32 channels, 3×3, at 32×32.
            Workload::CrossSiloCifar => (batch * 32 * 32, 32 * 9, 32),
            // conv2: 16→32 channels, 5×5, at 14×14.
            _ => (batch * 14 * 14, 16 * 25, 32),
        }
    }

    /// Engine set-ups per in-process run: about half a second of set-up
    /// in all, so the set-up median has samples even when an invocation
    /// completes a single run.
    pub fn setups(self) -> usize {
        match self {
            Workload::CrossSiloCifar => 9,
            Workload::Population1mTiming => 3,
            _ => 5,
        }
    }

    pub fn is_real(self) -> bool {
        self.config(0).mode == Mode::Real
    }
}

const CIFAR_ROUNDS: u32 = 12;
const MNIST_ROUNDS: u32 = 32;
const TIMING_ROUNDS: u32 = 24;
const TCP_ROUNDS: u32 = 20;

/// `n` speeds evenly spread over `[lo, hi]`, each scaled by a seeded
/// jitter of at most ±2% (the spread's ends are pulled in so the result
/// stays inside the range) and assigned to clients in a seeded order: the
/// seed decides which client is slow and perturbs the profile, while the
/// spread of speeds stays fixed by the workload.
fn spread_speeds(n: usize, lo: f64, hi: f64, seed: u64) -> Vec<f64> {
    const JITTER: f64 = 0.02;
    let (lo_base, hi_base) = (lo / (1.0 - JITTER), hi / (1.0 + JITTER));
    let mut state = seed ^ 0x5eed_5eed;
    let mut next = || {
        state = splitmix(state);
        state
    };
    let mut speeds: Vec<f64> = (0..n)
        .map(|i| {
            let base = lo_base + (hi_base - lo_base) * i as f64 / (n.max(2) - 1) as f64;
            let jitter = JITTER * ((next() >> 11) as f64 / (1u64 << 53) as f64 * 2.0 - 1.0);
            (base * (1.0 + jitter)).clamp(lo, hi)
        })
        .collect();
    for i in (1..n).rev() {
        speeds.swap(i, (next() % (i as u64 + 1)) as usize);
    }
    speeds
}

/// SplitMix64 step.
fn splitmix(x: u64) -> u64 {
    let mut z = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}
