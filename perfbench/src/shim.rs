//! The transport boundary as seen from outside the engine: a wrapper
//! around [`InProcess`] that counts the batches every order asks for and,
//! in the traced run, clocks each call plus the process CPU time spent
//! inside it.

use std::time::Instant;

use aergia::prelude::*;
use aergia::transport::{OffloadOrder, OffloadReply, RoundContext, TrainOrder, TrainReply};

/// Per-round figures the wrapper collected.
#[derive(Debug, Default, Clone)]
pub struct RoundCalls {
    pub train_s: f64,
    pub offload_s: f64,
}

/// Forwards every call to [`InProcess`]. Untraced runs only sum the
/// batch counts from the orders (no clocks, no file reads); traced runs
/// also time each call and read `/proc/self/stat` around the training
/// fan-out.
pub struct Shim {
    inner: InProcess,
    clocked: bool,
    pub own_batches: u64,
    pub offload_batches: u64,
    pub orders: u64,
    pub offload_orders: u64,
    /// The current round's transport time (traced runs).
    pub round: RoundCalls,
    /// Wall and process-CPU seconds summed over every training fan-out.
    pub train_wall_s: f64,
    pub train_cpu_s: f64,
}

impl Shim {
    pub fn new(clocked: bool) -> Self {
        Shim {
            inner: InProcess,
            clocked,
            own_batches: 0,
            offload_batches: 0,
            orders: 0,
            offload_orders: 0,
            round: RoundCalls::default(),
            train_wall_s: 0.0,
            train_cpu_s: 0.0,
        }
    }

    /// Returns and clears the current round's transport times.
    pub fn take_round(&mut self) -> RoundCalls {
        std::mem::take(&mut self.round)
    }
}

impl Transport for Shim {
    fn train_participants(
        &mut self,
        ctx: &RoundContext<'_>,
        orders: Vec<TrainOrder<'_>>,
    ) -> Result<Vec<TrainReply>, TransportError> {
        self.orders += orders.len() as u64;
        self.own_batches += orders.iter().map(|o| u64::from(o.own_batches)).sum::<u64>();
        if !self.clocked {
            return self.inner.train_participants(ctx, orders);
        }
        let cpu0 = process_cpu_s();
        let started = Instant::now();
        let replies = self.inner.train_participants(ctx, orders);
        let wall = started.elapsed().as_secs_f64();
        self.train_cpu_s += process_cpu_s() - cpu0;
        self.train_wall_s += wall;
        self.round.train_s += wall;
        replies
    }

    fn train_offloads(
        &mut self,
        ctx: &RoundContext<'_>,
        orders: Vec<OffloadOrder<'_>>,
    ) -> Result<Vec<OffloadReply>, TransportError> {
        self.offload_orders += orders.len() as u64;
        self.offload_batches += orders.iter().map(|o| u64::from(o.batches)).sum::<u64>();
        if !self.clocked {
            return self.inner.train_offloads(ctx, orders);
        }
        let started = Instant::now();
        let replies = self.inner.train_offloads(ctx, orders);
        self.round.offload_s += started.elapsed().as_secs_f64();
        replies
    }
}

/// User plus system CPU seconds of this process, from `/proc/self/stat`
/// (fields 14 and 15, in clock ticks of 1/100 s).
pub fn process_cpu_s() -> f64 {
    let stat = std::fs::read_to_string("/proc/self/stat").unwrap_or_default();
    // The command name may contain spaces; fields resume after its ')'.
    let rest = stat.rsplit_once(')').map_or("", |(_, r)| r);
    let fields: Vec<&str> = rest.split_whitespace().collect();
    // `rest` starts at field 3 (state), so utime/stime are at 11 and 12.
    let tick = |i: usize| fields.get(i).and_then(|v| v.parse::<f64>().ok()).unwrap_or(0.0);
    (tick(11) + tick(12)) / 100.0
}

/// Peak resident set size of this process (VmHWM) in MiB.
pub fn peak_rss_mib() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kib| kib / 1024.0)
}
