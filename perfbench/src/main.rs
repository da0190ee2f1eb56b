//! One attempt of one benchmark workload, in a fresh process.
//!
//! `run.py` (next to this crate) is the benchmark's entry point: it builds
//! this binary, runs attempts under a watchdog and summarises them. Each
//! attempt runs a fixed experiment once, prints `hb <label>` heartbeats as
//! it progresses and ends with one `result {json}` line.
//!
//! ```text
//! aergia-perfbench --workload <name> --seed <n> --trace <0|1> --dir <path> [--twin]
//! aergia-perfbench --host --workload <name>
//! ```

mod inproc;
mod layers;
mod loopback;
mod report;
mod shim;
mod workloads;

use std::io::Write;
use std::path::{Path, PathBuf};
use std::time::Instant;

use aergia::prelude::*;

use crate::layers::Snapshot;
use crate::report::Report;
use crate::workloads::Workload;

/// Tells the watchdog the attempt is alive.
pub fn heartbeat(label: &str) {
    let mut out = std::io::stdout().lock();
    let _ = writeln!(out, "hb {label}");
    let _ = out.flush();
}

struct Args {
    workload: Workload,
    seed: u64,
    traced: bool,
    dir: PathBuf,
    twin: bool,
    host: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = std::env::args().skip(1);
    let (mut workload, mut seed, mut traced, mut dir) = (None, 0, false, None);
    let (mut twin, mut host) = (false, false);
    while let Some(flag) = args.next() {
        let mut value = || args.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => {
                let name = value()?;
                workload =
                    Some(Workload::by_name(&name).ok_or(format!("unknown workload {name}"))?);
            }
            "--seed" => seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--trace" => traced = value()? == "1",
            "--dir" => dir = Some(PathBuf::from(value()?)),
            "--twin" => twin = true,
            "--host" => host = true,
            other => return Err(format!("unknown flag {other}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed,
        traced,
        dir: dir.unwrap_or_else(|| PathBuf::from(".")),
        twin,
        host,
    })
}

fn main() {
    let started = Instant::now();
    let args = parse_args().unwrap_or_else(|e| {
        eprintln!("aergia-perfbench: {e}");
        std::process::exit(2);
    });
    let outcome = if args.host {
        Ok(host(args.workload))
    } else {
        std::fs::create_dir_all(&args.dir)
            .map_err(|e| format!("run dir: {e}"))
            .and_then(|()| attempt(&args, started))
    };
    match outcome {
        Ok(report) => println!("result {}", report.render()),
        Err(e) => {
            eprintln!("aergia-perfbench: {} seed {}: {e}", args.workload.name(), args.seed);
            std::process::exit(1);
        }
    }
}

fn attempt(args: &Args, started: Instant) -> Result<Report, String> {
    if args.traced {
        aergia_telemetry::enable();
    }
    match args.workload {
        Workload::LoopbackTcp => attempt_tcp(args, started),
        w => attempt_inproc(w, args.seed, args.traced, &args.dir, started),
    }
}

/// The figures every attempt reports.
fn common(
    r: &mut Report,
    workload: Workload,
    seed: u64,
    result: &RunResult,
    final_accuracy: f64,
    weights: &[aergia_tensor::Tensor],
) {
    r.text("workload", workload.name());
    r.num("seed", seed as f64);
    r.num("updates", inproc::updates(result) as f64);
    r.num("virtual_time_s", result.total_time().as_secs_f64());
    r.num("final_accuracy", final_accuracy);
    r.num("bytes_per_round", result.mean_round_bytes());
    r.text("fingerprint", &inproc::fingerprint(weights));
}

fn attempt_inproc(
    workload: Workload,
    seed: u64,
    traced: bool,
    dir: &Path,
    started: Instant,
) -> Result<Report, String> {
    let mut run = inproc::run(workload, seed, traced, started, None)?;
    let mut r = Report::default();
    common(&mut r, workload, seed, &run.result, run.final_accuracy, &run.weights);
    r.list("setups_s", &run.setups_s);
    r.list("rounds_s", &run.rounds_s);
    r.num("run_s", run.run_s());
    r.num("samples", inproc::samples(&run));
    r.num("peak_rss_mib", run.peak_rss_mib);
    r.texts("failed_checks", &inproc::checks(workload, seed, &run.result, run.final_accuracy));
    if traced {
        let snap = Snapshot::take();
        r.object("layers", &layers::measure(workload, seed, &mut run, &snap, dir));
    }
    Ok(r)
}

/// The networked run; with `--twin` (and always when traced) the same
/// experiment also runs in process, which must reproduce the networked
/// outcome bit for bit and supplies the batch counts and the per-layer
/// figures `serve` does not expose.
fn attempt_tcp(args: &Args, started: Instant) -> Result<Report, String> {
    let w = Workload::LoopbackTcp;
    let tcp = loopback::run(args.seed, started, &args.dir)?;
    let snap = args.traced.then(Snapshot::take);
    let result = &tcp.outcome.result;
    let mut r = Report::default();
    common(&mut r, w, args.seed, result, result.final_accuracy, &tcp.outcome.weights);
    r.list("setups_s", &[tcp.setup_s]);
    r.list("rounds_s", &tcp.rounds_s);
    r.num("run_s", tcp.run_s);
    r.num("peak_rss_mib", tcp.peak_rss_mib);
    let mut failed = inproc::checks(w, args.seed, result, result.final_accuracy);
    if args.twin || args.traced {
        let checkpoints = args.traced.then_some(args.dir.as_path());
        let mut twin = inproc::run(w, args.seed, args.traced, Instant::now(), checkpoints)?;
        if twin.result != *result {
            failed.push("TCP run outcome differs from the in-process twin".to_string());
        }
        if inproc::fingerprint(&twin.weights) != inproc::fingerprint(&tcp.outcome.weights) {
            failed.push("TCP final weights differ from the in-process twin".to_string());
        }
        r.boolean("twin_checked", true);
        r.num("samples", inproc::samples(&twin));
        if let Some(snap) = &snap {
            r.object("layers", &layers::measure(w, args.seed, &mut twin, snap, &args.dir));
        }
    }
    r.texts("failed_checks", &failed);
    Ok(r)
}

/// The host context every report carries.
fn host(workload: Workload) -> Report {
    let (m, k, n) = workload.conv_gemm_shape();
    let tile = aergia_tensor::gemm::tuned_variant(aergia_tensor::gemm::GemmOp::Nn, m, k, n);
    let mut r = Report::default();
    r.num("nproc", std::thread::available_parallelism().map_or(1, |n| n.get()) as f64);
    r.num("pool_threads", aergia_runtime::ThreadPool::global().threads() as f64);
    r.text("isa", aergia_tensor::gemm::active_isa().label());
    r.text("gemm_tile", &format!("{}x{} at {m}x{k}x{n}", tile.mr, tile.nr));
    r.text("profile", if cfg!(debug_assertions) { "debug" } else { "release" });
    r
}
