//! The `loopback-tcp` workload: `aergia_net::coordinator::serve` plus two
//! `client::run` workers over loopback in this process.
//!
//! `serve` is measured as a black box. The benchmark sees it through what
//! it publishes: the port file (listening), its operational stderr line
//! once every worker is admitted (round 0 starts), and the checkpoint it
//! commits atomically after every round (a round ends).

use std::fs::File;
use std::io::{BufRead, BufReader, Write};
use std::os::unix::fs::MetadataExt;
use std::os::unix::io::FromRawFd;
use std::path::{Path, PathBuf};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use aergia_net::client::{self, ClientOpts};
use aergia_net::coordinator::{self, CoordinatorOpts};
use aergia_net::proto::RunOutcome;

use crate::shim::peak_rss_mib;
use crate::workloads::Workload;

const W: Workload = Workload::LoopbackTcp;

/// What one networked run measured.
pub struct TcpRun {
    pub setup_s: f64,
    pub rounds_s: Vec<f64>,
    pub run_s: f64,
    pub outcome: RunOutcome,
    pub peak_rss_mib: f64,
}

extern "C" {
    fn pipe(fds: *mut i32) -> i32;
    fn dup(fd: i32) -> i32;
    fn dup2(from: i32, to: i32) -> i32;
    fn close(fd: i32) -> i32;
}

/// Redirects this process's stderr through a pipe whose reader
/// timestamps every line and passes it on to the original stderr.
struct StderrTap {
    saved: i32,
    lines: Arc<Mutex<Vec<(Instant, String)>>>,
    reader: Option<std::thread::JoinHandle<()>>,
}

impl StderrTap {
    fn start() -> Result<StderrTap, String> {
        let mut fds = [0i32; 2];
        // SAFETY: plain POSIX calls on descriptors this function owns.
        let saved = unsafe {
            if pipe(fds.as_mut_ptr()) != 0 {
                return Err("pipe failed".into());
            }
            let saved = dup(2);
            if saved < 0 || dup2(fds[1], 2) < 0 {
                return Err("stderr redirect failed".into());
            }
            close(fds[1]);
            saved
        };
        let lines = Arc::new(Mutex::new(Vec::new()));
        let sink = Arc::clone(&lines);
        // SAFETY: `fds[0]` is the pipe's read end, owned by the reader from here on.
        let read_end = unsafe { File::from_raw_fd(fds[0]) };
        // SAFETY: a second handle on the saved stderr; `ManuallyDrop` keeps
        // it open for the restore in `stop`.
        let mut forward = std::mem::ManuallyDrop::new(unsafe { File::from_raw_fd(saved) });
        let reader = std::thread::spawn(move || {
            for line in BufReader::new(read_end).lines().map_while(Result::ok) {
                let at = Instant::now();
                let _ = writeln!(forward, "{line}");
                sink.lock().expect("tap lock").push((at, line));
            }
        });
        Ok(StderrTap { saved, lines, reader: Some(reader) })
    }

    /// Restores stderr and returns every line seen.
    fn stop(&mut self) -> Vec<(Instant, String)> {
        if let Some(reader) = self.reader.take() {
            // SAFETY: restores the descriptor saved in `start`; dropping
            // fd 2's pipe reference lets the reader reach end of file.
            unsafe {
                dup2(self.saved, 2);
                close(self.saved);
            }
            let _ = reader.join();
        }
        std::mem::take(&mut *self.lines.lock().expect("tap lock"))
    }
}

impl Drop for StderrTap {
    fn drop(&mut self) {
        self.stop();
    }
}

/// The checkpoint file's identity; a change means `serve` committed a
/// round (it writes a temp file and renames it over the old one). The
/// modification time guards against the file system reusing an inode.
fn identity(path: &Path) -> Option<(u64, i64, i64)> {
    std::fs::metadata(path).ok().map(|m| (m.ino(), m.mtime(), m.mtime_nsec()))
}

/// Runs the networked experiment once. `dir` holds the run's port,
/// checkpoint and result files.
pub fn run(seed: u64, started: Instant, dir: &Path) -> Result<TcpRun, String> {
    let config = W.config(seed);
    let rounds = config.rounds as usize;
    let opts = CoordinatorOpts::in_dir(dir);
    for stale in [&opts.port_file, &opts.checkpoint, &opts.result] {
        let _ = std::fs::remove_file(stale);
    }
    let mut tap = StderrTap::start()?;
    let serve_opts = opts.clone();
    let coordinator = std::thread::spawn(move || {
        coordinator::serve(config, W.strategy(), W.topology(seed), &serve_opts)
    });

    // Workers are launched once the coordinator publishes its port, as a
    // deployment would start them against a running coordinator.
    let poll = Duration::from_micros(500);
    let deadline = Instant::now() + Duration::from_secs(120);
    while !opts.port_file.exists() && !coordinator.is_finished() {
        if Instant::now() > deadline {
            return Err("coordinator never published its port".into());
        }
        std::thread::sleep(poll);
    }
    let port_file: PathBuf = opts.port_file.clone();
    let workers: Vec<_> = (0..2)
        .map(|id| {
            let opts = ClientOpts { id, port_file: port_file.clone(), crash_at_round: None };
            std::thread::spawn(move || client::run(&opts))
        })
        .collect();

    let mut commits: Vec<Instant> = Vec::with_capacity(rounds);
    let mut last = None;
    let mut watch = || {
        let now = identity(&opts.checkpoint);
        if now.is_some() && now != last {
            commits.push(Instant::now());
            last = now;
            crate::heartbeat("round");
        }
    };
    while !coordinator.is_finished() {
        watch();
        std::thread::sleep(poll);
    }
    let finished = Instant::now();
    // The last commit may land in the same poll interval as the exit.
    watch();
    let served = coordinator.join().map_err(|_| "coordinator panicked".to_string())?;
    for worker in workers {
        worker
            .join()
            .map_err(|_| "worker panicked".to_string())?
            .map_err(|e| format!("worker: {e}"))?;
    }
    let peak = peak_rss_mib();
    let lines = tap.stop();
    let outcome = served.map_err(|e| format!("serve: {e}"))?.ok_or("serve halted early")?;

    let admitted = lines
        .iter()
        .find(|(_, l)| l.contains("clients admitted"))
        .map(|(at, _)| *at)
        .ok_or("no admission line from the coordinator")?;
    if commits.len() != rounds {
        return Err(format!("saw {} round commits for {rounds} rounds", commits.len()));
    }
    let mut rounds_s = Vec::with_capacity(rounds);
    let mut prev = admitted;
    for &c in &commits {
        rounds_s.push(c.saturating_duration_since(prev).as_secs_f64());
        prev = c;
    }
    Ok(TcpRun {
        setup_s: admitted.duration_since(started).as_secs_f64(),
        rounds_s,
        run_s: finished.duration_since(started).as_secs_f64(),
        outcome,
        peak_rss_mib: peak,
    })
}
