//! The program binaries, run as subprocesses: building them, starting
//! and stopping a `qa-serve` daemon, and timing a `qa-fleet` batch while
//! sampling its peak memory.

use std::io::{BufRead, BufReader};
use std::net::SocketAddr;
use std::path::{Path, PathBuf};
use std::process::{Child, ChildStdout, Command, ExitStatus, Stdio};
use std::sync::atomic::{AtomicBool, Ordering};
use std::time::{Duration, Instant};

use crate::http;

/// Paths of the two binaries under test.
#[derive(Clone, Debug)]
pub struct Binaries {
    /// `qa-serve`.
    pub serve: PathBuf,
    /// `qa-fleet`.
    pub fleet: PathBuf,
}

/// Build `qa-serve` and `qa-fleet` in release mode from the checkout at
/// `root`, into `$CARGO_TARGET_DIR` (or `root/target`).
pub fn build(root: &Path) -> Result<Binaries, String> {
    let cargo = std::env::var_os("CARGO").unwrap_or_else(|| "cargo".into());
    let status = Command::new(cargo)
        .args([
            "build",
            "--release",
            "--quiet",
            "-p",
            "qa-serve",
            "-p",
            "qa-flight",
            "--bins",
        ])
        .current_dir(root)
        .stdout(Stdio::null())
        .status()
        .map_err(|e| format!("cannot run cargo: {e}"))?;
    if !status.success() {
        return Err(format!("building the binaries failed: {status}"));
    }
    let target = match std::env::var_os("CARGO_TARGET_DIR") {
        Some(dir) => root.join(dir),
        None => root.join("target"),
    };
    let bins = Binaries {
        serve: target.join("release").join("qa-serve"),
        fleet: target.join("release").join("qa-fleet"),
    };
    for bin in [&bins.serve, &bins.fleet] {
        if !bin.is_file() {
            return Err(format!("{} was not built", bin.display()));
        }
    }
    Ok(bins)
}

/// Peak resident set (`VmHWM`) of process `pid`, in MiB.
pub fn peak_rss_mb(pid: u32) -> Option<f64> {
    let status = std::fs::read_to_string(format!("/proc/{pid}/status")).ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kib: f64 = line.split_ascii_whitespace().nth(1)?.parse().ok()?;
    Some(kib / 1024.0)
}

/// A running `qa-serve --listen 127.0.0.1:0 --workers 2 --http-threads 2`.
/// Dropping it kills the process and waits for it.
pub struct Daemon {
    child: Child,
    /// Kept open so the daemon never writes into a closed pipe.
    _stdout: BufReader<ChildStdout>,
    /// The bound address the daemon printed.
    pub addr: SocketAddr,
}

impl Daemon {
    /// Start a daemon and wait until `/readyz` answers 200.
    pub fn spawn(bin: &Path) -> Result<Daemon, String> {
        let mut child = Command::new(bin)
            .args([
                "--listen",
                "127.0.0.1:0",
                "--workers",
                "2",
                "--http-threads",
                "2",
            ])
            .stdin(Stdio::null())
            .stdout(Stdio::piped())
            .spawn()
            .map_err(|e| format!("cannot start {}: {e}", bin.display()))?;
        let mut stdout = BufReader::new(child.stdout.take().expect("stdout is piped"));
        let mut banner = String::new();
        let read = stdout.read_line(&mut banner);
        let addr = banner
            .trim()
            .strip_prefix("pulse: serving on ")
            .and_then(|a| a.parse().ok());
        let Some(addr) = addr else {
            let _ = child.kill();
            let _ = child.wait();
            return Err(format!(
                "qa-serve printed no address ({read:?}): {banner:?}"
            ));
        };
        let daemon = Daemon {
            child,
            _stdout: stdout,
            addr,
        };
        let deadline = Instant::now() + Duration::from_secs(10);
        loop {
            match http::request(addr, "GET", "/readyz", "") {
                Ok(r) if r.status == 200 => return Ok(daemon),
                _ if Instant::now() > deadline => return Err("qa-serve never became ready".into()),
                _ => std::thread::sleep(Duration::from_millis(2)),
            }
        }
    }

    /// Peak resident set of the daemon so far, in MiB.
    pub fn peak_rss_mb(&self) -> Option<f64> {
        peak_rss_mb(self.child.id())
    }

    /// Ask the daemon to quit and wait for it; kill it after 10 s.
    pub fn stop(mut self) -> Result<(), String> {
        let _ = http::request(self.addr, "GET", "/quit", "");
        let deadline = Instant::now() + Duration::from_secs(10);
        while Instant::now() < deadline {
            match self.child.try_wait() {
                Ok(Some(status)) if status.success() => return Ok(()),
                Ok(Some(status)) => return Err(format!("qa-serve exited with {status}")),
                Ok(None) => std::thread::sleep(Duration::from_millis(5)),
                Err(e) => return Err(format!("cannot wait for qa-serve: {e}")),
            }
        }
        Err("qa-serve ignored /quit".into())
    }
}

impl Drop for Daemon {
    fn drop(&mut self) {
        if let Ok(None) = self.child.try_wait() {
            let _ = self.child.kill();
        }
        let _ = self.child.wait();
    }
}

/// One finished subprocess: exit status, wall time from spawn to exit,
/// and the last `VmHWM` read while it ran.
pub struct Finished {
    /// Exit status.
    pub status: ExitStatus,
    /// Spawn-to-exit wall time, seconds.
    pub wall_s: f64,
    /// Peak resident set in MiB, sampled every few milliseconds.
    pub peak_rss_mb: f64,
}

/// Run `cmd` to completion with stdout and stderr discarded. One thread
/// waits for the exit (so the wall time is exact) while this thread
/// samples `/proc/<pid>/status`.
pub fn run_sampled(mut cmd: Command) -> Result<Finished, String> {
    let started = Instant::now();
    let mut child = cmd
        .stdin(Stdio::null())
        .stdout(Stdio::null())
        .stderr(Stdio::null())
        .spawn()
        .map_err(|e| format!("cannot start {cmd:?}: {e}"))?;
    let pid = child.id();
    let done = AtomicBool::new(false);
    let mut peak = 0.0f64;
    let (status, wall_s) = std::thread::scope(|scope| {
        let waiter = scope.spawn(|| {
            let status = child.wait();
            let wall_s = started.elapsed().as_secs_f64();
            done.store(true, Ordering::Release);
            (status, wall_s)
        });
        while !done.load(Ordering::Acquire) {
            if let Some(mb) = peak_rss_mb(pid) {
                peak = peak.max(mb);
            }
            std::thread::sleep(Duration::from_millis(5));
        }
        waiter.join().expect("waiter thread")
    });
    let status = status.map_err(|e| format!("cannot wait for {cmd:?}: {e}"))?;
    Ok(Finished {
        status,
        wall_s,
        peak_rss_mb: peak,
    })
}
