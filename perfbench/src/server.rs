//! A spawned `provbench serve --dir` process, killed and reaped on drop.

use crate::client;
use std::io::{BufRead, BufReader};
use std::net::SocketAddr;
use std::path::Path;
use std::process::{Child, Command, Stdio};
use std::sync::mpsc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// How long a start may take before it counts as never ready.
const READY_TIMEOUT: Duration = Duration::from_secs(60);
/// Interval between `/readyz` probes while waiting.
const PROBE_EVERY: Duration = Duration::from_millis(5);

pub struct Server {
    child: Child,
    pub addr: SocketAddr,
    stderr: Option<JoinHandle<()>>,
}

#[cfg(target_os = "linux")]
fn die_with_parent(cmd: &mut Command) {
    use std::os::unix::process::CommandExt;
    extern "C" {
        fn prctl(option: i32, ...) -> i32;
    }
    const PR_SET_PDEATHSIG: i32 = 1;
    const SIGKILL: u64 = 9;
    // SAFETY: the closure runs in the forked child before exec and only
    // makes one async-signal-safe system call; it touches no memory of
    // the parent and allocates nothing.
    unsafe {
        cmd.pre_exec(|| {
            prctl(PR_SET_PDEATHSIG, SIGKILL);
            Ok(())
        });
    }
}

#[cfg(not(target_os = "linux"))]
fn die_with_parent(_cmd: &mut Command) {}

impl Server {
    /// Spawn the server on an ephemeral loopback port and wait until it
    /// has bound (it binds before loading the corpus).
    pub fn spawn(bin: &Path, dir: &Path) -> Result<Server, String> {
        let mut cmd = Command::new(bin);
        cmd.arg("serve")
            .arg("--dir")
            .arg(dir)
            .args(["--addr", "127.0.0.1:0"])
            .stdin(Stdio::null())
            .stdout(Stdio::null())
            .stderr(Stdio::piped());
        // The server outlives nothing: if the benchmark is killed, so is
        // every server it started.
        die_with_parent(&mut cmd);
        let mut child = cmd
            .spawn()
            .map_err(|e| format!("spawn {}: {e}", bin.display()))?;
        let stderr = child.stderr.take().expect("stderr is piped");
        let (tx, rx) = mpsc::channel();
        // Read the bound port from the server's log, then keep draining
        // it so the server never blocks on a full pipe.
        let reader = std::thread::spawn(move || {
            for line in BufReader::new(stderr).lines() {
                let Ok(line) = line else { break };
                if let Some(rest) = line.strip_prefix("listening on http://") {
                    let _ = tx.send(rest.trim_end_matches('/').to_owned());
                }
            }
        });
        let mut server = Server {
            child,
            addr: SocketAddr::from(([127, 0, 0, 1], 0)),
            stderr: Some(reader),
        };
        let addr = rx
            .recv_timeout(Duration::from_secs(10))
            .map_err(|_| "server did not report its address".to_owned())?;
        server.addr = addr
            .parse()
            .map_err(|e| format!("bad server address {addr:?}: {e}"))?;
        Ok(server)
    }

    /// Poll `/readyz` until it answers 200; `Err` if the process exits or
    /// the timeout passes first.
    pub fn wait_ready(&mut self) -> Result<(), String> {
        let deadline = Instant::now() + READY_TIMEOUT;
        loop {
            if let Ok(Some(status)) = self.child.try_wait() {
                return Err(format!("server exited before ready: {status}"));
            }
            if matches!(client::get(self.addr, "/readyz"), Ok(r) if r.status == 200) {
                return Ok(());
            }
            if Instant::now() >= deadline {
                return Err("server not ready within 60 s".into());
            }
            std::thread::sleep(PROBE_EVERY);
        }
    }

    /// Spawn, and wait for `/readyz` and then `/lint` to answer 200 so no
    /// background load work overlaps what follows. Returns the server and
    /// the time from spawn to the first 200 from `/readyz`.
    pub fn start(bin: &Path, dir: &Path) -> Result<(Server, Duration), String> {
        let spawned = Instant::now();
        let mut server = Server::spawn(bin, dir)?;
        server.wait_ready()?;
        let ready = spawned.elapsed();
        match client::get(server.addr, "/lint") {
            Ok(r) if r.status == 200 => Ok((server, ready)),
            Ok(r) => Err(format!("/lint answered {} after ready", r.status)),
            Err(e) => Err(format!("/lint: {e}")),
        }
    }

    /// Peak resident set (`VmHWM`) of the server process, in MB.
    pub fn peak_rss_mb(&self) -> Option<f64> {
        let status = std::fs::read_to_string(format!("/proc/{}/status", self.child.id())).ok()?;
        let kb: f64 = status
            .lines()
            .find_map(|l| l.strip_prefix("VmHWM:"))?
            .trim()
            .trim_end_matches("kB")
            .trim()
            .parse()
            .ok()?;
        Some(kb / 1024.0)
    }

    /// Body of `GET path`, which must answer 200.
    pub fn get_text(&self, path: &str) -> Result<String, String> {
        match client::get(self.addr, path) {
            Ok(r) if r.status == 200 => {
                String::from_utf8(r.body).map_err(|_| format!("{path}: non-UTF-8 body"))
            }
            Ok(r) => Err(format!("{path} answered {}", r.status)),
            Err(e) => Err(format!("{path}: {e}")),
        }
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        let _ = self.child.kill();
        let _ = self.child.wait();
        if let Some(reader) = self.stderr.take() {
            let _ = reader.join();
        }
    }
}

/// The value of one sample line of a Prometheus text exposition, e.g.
/// `series = "provbench_query_rows_emitted_total"` or
/// `provbench_connections_total{result="ok"}`; 0 when absent.
pub fn prom_value(text: &str, series: &str) -> f64 {
    text.lines()
        .filter_map(|l| l.strip_prefix(series))
        .find_map(|rest| rest.strip_prefix(' '))
        .and_then(|v| v.trim().parse().ok())
        .unwrap_or(0.0)
}
