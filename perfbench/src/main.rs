//! End-to-end and per-layer benchmark of `provbench serve`.
//!
//! ```sh
//! cargo run --release --offline --manifest-path perfbench/Cargo.toml -- \
//!     --workload exemplar_mix --seed 1 --seconds 20 --trace 0
//! ```
//!
//! Run from the repository root. The benchmark builds the real
//! `provbench` binary from the sources next to it, generates a 10x corpus
//! from `--seed` under `.perfbench_work/`, drives the server over
//! loopback HTTP, checks every answer against answers computed
//! in-process, and prints one JSON object as the last line of stdout.
//! `--trace 1` replays the same inputs in-process through the library's
//! public functions and reports per-layer numbers instead; its spans go
//! to `.perfbench_out/`. See `perfbench/README.md`.

mod client;
mod prep;
mod server;
mod stats;
mod trace;
mod workloads;

use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::time::Instant;

/// Workload names, in the order `BENCHMARK.json` lists them.
const WORKLOADS: &[&str] = &["exemplar_mix", "bulk_export", "cold_start"];

/// Everything a run must finish within, build excluded; the harness
/// allows 180 s.
const RUN_BUDGET_SECS: u64 = 150;

struct Args {
    workload: String,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or(format!("{flag} needs a value"))?;
        let number = || {
            value
                .parse::<u64>()
                .map_err(|_| format!("{flag} needs a whole number, got {value:?}"))
        };
        match flag.as_str() {
            "--workload" => workload = Some(value.clone()),
            "--seed" => seed = Some(number()?),
            "--seconds" => seconds = Some(number()?),
            "--trace" => trace = Some(number()? != 0),
            _ => return Err(format!("unknown option {flag}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    if !WORKLOADS.contains(&workload.as_str()) {
        return Err(format!(
            "unknown workload {workload:?} (one of {})",
            WORKLOADS.join(", ")
        ));
    }
    let seconds = seconds.unwrap_or(10);
    if !(1..=60).contains(&seconds) {
        return Err(format!("--seconds must be 1..=60, got {seconds}"));
    }
    Ok(Args {
        workload,
        seed: seed.unwrap_or(42),
        seconds,
        trace: trace.unwrap_or(false),
    })
}

/// Build `provbench` from the repository in the current directory and
/// return the path of the release binary. Build output goes to stderr.
fn build_server() -> Result<PathBuf, String> {
    if !Path::new("Cargo.toml").is_file() || !Path::new("src/bin/provbench.rs").is_file() {
        return Err("run from the repository root (no provbench sources here)".into());
    }
    let cargo = std::env::var("CARGO").unwrap_or_else(|_| "cargo".into());
    let status = std::process::Command::new(cargo)
        .args([
            "build",
            "--release",
            "--offline",
            "--quiet",
            "--bin",
            "provbench",
        ])
        .stdout(std::process::Stdio::null())
        .status()
        .map_err(|e| format!("cargo build: {e}"))?;
    if !status.success() {
        return Err(format!("cargo build of provbench failed: {status}"));
    }
    let target = std::env::var_os("CARGO_TARGET_DIR")
        .map(PathBuf::from)
        .unwrap_or_else(|| PathBuf::from("target"));
    let bin = target.join("release").join("provbench");
    if !bin.is_file() {
        return Err(format!("built binary not found at {}", bin.display()));
    }
    Ok(bin)
}

/// A directory under the checkout that is removed when dropped, on
/// success and on failure alike.
struct WorkDir(PathBuf);

impl WorkDir {
    fn create() -> Result<WorkDir, String> {
        // A run that was killed leaves its directory behind; sweep those
        // whose process is gone (where `/proc` can tell) so they cannot
        // pile up.
        let proc = Path::new("/proc/self").exists();
        for entry in std::fs::read_dir(".perfbench_work")
            .into_iter()
            .flatten()
            .flatten()
        {
            let name = entry.file_name().to_string_lossy().into_owned();
            if let Some(pid) = name.strip_prefix("run-") {
                if proc && !Path::new("/proc").join(pid).exists() {
                    let _ = std::fs::remove_dir_all(entry.path());
                }
            }
        }
        let path = PathBuf::from(".perfbench_work").join(format!("run-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&path);
        std::fs::create_dir_all(&path).map_err(|e| format!("create {}: {e}", path.display()))?;
        Ok(WorkDir(path))
    }
}

impl Drop for WorkDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
        // Leave no empty parent behind either (fails harmlessly while
        // another run's directory is still in it).
        let _ = std::fs::remove_dir(".perfbench_work");
    }
}

/// The checkout's git revision; "unknown" outside a git checkout.
fn git_rev() -> String {
    if !Path::new(".git").exists() {
        return "unknown".into();
    }
    std::process::Command::new("git")
        .args(["rev-parse", "--short=12", "HEAD"])
        .stderr(std::process::Stdio::null())
        .output()
        .ok()
        .filter(|o| o.status.success())
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .map(|s| s.trim().to_owned())
        .unwrap_or_else(|| "unknown".into())
}

fn run(args: &Args) -> Result<stats::Outcome, String> {
    let bin = build_server()?;
    let started = Instant::now();
    let deadline = started + std::time::Duration::from_secs(RUN_BUDGET_SECS);
    let work = WorkDir::create()?;
    let prepared = prep::Prepared::build(args.seed, &work.0.join("corpus"), &args.workload)?;
    eprintln!(
        "perfbench: prepared seed {} in {:.1}s: {} files, {} bytes, {} triples, {} request texts",
        args.seed,
        started.elapsed().as_secs_f64(),
        prepared.source_files,
        prepared.source_bytes,
        prepared.triples,
        prepared.entries.len()
    );
    let cx = workloads::Context {
        bin: &bin,
        prepared: &prepared,
        seconds: args.seconds,
        seed: args.seed,
        deadline,
    };
    print_metadata(args, &prepared);
    let (steal_before, measured) = (stats::host_steal_s(), Instant::now());
    let outcome = if args.trace {
        trace::run(&cx, &args.workload)
    } else {
        match args.workload.as_str() {
            "exemplar_mix" => workloads::exemplar_mix(&cx),
            "bulk_export" => workloads::bulk_export(&cx),
            _ => workloads::cold_start(&cx),
        }
    };
    // CPU time the hypervisor gave other tenants while this run wanted
    // it: a run with much of it measured a busy host, not the program.
    println!(
        "{{\"host\":{{\"wall_s\":{:.3},\"steal_s\":{:.2}}}}}",
        measured.elapsed().as_secs_f64(),
        stats::host_steal_s() - steal_before
    );
    outcome
}

/// One stdout line of run metadata, before the result line.
fn print_metadata(args: &Args, p: &prep::Prepared) {
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    let config = format!("{:?}", provbench::endpoint::ServerConfig::new());
    let field = |name: &str| -> String {
        config
            .split(&format!("{name}: "))
            .nth(1)
            .and_then(|rest| rest.split([',', ' ']).next())
            .unwrap_or("?")
            .to_owned()
    };
    let ladder: Vec<String> = workloads::LADDER_RPS
        .iter()
        .map(|r| r.to_string())
        .collect();
    println!(
        "{{\"meta\":{{\"workload\":\"{}\",\"seed\":{},\"seconds\":{},\"trace\":{},\"nproc\":{nproc},\
         \"git_rev\":\"{}\",\"corpus_files\":{},\"corpus_bytes\":{},\"corpus_triples\":{},\
         \"server_workers\":{},\"server_queue_depth\":{},\"server_plan_cache\":{},\"server_eval_jobs\":{},\
         \"ladder_rps\":[{}],\"reporting_rps\":{},\"latency_limit_ms\":{}}}}}",
        args.workload,
        args.seed,
        args.seconds,
        args.trace,
        git_rev(),
        p.source_files,
        p.source_bytes,
        p.triples,
        field("workers"),
        field("queue_depth"),
        field("plan_cache_size"),
        field("eval_jobs"),
        ladder.join(","),
        workloads::REPORTING_RPS,
        workloads::LATENCY_LIMIT_MS,
    );
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            eprintln!(
                "usage: perfbench --workload <{}> --seed N --seconds S --trace 0|1",
                WORKLOADS.join("|")
            );
            return ExitCode::from(2);
        }
    };
    match run(&args) {
        Ok(outcome) => {
            println!("{}", outcome.to_json());
            if outcome.wrong == 0 {
                ExitCode::SUCCESS
            } else {
                eprintln!("perfbench: {} wrong answers", outcome.wrong);
                ExitCode::FAILURE
            }
        }
        Err(e) => {
            eprintln!("perfbench: {e}");
            ExitCode::FAILURE
        }
    }
}
