//! The three timed workloads against the real server.

use crate::client;
use crate::prep::{Entry, Prepared, Verdict};
use crate::server::Server;
use crate::stats::{host_steal_s, median, percentile, Outcome};
use std::net::SocketAddr;
use std::path::Path;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::Mutex;
use std::time::{Duration, Instant};

/// `exemplar_mix` offered rates, low to high (requests per second).
/// On a 2-core host the server saturates near 450 rps: 300 sits below
/// that knee and 600 well past it.
pub const LADDER_RPS: &[u32] = &[200, 300, 600];
/// Share of the run each rung of the ladder gets.
const RUNG_SHARE: &[f64] = &[0.6, 0.28, 0.12];
/// The rung whose latencies are reported as `p50_ms` and `p90_ms`:
/// the first, which gets the largest share of the run.
pub const REPORTING_RPS: u32 = LADDER_RPS[0];
/// A rung whose sends fall this far behind schedule has a growing
/// backlog; it stops early and misses the limit.
const GIVE_UP_LATE_MS: f64 = 250.0;
/// A rung meets the limit when its p99 is at most this, counting every
/// failed request as missing it. The unloaded p99 of the mix is Q1's
/// tail, 13-34 ms from run to run on a shared 2-core host; past the
/// knee p99 exceeds 90 ms.
pub const LATENCY_LIMIT_MS: f64 = 50.0;
/// Warm server starts per run behind `setup_s` (median reported).
const WARM_STARTS: usize = 5;
/// Fewest cold starts per `cold_start` run.
const MIN_COLD_STARTS: usize = 3;

pub struct Context<'a> {
    pub bin: &'a Path,
    pub prepared: &'a Prepared,
    pub seconds: u64,
    pub seed: u64,
    pub deadline: Instant,
}

impl Context<'_> {
    fn check_time(&self) -> Result<(), String> {
        if Instant::now() > self.deadline {
            Err("run exceeded its time budget".into())
        } else {
            Ok(())
        }
    }
}

/// Client threads and connections: at most one per core.
pub fn client_threads() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

/// One timed request.
pub struct Sample {
    /// From when the request was due (open loop) or sent (closed loop)
    /// to the last byte of the answer; a failed request counts as
    /// infinitely late.
    pub latency_ms: f64,
    /// How late the send was against its due time.
    pub late_ms: f64,
    /// From send to the last byte.
    pub round_trip_ms: f64,
    pub connect_ms: f64,
    pub body_bytes: usize,
    pub verdict: Verdict,
    /// Index into the workload's request sequence.
    pub index: usize,
}

/// Send `entry`, time it from `due`, and check the answer.
fn send(addr: SocketAddr, entry: &Entry, index: usize, due: Instant, digest: bool) -> Sample {
    let sent = Instant::now();
    let reply = client::get(addr, &entry.target);
    let done = Instant::now();
    let (verdict, connect_ms, body_bytes) = match &reply {
        Ok(r) => (
            entry.check(r.status, &r.body, digest),
            ms(r.connect),
            r.body.len(),
        ),
        Err(_) => (Verdict::Failed, 0.0, 0),
    };
    Sample {
        latency_ms: if verdict == Verdict::Ok {
            ms(done - due)
        } else {
            f64::INFINITY
        },
        late_ms: ms(sent.saturating_duration_since(due)),
        round_trip_ms: ms(done - sent),
        connect_ms,
        body_bytes,
        verdict,
        index,
    }
}

/// Schedule time covered by one window of an open-loop rung.
const WINDOW: Duration = Duration::from_millis(500);
/// Share of an open-loop rung's windows its percentiles come from: at
/// 200 rps for 15 s, ten windows of 100 requests, ten beyond p99.
const CALM_WINDOWS: f64 = 1.0 / 3.0;
/// Share of `bulk_export` servers and `cold_start` starts timings come
/// from.
const CALM_SEGMENTS: f64 = 0.5;

/// What one open-loop rung sent and saw.
pub struct Rung {
    /// In send order.
    pub samples: Vec<Sample>,
    /// Requests per window.
    window: usize,
    /// CPU time the host gave other tenants during each window.
    steal_s: Vec<f64>,
}

/// The calmest `share` of a run's segments (windows, servers or
/// starts), each given with the CPU time the host stole during it.
/// Other tenants take CPU in bursts that inflate timings far beyond the
/// program's own spread; which segments are kept depends only on the
/// host's counter, and a change to the program moves every segment.
fn calmest<T>(mut segments: Vec<(f64, T)>, share: f64) -> Vec<T> {
    segments.sort_by(|a, b| a.0.total_cmp(&b.0));
    let keep = (segments.len() as f64 * share).ceil() as usize;
    segments.into_iter().take(keep).map(|(_, t)| t).collect()
}

impl Rung {
    /// Latency percentile `q` over the calmest windows of the rung.
    pub fn calm_percentile(&self, q: f64) -> f64 {
        let windows = self
            .samples
            .chunks(self.window)
            .enumerate()
            .map(|(k, w)| (self.steal_s.get(k).copied().unwrap_or(f64::INFINITY), w))
            .collect();
        let calm: Vec<f64> = calmest(windows, CALM_WINDOWS)
            .into_iter()
            .flatten()
            .map(|s| s.latency_ms)
            .collect();
        percentile(&calm, q)
    }
}

/// Open loop: request `first + i` is due at `start + i / rate`; one
/// thread per core picks the next due request, sleeps until it is due
/// and sends it, so a slow answer delays later sends and their latency
/// counts that wait. The host's steal counter is read as each window
/// begins and once after the last request.
pub fn open_loop(
    addr: SocketAddr,
    p: &Prepared,
    first: usize,
    rate: f64,
    duration: Duration,
) -> Rung {
    let total = (rate * duration.as_secs_f64()).round() as usize;
    let window = ((rate * WINDOW.as_secs_f64()).round() as usize).max(1);
    let next = AtomicUsize::new(0);
    let overloaded = AtomicBool::new(false);
    let marks = Mutex::new(vec![f64::NAN; total.div_ceil(window) + 1]);
    let start = Instant::now() + Duration::from_millis(5);
    let mut samples = std::thread::scope(|scope| {
        let workers: Vec<_> = (0..client_threads())
            .map(|_| {
                scope.spawn(|| {
                    let mut samples = Vec::new();
                    loop {
                        let i = next.fetch_add(1, Ordering::Relaxed);
                        if i >= total || overloaded.load(Ordering::Relaxed) {
                            return samples;
                        }
                        let due = start + Duration::from_secs_f64(i as f64 / rate);
                        let now = Instant::now();
                        if due > now {
                            std::thread::sleep(due - now);
                        }
                        if i.is_multiple_of(window) {
                            marks.lock().expect("steal marks")[i / window] = host_steal_s();
                        }
                        let sample = send(addr, p.request(first + i), first + i, due, false);
                        if sample.late_ms > GIVE_UP_LATE_MS {
                            overloaded.store(true, Ordering::Relaxed);
                        }
                        samples.push(sample);
                    }
                })
            })
            .collect();
        workers
            .into_iter()
            .flat_map(|w| w.join().expect("load generator thread panicked"))
            .collect::<Vec<Sample>>()
    });
    samples.sort_by_key(|s| s.index);
    let mut marks = marks.into_inner().expect("steal marks");
    marks[samples.len().div_ceil(window)] = host_steal_s();
    Rung {
        steal_s: marks.windows(2).map(|m| m[1] - m[0]).collect(),
        samples,
        window,
    }
}

/// Closed loop with one connection at a time over `requests`.
pub fn closed_loop(addr: SocketAddr, p: &Prepared, requests: &[usize]) -> Vec<Sample> {
    requests
        .iter()
        .map(|&i| send(addr, &p.entries[i], i, Instant::now(), true))
        .collect()
}

/// Tally samples into the outcome's counts.
pub fn count(out: &mut Outcome, samples: &[Sample]) {
    for s in samples {
        out.record(s.verdict);
    }
}

fn ok_frac(out: &Outcome) -> f64 {
    1.0 - out.failed as f64 / out.attempted.max(1) as f64
}

/// Start the server `WARM_STARTS` times on the warm snapshot; keep the
/// last. Returns it with the median spawn-to-ready time in seconds.
fn warm_starts(cx: &Context, out: &mut Outcome) -> Result<(Server, f64), String> {
    let mut times = Vec::new();
    let mut last = None;
    for _ in 0..WARM_STARTS {
        drop(last.take());
        match Server::start(cx.bin, &cx.prepared.dir) {
            Ok((server, ready)) => {
                out.record(Verdict::Ok);
                times.push(ready.as_secs_f64());
                last = Some(server);
            }
            Err(e) => {
                eprintln!("perfbench: warm start failed: {e}");
                out.record(Verdict::Failed);
            }
        }
    }
    let server = last.ok_or("the server never became ready")?;
    Ok((server, median(&times)))
}

/// Latency percentiles of samples, failures counted as infinite.
fn latency_metrics(out: &mut Outcome, samples: &[Sample]) {
    let lat: Vec<f64> = samples.iter().map(|s| s.latency_ms).collect();
    out.metric("p50_ms", percentile(&lat, 0.5), "ms");
    out.metric("p90_ms", percentile(&lat, 0.9), "ms");
}

fn body_mb(samples: &[Sample]) -> f64 {
    samples.iter().map(|s| s.body_bytes as f64).sum::<f64>() / 1e6
}

/// Requests of the sequence sent closed-loop and untimed before the
/// ladder starts, so first-touch costs stay out of the measurement.
pub const EXEMPLAR_WARM_UP: usize = 200;

/// Send the first `EXEMPLAR_WARM_UP` requests of the sequence, untimed.
pub fn exemplar_warm_up(addr: SocketAddr, p: &Prepared) {
    for i in 0..EXEMPLAR_WARM_UP {
        let _ = client::get(addr, &p.request(i).target);
    }
}

/// `exemplar_mix`: the open-loop ladder over Q1-Q6.
pub fn exemplar_mix(cx: &Context) -> Result<Outcome, String> {
    let p = cx.prepared;
    let mut out = Outcome::default();
    let (server, setup_s) = warm_starts(cx, &mut out)?;
    exemplar_warm_up(server.addr, p);
    let mut next = EXEMPLAR_WARM_UP;
    let mut max_rps = 0.0;
    let mut rungs = Vec::new();
    for (&rate, share) in LADDER_RPS.iter().zip(RUNG_SHARE) {
        cx.check_time()?;
        let rung_time = Duration::from_secs_f64(cx.seconds as f64 * share);
        let rung = open_loop(server.addr, p, next, f64::from(rate), rung_time);
        let samples = &rung.samples;
        next += samples.len();
        count(&mut out, samples);
        let p99 = rung.calm_percentile(0.99);
        // A backlog that grows shows as sends running late at the end
        // of the rung: the last tenth must not be later than the limit.
        let tail = &samples[samples.len() - samples.len() / 10..];
        let tail_late = median(&tail.iter().map(|s| s.late_ms).collect::<Vec<_>>());
        let complete =
            samples.len() == (f64::from(rate) * rung_time.as_secs_f64()).round() as usize;
        let meets = complete && p99 <= LATENCY_LIMIT_MS && tail_late <= LATENCY_LIMIT_MS;
        eprintln!(
            "perfbench: {rate} rps: {} requests, p50 {:.2} ms, p99 {:.2} ms, tail lateness {:.2} ms{}",
            samples.len(),
            rung.calm_percentile(0.5),
            p99,
            tail_late,
            if meets { "" } else { " (misses the limit)" }
        );
        if meets {
            max_rps = f64::from(rate);
        }
        rungs.push((rung, rung_time.as_secs_f64()));
    }
    let rss = server.peak_rss_mb().unwrap_or(0.0);
    drop(server);

    out.metric("setup_s", setup_s, "s");
    let (reporting, reporting_secs) = &rungs[0];
    out.metric("p50_ms", reporting.calm_percentile(0.5), "ms");
    out.metric("p90_ms", reporting.calm_percentile(0.9), "ms");
    out.metric("max_rps", max_rps, "1/s");
    out.metric("mb_s", body_mb(&reporting.samples) / reporting_secs, "MB/s");
    out.metric("ok_frac", ok_frac(&out), "ratio");
    out.metric("server_rss_mb", rss, "MB");
    out.metric("snapshot_ratio", p.snapshot_ratio(), "ratio");
    Ok(out)
}

/// Cycle `cycle` of `bulk_export` as entry indices: every predicate in
/// the seeded order, alternating JSON and TSV, each flipped from the
/// previous cycle.
pub fn bulk_cycle(p: &Prepared, cycle: usize) -> Vec<usize> {
    p.sequence
        .iter()
        .enumerate()
        .map(|(k, predicate)| 2 * predicate + (cycle + k) % 2)
        .collect()
}

/// Cycles each `bulk_export` server serves: together one export of
/// every predicate in JSON and one in TSV, the whole graph twice.
pub const BULK_CYCLES_PER_SERVER: usize = 2;
/// Fewest servers per `bulk_export` run.
const MIN_BULK_SERVERS: usize = 3;

/// `bulk_export`: whole-predicate scans on one connection at a time.
/// The run is a series of freshly started warm servers, each serving the
/// same fixed export; a fixed amount of work per server keeps its peak
/// memory comparable from run to run, where a time-bounded single
/// server would stop at a random step of the allocator's growth.
pub fn bulk_export(cx: &Context) -> Result<Outcome, String> {
    let p = cx.prepared;
    let mut out = Outcome::default();
    // Untimed warm-up on each server: the smaller half of the answers.
    let mut by_size: Vec<usize> = (0..p.entries.len()).collect();
    by_size.sort_by_key(|&i| p.entries[i].body_len);
    let warm_up = &by_size[..by_size.len() / 2];

    let budget = Duration::from_secs(cx.seconds);
    let start = Instant::now();
    let (mut setups, mut peaks, mut segments) = (Vec::new(), Vec::new(), Vec::new());
    while start.elapsed() < budget || peaks.len() < MIN_BULK_SERVERS {
        cx.check_time()?;
        let (server, ready) = match Server::start(cx.bin, &p.dir) {
            Ok(started) => started,
            Err(e) => {
                eprintln!("perfbench: warm start failed: {e}");
                out.record(Verdict::Failed);
                continue;
            }
        };
        out.record(Verdict::Ok);
        setups.push(ready.as_secs_f64());
        closed_loop(server.addr, p, warm_up);
        let (timed, steal) = (Instant::now(), host_steal_s());
        let mut samples = Vec::new();
        for cycle in 0..BULK_CYCLES_PER_SERVER {
            samples.extend(closed_loop(server.addr, p, &bulk_cycle(p, cycle)));
        }
        let busy = timed.elapsed().as_secs_f64();
        count(&mut out, &samples);
        segments.push((host_steal_s() - steal, (samples, busy)));
        peaks.push(server.peak_rss_mb().unwrap_or(0.0));
    }
    let servers = segments.len();
    let calm = calmest(segments, CALM_SEGMENTS);
    let busy: f64 = calm.iter().map(|(_, busy)| busy).sum();
    let samples: Vec<Sample> = calm.into_iter().flat_map(|(samples, _)| samples).collect();
    eprintln!(
        "perfbench: {servers} servers; the calmer half answered {} requests, {:.1} MB in {busy:.2} s",
        samples.len(),
        body_mb(&samples)
    );

    out.metric("setup_s", median(&setups), "s");
    latency_metrics(&mut out, &samples);
    out.metric("max_rps", samples.len() as f64 / busy, "1/s");
    out.metric("mb_s", body_mb(&samples) / busy, "MB/s");
    out.metric("ok_frac", ok_frac(&out), "ratio");
    out.metric("server_rss_mb", median(&peaks), "MB");
    out.metric("snapshot_ratio", p.snapshot_ratio(), "ratio");
    Ok(out)
}

/// One cold start: no snapshot, spawn, wait for `/readyz` and `/lint`,
/// check `/stats` and a full count. Returns the server (still running),
/// the spawn-to-ready time and the verdict on its answers, or why it
/// failed.
pub fn cold_start_once(cx: &Context) -> Result<(Server, Duration, Verdict), String> {
    let p = cx.prepared;
    let snapshot = p.dir.join(provbench::corpus::snapshot::SNAPSHOT_FILE);
    match std::fs::remove_file(&snapshot) {
        Ok(()) => {}
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => {}
        Err(e) => return Err(format!("remove snapshot: {e}")),
    }
    let (server, ready) = Server::start(cx.bin, &p.dir)?;
    let verdict = p
        .entries
        .iter()
        .map(|entry| send(server.addr, entry, 0, Instant::now(), true).verdict)
        .max()
        .unwrap_or(Verdict::Ok);
    Ok((server, ready, verdict))
}

/// `cold_start`: repeated starts with no snapshot, each parsing,
/// ingesting, encoding and linting the corpus before readiness.
pub fn cold_start(cx: &Context) -> Result<Outcome, String> {
    let p = cx.prepared;
    let mut out = Outcome::default();
    let budget = Duration::from_secs(cx.seconds);
    let start = Instant::now();
    let (mut times, mut rss, mut ratio) = (Vec::new(), Vec::new(), Vec::new());
    while start.elapsed() < budget || times.len() < MIN_COLD_STARTS {
        cx.check_time()?;
        let steal = host_steal_s();
        match cold_start_once(cx) {
            Ok((server, ready, verdict)) => {
                out.record(verdict);
                rss.push(server.peak_rss_mb().unwrap_or(0.0));
                drop(server);
                let written =
                    std::fs::metadata(p.dir.join(provbench::corpus::snapshot::SNAPSHOT_FILE))
                        .map_or(0, |m| m.len());
                ratio.push(written as f64 / p.source_bytes as f64);
                times.push((host_steal_s() - steal, ready.as_secs_f64()));
            }
            Err(e) => {
                eprintln!("perfbench: cold start failed: {e}");
                out.record(Verdict::Failed);
            }
        }
    }
    let elapsed = start.elapsed().as_secs_f64();
    let starts = times.len();
    let secs = calmest(times, CALM_SEGMENTS);
    let millis: Vec<f64> = secs.iter().map(|s| s * 1e3).collect();
    let setup_s = median(&secs);
    eprintln!(
        "perfbench: {starts} cold starts; the calmer half: median {setup_s:.3} s (min {:.3}, max {:.3})",
        percentile(&secs, 0.0),
        percentile(&secs, 1.0)
    );

    out.metric("setup_s", setup_s, "s");
    out.metric("p50_ms", percentile(&millis, 0.5), "ms");
    out.metric("p90_ms", percentile(&millis, 0.9), "ms");
    out.metric("max_rps", starts as f64 / elapsed, "1/s");
    out.metric("mb_s", p.source_bytes as f64 / 1e6 / setup_s, "MB/s");
    out.metric("ok_frac", ok_frac(&out), "ratio");
    out.metric("server_rss_mb", median(&rss), "MB");
    out.metric("snapshot_ratio", median(&ratio), "ratio");
    Ok(out)
}
