//! The traced run: per-layer numbers for one workload.
//!
//! Spans are recorded here, around calls into the library's public
//! functions, never inside the program. Three phases:
//!
//! 1. set-up layers once per repetition (request id 0): Turtle/TriG
//!    parse, cold store open, snapshot decode and encode, warm open,
//!    and the lint `provbench serve` runs before readiness;
//! 2. the workload's traffic over HTTP against the real server, with
//!    the server's own counts read from `/metrics` afterwards;
//! 3. the same requests replayed in-process (request ids 1..): HTTP
//!    parse, `Endpoint::handle` whole, then its insides one layer at a
//!    time, `Response::to_bytes`, and a loopback socket write. Each
//!    request runs once traced and once untraced; the difference is
//!    the tracing overhead.
//!
//! Spans go to `.perfbench_out/spans-<workload>-<seed>.jsonl`.

use crate::client;
use crate::prep::{Entry, Prepared, Verdict};
use crate::server::{prom_value, Server};
use crate::stats::{fnv1a, mean, median, percentile, Outcome};
use crate::workloads::{self, Context, Sample};
use provbench::corpus::{snapshot, store, CorpusStore, StoreOptions};
use provbench::diag;
use provbench::endpoint::{parse_request, Endpoint, JsonRowsWriter, ServerConfig, TsvRowsWriter};
use provbench::obs::{Counter, Registry};
use provbench::query::{parse_query, EvalOptions, QueryEngine};
use provbench::rdf::Graph;
use std::collections::HashMap;
use std::io::{Read, Write};
use std::net::{TcpListener, TcpStream};
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Repetitions of the set-up layers (median reported).
const SETUP_REPEATS: usize = 3;
/// Fewest requests the in-process replay runs.
const MIN_REPLAY: usize = 64;
/// Longest the `exemplar_mix` HTTP phase runs.
const HTTP_PHASE_MAX: Duration = Duration::from_secs(8);

struct Span {
    name: &'static str,
    start: Duration,
    end: Duration,
    parent: Option<usize>,
    request: u64,
}

/// In-memory span recorder. When off it records nothing, so the same
/// code runs traced and untraced.
struct Recorder {
    on: bool,
    epoch: Instant,
    spans: Vec<Span>,
}

impl Recorder {
    fn new(on: bool) -> Recorder {
        Recorder {
            on,
            epoch: Instant::now(),
            spans: Vec::new(),
        }
    }

    fn open(&mut self, name: &'static str, parent: Option<usize>, request: u64) -> Option<usize> {
        if !self.on {
            return None;
        }
        let now = self.epoch.elapsed();
        self.spans.push(Span {
            name,
            start: now,
            end: now,
            parent,
            request,
        });
        Some(self.spans.len() - 1)
    }

    fn close(&mut self, id: Option<usize>) {
        if let Some(id) = id {
            self.spans[id].end = self.epoch.elapsed();
        }
    }

    fn span<T>(
        &mut self,
        name: &'static str,
        parent: Option<usize>,
        request: u64,
        f: impl FnOnce() -> T,
    ) -> T {
        let id = self.open(name, parent, request);
        let out = f();
        self.close(id);
        out
    }

    fn micros(&self, id: usize) -> f64 {
        let s = &self.spans[id];
        (s.end - s.start).as_secs_f64() * 1e6
    }

    /// Durations of every span called `name`, in microseconds.
    fn durations(&self, name: &str) -> Vec<f64> {
        (0..self.spans.len())
            .filter(|&i| self.spans[i].name == name)
            .map(|i| self.micros(i))
            .collect()
    }

    /// Self time of each span: its duration minus the part its
    /// children cover (children never overlap one another here).
    fn self_micros(&self) -> Vec<f64> {
        let mut own: Vec<f64> = (0..self.spans.len()).map(|i| self.micros(i)).collect();
        for (i, s) in self.spans.iter().enumerate() {
            if let Some(p) = s.parent {
                own[p] -= self.micros(i);
            }
        }
        own
    }

    /// The spans as JSON lines, then one summary line per span name
    /// with its count, total and self time.
    fn write_jsonl(&self, path: &Path) -> Result<(), String> {
        let own = self.self_micros();
        let mut out = String::new();
        let mut summary: Vec<(&str, usize, f64, f64)> = Vec::new();
        for (i, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_owned(), |p| p.to_string());
            out.push_str(&format!(
                "{{\"id\":{i},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{parent},\"request\":{},\"self_ns\":{}}}\n",
                s.name,
                s.start.as_nanos(),
                s.end.as_nanos(),
                s.request,
                (own[i] * 1e3).round() as i64,
            ));
            match summary.iter_mut().find(|(n, ..)| *n == s.name) {
                Some(row) => {
                    row.1 += 1;
                    row.2 += self.micros(i);
                    row.3 += own[i];
                }
                None => summary.push((s.name, 1, self.micros(i), own[i])),
            }
        }
        for (name, n, total, own) in summary {
            out.push_str(&format!(
                "{{\"summary\":\"{name}\",\"count\":{n},\"total_us\":{total:.1},\"self_us\":{own:.1}}}\n"
            ));
        }
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir).map_err(|e| format!("create {}: {e}", dir.display()))?;
        }
        std::fs::write(path, out).map_err(|e| format!("write {}: {e}", path.display()))
    }
}

/// Every RDF source file of a corpus directory with its contents.
fn source_files(dir: &Path) -> Result<Vec<(PathBuf, String)>, String> {
    let mut files = Vec::new();
    for system in ["taverna", "wings"] {
        let mut templates: Vec<PathBuf> = std::fs::read_dir(dir.join(system))
            .map_err(|e| format!("list {system}: {e}"))?
            .filter_map(|e| e.ok().map(|e| e.path()))
            .collect();
        templates.sort();
        for t in templates {
            let mut paths: Vec<PathBuf> = std::fs::read_dir(&t)
                .map_err(|e| format!("list {}: {e}", t.display()))?
                .filter_map(|e| e.ok().map(|e| e.path()))
                .filter(|p| p.extension().is_some_and(|x| x == "ttl" || x == "trig"))
                .collect();
            paths.sort();
            for p in paths {
                let text = std::fs::read_to_string(&p)
                    .map_err(|e| format!("read {}: {e}", p.display()))?;
                files.push((p, text));
            }
        }
    }
    Ok(files)
}

/// The lint `provbench serve` runs before it publishes the graph: every
/// file with the corpus rules, then the corpus-wide rules.
fn lint_like_serve(s: &CorpusStore, rec: &mut Recorder, parent: Option<usize>) -> usize {
    let registry = diag::Registry::with_corpus_rules();
    let mut reports = Vec::new();
    let mut summaries = Vec::new();
    rec.span("diag.lint_files", parent, 0, || {
        for d in &s.corpus.descriptions {
            let label = format!(
                "{}/{}/{}",
                d.system.name().to_ascii_lowercase(),
                d.template_name,
                store::description_file(d.system)
            );
            summaries.push((label.clone(), diag::AnalysisSummary::of_graph(&d.graph)));
            reports.push(diag::FileReport {
                diagnostics: diag::lint_graph(&label, &d.graph, &registry),
                path: label,
            });
        }
        for t in &s.corpus.traces {
            let label = format!(
                "{}/{}/{}.{}",
                t.system.name().to_ascii_lowercase(),
                t.template_name,
                t.run_id,
                store::trace_extension(t.system)
            );
            let graph = t.dataset.union_graph();
            summaries.push((label.clone(), diag::AnalysisSummary::of_graph(&graph)));
            reports.push(diag::FileReport {
                diagnostics: diag::lint_graph(&label, &graph, &registry),
                path: label,
            });
        }
    });
    rec.span("diag.corpus_rules", parent, 0, || {
        diag::apply_corpus_rules(&mut reports, &summaries)
    });
    reports.len()
}

/// Seconds of one span.
fn secs(rec: &Recorder, id: Option<usize>) -> f64 {
    id.map_or(0.0, |i| rec.micros(i) / 1e6)
}

/// Phase 1: the set-up layers, `SETUP_REPEATS` times.
fn setup_layers(p: &Prepared, rec: &mut Recorder, out: &mut Outcome) -> Result<(), String> {
    let files = source_files(&p.dir)?;
    let source_mb = files.iter().map(|(_, t)| t.len()).sum::<usize>() as f64 / 1e6;
    let snapshot_path = p.dir.join(snapshot::SNAPSHOT_FILE);
    let mut t: HashMap<&str, Vec<f64>> = HashMap::new();
    let mut quarantined = 0;
    let mut snapshot_bytes = 0;
    for _ in 0..SETUP_REPEATS {
        let parse = rec.open("rdf.parse", None, 0);
        for (path, text) in &files {
            let ok = if path.extension().is_some_and(|x| x == "trig") {
                provbench::rdf::parse_trig(text).is_ok()
            } else {
                provbench::rdf::parse_turtle(text).is_ok()
            };
            if !ok {
                return Err(format!("{} does not parse", path.display()));
            }
        }
        rec.close(parse);
        t.entry("parse").or_default().push(secs(rec, parse));

        let _ = std::fs::remove_file(&snapshot_path);
        let metrics = Arc::new(Registry::new());
        let opts = StoreOptions {
            metrics: Arc::clone(&metrics),
            ..StoreOptions::default()
        };
        let id = rec.open("core.cold_open", None, 0);
        let cold = CorpusStore::open_or_build_opts(&p.dir, &opts)
            .map_err(|e| format!("cold open: {e}"))?;
        rec.close(id);
        t.entry("cold").or_default().push(secs(rec, id));
        if cold.provenance.warm {
            return Err("cold open found a snapshot".into());
        }
        quarantined = cold.ingest.errors.len();
        let loaded = prom_value(
            &metrics.render_prometheus(),
            "provbench_ingest_files_total{result=\"loaded\"}",
        );
        if loaded as u64 != p.source_files {
            return Err(format!(
                "ingest counted {loaded} loaded files of {}",
                p.source_files
            ));
        }
        drop(cold);

        let bytes = std::fs::read(&snapshot_path).map_err(|e| format!("read snapshot: {e}"))?;
        snapshot_bytes = bytes.len();
        let id = rec.open("core.snapshot_decode", None, 0);
        let decoded = snapshot::decode(&bytes).map_err(|e| format!("decode: {e}"))?;
        rec.close(id);
        t.entry("decode").or_default().push(secs(rec, id));
        if decoded.union.len() != p.triples {
            return Err("decoded snapshot lost triples".into());
        }
        let id = rec.open("core.snapshot_encode", None, 0);
        let encoded = snapshot::encode(
            &decoded.corpus,
            decoded.source_files,
            decoded.source_bytes,
            &decoded.manifest,
        );
        rec.close(id);
        t.entry("encode").or_default().push(secs(rec, id));
        std::hint::black_box(encoded);
        drop(decoded);

        let id = rec.open("core.warm_open", None, 0);
        let warm = CorpusStore::open_or_build_opts(&p.dir, &opts)
            .map_err(|e| format!("warm open: {e}"))?;
        rec.close(id);
        t.entry("warm").or_default().push(secs(rec, id));
        if !warm.provenance.warm {
            return Err("warm open rebuilt the snapshot".into());
        }
        let id = rec.open("diag.lint", None, 0);
        let reports = lint_like_serve(&warm, rec, id);
        rec.close(id);
        t.entry("lint").or_default().push(secs(rec, id));
        if reports < p.source_files as usize {
            return Err(format!(
                "lint covered {reports} of {} files",
                p.source_files
            ));
        }
    }
    let m = |k: &str| median(&t[k]);
    out.metric("rdf.parse_s", m("parse"), "s");
    out.metric("rdf.parse_mb_s", source_mb / m("parse"), "MB/s");
    out.metric("core.cold_open_s", m("cold"), "s");
    out.metric("core.snapshot_encode_s", m("encode"), "s");
    out.metric("core.snapshot_decode_s", m("decode"), "s");
    out.metric("core.warm_open_s", m("warm"), "s");
    out.metric("core.snapshot_bytes", snapshot_bytes as f64, "bytes");
    out.metric("core.ingest_quarantined", quarantined as f64, "count");
    out.metric("diag.lint_s", m("lint"), "s");
    Ok(())
}

/// What the HTTP phase sent and saw.
struct HttpPhase {
    samples: Vec<Sample>,
    /// Entry index of each request, in send order.
    sent: Vec<usize>,
    metrics: String,
}

/// Phase 2: the workload's traffic against the real server.
fn http_phase(cx: &Context, workload: &str, out: &mut Outcome) -> Result<HttpPhase, String> {
    let p = cx.prepared;
    let (server, samples, sent) = match workload {
        "exemplar_mix" => {
            let (server, _) = Server::start(cx.bin, &p.dir)?;
            workloads::exemplar_warm_up(server.addr, p);
            let time =
                Duration::from_secs(cx.seconds / 2).clamp(Duration::from_secs(1), HTTP_PHASE_MAX);
            let samples = workloads::open_loop(
                server.addr,
                p,
                workloads::EXEMPLAR_WARM_UP,
                f64::from(workloads::REPORTING_RPS),
                time,
            )
            .samples;
            let sent = samples.iter().map(|s| p.request_index(s.index)).collect();
            (server, samples, sent)
        }
        "bulk_export" => {
            let (server, _) = Server::start(cx.bin, &p.dir)?;
            let sent: Vec<usize> = (0..workloads::BULK_CYCLES_PER_SERVER)
                .flat_map(|c| workloads::bulk_cycle(p, c))
                .collect();
            let samples = workloads::closed_loop(server.addr, p, &sent);
            (server, samples, sent)
        }
        _ => {
            let (server, _, verdict) = workloads::cold_start_once(cx)?;
            out.record(verdict);
            let sent: Vec<usize> = (0..p.entries.len()).collect();
            let samples = workloads::closed_loop(server.addr, p, &sent);
            (server, samples, sent)
        }
    };
    workloads::count(out, &samples);
    let metrics = server.get_text("/metrics")?;
    drop(server);
    Ok(HttpPhase {
        samples,
        sent,
        metrics,
    })
}

/// The evaluation options `provbench serve` gives each request.
fn served_options() -> EvalOptions {
    let mut opts = EvalOptions::default()
        .with_timeout(Duration::from_secs(10))
        .with_jobs(1);
    opts.row_budget = Some(50_000_000);
    opts
}

/// A loopback connection whose peer reads and discards everything.
struct Sink {
    stream: TcpStream,
    reader: std::thread::JoinHandle<()>,
}

impl Sink {
    fn open() -> Result<Sink, String> {
        let listener = TcpListener::bind("127.0.0.1:0").map_err(|e| format!("bind sink: {e}"))?;
        let addr = listener.local_addr().map_err(|e| e.to_string())?;
        let stream = TcpStream::connect(addr).map_err(|e| format!("connect sink: {e}"))?;
        let (mut peer, _) = listener.accept().map_err(|e| format!("accept sink: {e}"))?;
        let reader = std::thread::spawn(move || {
            let mut buf = vec![0u8; 256 * 1024];
            while matches!(peer.read(&mut buf), Ok(n) if n > 0) {}
        });
        Ok(Sink { stream, reader })
    }

    fn close(self) {
        drop(self.stream);
        let _ = self.reader.join();
    }
}

/// Per-request numbers of one replay.
#[derive(Default)]
struct Replay {
    /// Per SPARQL request: whether `handle` found the plan cached.
    hits: Vec<bool>,
    rows: Vec<f64>,
    body_bytes: Vec<f64>,
}

/// One in-process copy of the served pipeline, with its own endpoint
/// (and so its own plan cache) and its own loopback sink.
struct Replayer<'a> {
    endpoint: Endpoint,
    hits: Arc<Counter>,
    graph: &'a Graph,
    registry: &'a Registry,
    sink: Sink,
    stats: Replay,
}

impl<'a> Replayer<'a> {
    fn new(p: &'a Prepared, registry: &'a Arc<Registry>) -> Result<Replayer<'a>, String> {
        Ok(Replayer {
            endpoint: Endpoint::with_config(
                p.store.union.clone(),
                ServerConfig::new()
                    .eval_jobs(1)
                    .registry(Arc::clone(registry)),
            ),
            hits: registry.counter(
                "provbench_plan_cache_hits_total",
                "Plan-cache lookups served from cache",
            ),
            graph: &p.store.union,
            registry: registry.as_ref(),
            sink: Sink::open()?,
            stats: Replay::default(),
        })
    }

    /// One request through every layer: HTTP parse, `handle` whole, its
    /// insides one layer at a time, `to_bytes`, and the socket write.
    fn pass(&mut self, entry: &Entry, id: u64, rec: &mut Recorder) -> Result<Verdict, String> {
        let raw = client::request_bytes(&entry.target);
        let root = rec.open("request", None, id);
        let request = rec
            .span("endpoint.http_parse", root, id, || {
                parse_request(&mut raw.as_slice())
            })
            .map_err(|e| format!("parse request: {e}"))?;
        let before = self.hits.get();
        let response = rec.span("endpoint.handle", root, id, || {
            self.endpoint.handle(&request)
        });
        let mut verdict = entry.check(response.status, response.body.as_bytes(), true);
        if !entry.query.is_empty() {
            self.stats.hits.push(self.hits.get() > before);
            let pipeline = rec.open("endpoint.pipeline", root, id);
            let query = rec
                .span("query.parse", pipeline, id, || parse_query(&entry.query))
                .map_err(|e| format!("parse query: {e}"))?;
            let prepared = rec.span("query.prepare", pipeline, id, || {
                // Per request, as the server does: the deadline starts now.
                QueryEngine::with_options(self.graph, served_options())
                    .with_metrics(self.registry)
                    .prepare_parsed(Arc::new(query))
            });
            let rows = rec
                .span("query.plan", pipeline, id, || prepared.rows())
                .map_err(|e| format!("plan: {e}"))?;
            let variables = rows.variables().to_vec();
            let solutions = rec
                .span("query.operators", pipeline, id, || {
                    rows.collect::<Result<Vec<_>, _>>()
                })
                .map_err(|e| format!("evaluate: {e}"))?;
            let body = rec.span("endpoint.results", pipeline, id, || {
                if entry.tsv {
                    let mut w = TsvRowsWriter::new(&variables);
                    solutions.iter().for_each(|row| w.push(row));
                    w.finish()
                } else {
                    let mut w = JsonRowsWriter::new(&variables);
                    solutions.iter().for_each(|row| w.push(row));
                    w.finish()
                }
            });
            rec.close(pipeline);
            if fnv1a(body.as_bytes()) != entry.digest {
                verdict = Verdict::Wrong;
            }
            self.stats.rows.push(solutions.len() as f64);
        }
        self.stats.body_bytes.push(response.body.len() as f64);
        let bytes = rec.span("endpoint.to_bytes", root, id, || response.to_bytes());
        rec.span("net.write", root, id, || self.sink.stream.write_all(&bytes))
            .map_err(|e| format!("sink write: {e}"))?;
        rec.close(root);
        Ok(verdict)
    }
}

/// Phase 3: replay `sent` through a traced and an untraced replayer,
/// request by request, alternating which goes first so drift cancels.
/// Returns the traced replay's numbers and the tracing overhead per
/// request in microseconds.
fn replay(
    p: &Prepared,
    sent: &[usize],
    rec: &mut Recorder,
    out: &mut Outcome,
) -> Result<(Replay, f64), String> {
    let (on_registry, off_registry) = (Arc::new(Registry::new()), Arc::new(Registry::new()));
    let mut traced = Replayer::new(p, &on_registry)?;
    let mut plain = Replayer::new(p, &off_registry)?;
    let mut off = Recorder::new(false);
    let (mut on_time, mut off_time) = (Duration::ZERO, Duration::ZERO);
    for (n, &i) in sent.iter().enumerate() {
        let entry = &p.entries[i];
        let id = n as u64 + 1;
        for tracing in [n % 2 == 0, n % 2 != 0] {
            let start = Instant::now();
            let verdict = if tracing {
                traced.pass(entry, id, rec)?
            } else {
                plain.pass(entry, id, &mut off)?
            };
            *(if tracing { &mut on_time } else { &mut off_time }) += start.elapsed();
            out.record(verdict);
        }
    }
    traced.sink.close();
    plain.sink.close();
    let overhead_us =
        (on_time.as_secs_f64() - off_time.as_secs_f64()) * 1e6 / sent.len().max(1) as f64;
    Ok((traced.stats, overhead_us))
}

/// Phase-3 metrics from the traced replay's spans.
fn replay_metrics(rec: &Recorder, r: &Replay, out: &mut Outcome) -> f64 {
    let avg = |name: &str| mean(&rec.durations(name));
    // `handle` parses only on a plan-cache miss; its other children run
    // on every SPARQL request.
    let miss_share = r.hits.iter().filter(|h| !**h).count() as f64 / r.hits.len().max(1) as f64;
    let sparql_share = r.hits.len() as f64 / rec.durations("request").len().max(1) as f64;
    let children = sparql_share
        * (miss_share * avg("query.parse")
            + avg("query.prepare")
            + avg("query.plan")
            + avg("query.operators")
            + avg("endpoint.results"));
    let handle = rec.durations("endpoint.handle");
    out.metric("endpoint.http_parse_us", avg("endpoint.http_parse"), "us");
    out.metric("endpoint.handle_us", mean(&handle), "us");
    out.metric("endpoint.handle_self_us", mean(&handle) - children, "us");
    out.metric("query.parse_us", avg("query.parse"), "us");
    out.metric("query.prepare_us", avg("query.prepare"), "us");
    out.metric("query.plan_us", avg("query.plan"), "us");
    out.metric("query.operators_us", avg("query.operators"), "us");
    out.metric("query.rows_out", mean(&r.rows), "rows");
    out.metric("endpoint.results_us", avg("endpoint.results"), "us");
    out.metric("endpoint.body_bytes", mean(&r.body_bytes), "bytes");
    out.metric("endpoint.to_bytes_us", avg("endpoint.to_bytes"), "us");
    out.metric("net.write_ms", avg("net.write") / 1e3, "ms");
    percentile(&handle, 0.5) / 1e3
}

pub fn run(cx: &Context, workload: &str) -> Result<Outcome, String> {
    let p = cx.prepared;
    let mut out = Outcome::default();
    let mut rec = Recorder::new(true);
    setup_layers(p, &mut rec, &mut out)?;
    let http = http_phase(cx, workload, &mut out)?;

    // Short request lists are repeated so per-request means average
    // over at least `MIN_REPLAY` passes.
    let repeats = MIN_REPLAY.div_ceil(http.sent.len().max(1));
    let replayed: Vec<usize> = (0..repeats)
        .flat_map(|_| http.sent.iter().copied())
        .collect();
    let (traced, overhead_us) = replay(p, &replayed, &mut rec, &mut out)?;
    let handle_p50_ms = replay_metrics(&rec, &traced, &mut out);
    out.metric("trace.overhead_us", overhead_us, "us");

    // Client side of the HTTP phase, and the server's own view of it.
    let s = &http.samples;
    let connect: Vec<f64> = s.iter().map(|s| s.connect_ms).collect();
    // The server's mean below covers `/sparql` only; so does this one.
    let round_trip: Vec<f64> = s
        .iter()
        .zip(&http.sent)
        .filter(|(_, &i)| !p.entries[i].query.is_empty())
        .map(|(s, _)| s.round_trip_ms)
        .collect();
    let latency: Vec<f64> = s.iter().map(|s| s.latency_ms).collect();
    let late: Vec<f64> = s.iter().map(|s| s.late_ms).collect();
    let m = &http.metrics;
    let route = "{route=\"/sparql\"}";
    let server_mean_ms = 1e3 * prom_value(m, &format!("provbench_http_request_seconds_sum{route}"))
        / prom_value(m, &format!("provbench_http_request_seconds_count{route}")).max(1.0);
    let hits = prom_value(m, "provbench_plan_cache_hits_total");
    let lookups = hits + prom_value(m, "provbench_plan_cache_misses_total");
    let conn_errors: f64 = ["read_timeout", "read_error", "write_error", "socket_error"]
        .iter()
        .map(|r| prom_value(m, &format!("provbench_connections_total{{result=\"{r}\"}}")))
        .sum();
    out.metric("loadgen.connect_ms", percentile(&connect, 0.5), "ms");
    out.metric("loadgen.late_ms", percentile(&late, 0.99), "ms");
    out.metric("loadgen.round_trip_ms", mean(&round_trip), "ms");
    out.metric("endpoint.server_mean_ms", server_mean_ms, "ms");
    out.metric(
        "endpoint.outside_handler_ms",
        mean(&round_trip) - server_mean_ms,
        "ms",
    );
    let p50 = percentile(&latency, 0.5);
    // Not gated in `BENCHMARK.json`: across seeds it follows the host's
    // steal more than the program (see the README).
    out.metric("loadgen.p99_ms", percentile(&latency, 0.99), "ms");
    let outside = (p50 - handle_p50_ms) / p50;
    out.metric("endpoint.outside_handle_share", outside, "ratio");
    out.metric(
        "endpoint.plan_cache_hit_ratio",
        hits / lookups.max(1.0),
        "ratio",
    );
    out.metric("endpoint.plan_cache_lookups", lookups, "count");
    out.metric(
        "endpoint.rejected",
        prom_value(m, "provbench_connections_total{result=\"rejected\"}"),
        "count",
    );
    out.metric("endpoint.conn_errors", conn_errors, "count");
    out.metric(
        "query.rows_emitted_total",
        prom_value(m, "provbench_query_rows_emitted_total"),
        "count",
    );
    eprintln!(
        "perfbench: {workload} p50 {p50:.3} ms over HTTP vs {handle_p50_ms:.3} ms inside Endpoint::handle: \
         {:.1}% outside handle (more than 90%: {})",
        outside * 100.0,
        if outside > 0.9 { "yes" } else { "no" }
    );

    let path = PathBuf::from(".perfbench_out").join(format!("spans-{workload}-{}.jsonl", cx.seed));
    rec.write_jsonl(&path)?;
    eprintln!(
        "perfbench: {} spans written to {}",
        rec.spans.len(),
        path.display()
    );
    Ok(out)
}
