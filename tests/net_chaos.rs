//! Deterministic network fault-injection ("net chaos") suite for the
//! SPARQL endpoint's serving loop.
//!
//! Gated behind the `fault-inject` feature:
//!
//! ```text
//! cargo test --features fault-inject --test net_chaos
//! ```
//!
//! The harness measures how many connection operations (timeout
//! setters, reads, writes) one clean request/response exchange
//! performs, then replays the exchange once per (fault kind ×
//! operation index) pair, injecting exactly one fault at that point. A
//! seeded pseudo-random schedule tops the sweep up past 200 injected
//! fault points. After every faulted exchange, three invariants must
//! hold and nothing may panic:
//!
//! 1. every `serve_conn` call counts exactly one connection outcome in
//!    `provbench_connections_total` — the one it returns — and at most
//!    one HTTP request: a response or a counted error, never silence,
//!    never double-counting;
//! 2. an exchange with no injected fault is byte-identical to the
//!    fault-free baseline;
//! 3. an `"ok"` outcome always delivered a complete, well-formed
//!    response (intact header block, `Content-Length` matching the
//!    body), whatever faults fired along the way.

use provbench::endpoint::{BufConn, Endpoint, FaultConn, NetFaultKind, ServerConfig};
use provbench::obs::Registry;
use provbench::rdf::parse_turtle;
use std::collections::BTreeMap;
use std::sync::Arc;

const KINDS: [NetFaultKind; 4] = [
    NetFaultKind::ShortRead,
    NetFaultKind::ShortWrite,
    NetFaultKind::Reset,
    NetFaultKind::Stall,
];

/// The request shapes driven through every fault point: both SPARQL
/// protocol verbs, the probe and stats routes, the web form, and a
/// malformed request (whose baseline is a 400 — still a delivered
/// response).
fn request_shapes() -> Vec<(&'static str, Vec<u8>)> {
    let q1 = provbench::endpoint::url_encode("SELECT ?s WHERE { ?s ?p ?o } LIMIT 5");
    let q2 = "query=SELECT%20%3Fp%20WHERE%20%7B%20%3Fs%20%3Fp%20%3Fo%20%7D";
    vec![
        ("GET /", b"GET / HTTP/1.1\r\nHost: t\r\n\r\n".to_vec()),
        (
            "GET /readyz",
            b"GET /readyz HTTP/1.1\r\nHost: t\r\n\r\n".to_vec(),
        ),
        (
            "GET /stats",
            b"GET /stats HTTP/1.1\r\nHost: t\r\n\r\n".to_vec(),
        ),
        (
            "GET /sparql",
            format!("GET /sparql?format=tsv&query={q1} HTTP/1.1\r\nHost: t\r\n\r\n").into_bytes(),
        ),
        (
            "POST /sparql",
            format!(
                "POST /sparql HTTP/1.1\r\nHost: t\r\nContent-Length: {}\r\n\r\n{q2}",
                q2.len()
            )
            .into_bytes(),
        ),
        ("bad request", b"NONSENSE\r\n\r\n".to_vec()),
    ]
}

fn chaos_endpoint() -> Endpoint {
    let (g, _) = parse_turtle(
        r#"@prefix wfprov: <http://purl.org/wf4ever/wfprov#> .
           @prefix e: <http://e/> .
           e:r1 a wfprov:WorkflowRun . e:r2 a wfprov:WorkflowRun .
           e:p1 a wfprov:ProcessRun . e:p1 wfprov:wasPartOfWorkflowRun e:r1 ."#,
    )
    .unwrap();
    Endpoint::with_config(g, ServerConfig::new().registry(Arc::new(Registry::new())))
}

/// Snapshot of the metrics a faulted exchange may move: per-outcome
/// connection counts, the total request count, and the panic count.
fn snapshot(ep: &Endpoint) -> (BTreeMap<String, u64>, u64, u64) {
    let rendered = ep.registry().render_prometheus();
    let mut conns = BTreeMap::new();
    let mut requests = 0u64;
    let mut panics = 0u64;
    for line in rendered.lines() {
        let Some((name, value)) = line.rsplit_once(' ') else {
            continue;
        };
        let value: u64 = match value.parse() {
            Ok(v) => v,
            Err(_) => continue,
        };
        if let Some(label) = name
            .strip_prefix("provbench_connections_total{result=\"")
            .and_then(|r| r.strip_suffix("\"}"))
        {
            conns.insert(label.to_owned(), value);
        } else if name.starts_with("provbench_http_requests_total{") {
            requests += value;
        } else if name == "provbench_panics_total" {
            panics = value;
        }
    }
    (conns, requests, panics)
}

/// A delivered response must be structurally complete: header block
/// terminated, a parseable status line, and a `Content-Length` that
/// matches the bytes that follow.
fn assert_well_formed(output: &[u8], context: &str) {
    let text = String::from_utf8_lossy(output);
    assert!(text.starts_with("HTTP/1.1 "), "{context}: {text}");
    let Some(header_end) = text.find("\r\n\r\n") else {
        panic!("{context}: no header terminator in {text}");
    };
    let headers = &text[..header_end];
    let declared: usize = headers
        .lines()
        .find_map(|l| l.strip_prefix("Content-Length: "))
        .and_then(|v| v.parse().ok())
        .unwrap_or_else(|| panic!("{context}: no Content-Length in {headers}"));
    let body_len = output.len() - (header_end + 4);
    assert_eq!(declared, body_len, "{context}: torn response {text}");
}

/// Drive one (possibly faulted) exchange and check the counting
/// invariants; returns (outcome, injected fault count, response bytes).
fn drive(
    ep: &Endpoint,
    raw: &[u8],
    fault: impl FnOnce(BufConn) -> FaultConn<BufConn>,
    context: &str,
) -> (&'static str, usize, Vec<u8>) {
    let (conns_before, requests_before, panics_before) = snapshot(ep);
    let mut conn = fault(BufConn::request(raw.to_vec()));
    let outcome = ep.serve_conn(&mut conn);
    let (conns_after, requests_after, panics_after) = snapshot(ep);

    assert_eq!(panics_after, panics_before, "{context}: handler panicked");
    assert!(
        requests_after <= requests_before + 1,
        "{context}: {} requests recorded for one connection",
        requests_after - requests_before
    );
    // Exactly one connection outcome moved, and exactly the returned one.
    let mut moved = 0u64;
    for (label, after) in &conns_after {
        let before = conns_before.get(label).copied().unwrap_or(0);
        moved += after - before;
        if label == outcome {
            assert_eq!(
                after - before,
                1,
                "{context}: outcome {outcome} not counted"
            );
        }
    }
    assert_eq!(moved, 1, "{context}: {moved} outcomes counted, want 1");

    (outcome, conn.injected(), conn.inner().output().to_vec())
}

/// Clean op count for one request shape: how many fault points the
/// exhaustive sweep must cover.
fn clean_ops(ep: &Endpoint, raw: &[u8]) -> usize {
    let mut counter = FaultConn::fail_nth(
        BufConn::request(raw.to_vec()),
        NetFaultKind::Reset,
        usize::MAX,
    );
    ep.serve_conn(&mut counter);
    assert_eq!(counter.injected(), 0);
    counter.ops()
}

#[test]
fn every_fault_point_yields_a_response_or_a_counted_error() {
    let ep = chaos_endpoint();
    let mut injections = 0usize;
    let mut outcomes: BTreeMap<&'static str, usize> = BTreeMap::new();

    for (name, raw) in request_shapes() {
        // Fault-free baseline: bytes and op count for this shape. The
        // sentinel op index never fires, so the wrapper only counts.
        let (outcome, injected, baseline) = drive(
            &ep,
            &raw,
            |c| FaultConn::fail_nth(c, NetFaultKind::Reset, usize::MAX),
            &format!("{name} baseline"),
        );
        assert_eq!(injected, 0);
        assert_eq!(outcome, "ok", "{name}: clean exchange must deliver");
        assert_well_formed(&baseline, &format!("{name} baseline"));
        let ops = clean_ops(&ep, &raw);
        assert!(ops >= 4, "{name}: suspiciously few fault points ({ops})");

        // The exhaustive sweep: every kind at every operation index.
        for kind in KINDS {
            for op in 0..ops {
                let context = format!("{name} / {kind:?} @ op {op}");
                let (outcome, injected, output) =
                    drive(&ep, &raw, |c| FaultConn::fail_nth(c, kind, op), &context);
                injections += injected;
                *outcomes.entry(outcome).or_default() += 1;
                if injected == 0 {
                    // The fault point was past the end of the exchange:
                    // this run must be indistinguishable from clean.
                    assert_eq!(outcome, "ok", "{context}");
                    assert_eq!(output, baseline, "{context}: clean run diverged");
                } else if outcome == "ok" {
                    // Faults fired yet the server claims delivery: the
                    // response must be complete and well-formed. It need
                    // not equal the baseline — e.g. a stalled body read
                    // legitimately becomes a 408 instead of a 200.
                    assert_well_formed(&output, &context);
                }
            }
        }
    }

    // Top the sweep up past 200 injected faults with seeded schedules —
    // multi-fault exchanges the one-shot sweep can't produce.
    let shapes = request_shapes();
    let mut seed = 0u64;
    while injections < 200 {
        seed += 1;
        let (name, raw) = &shapes[seed as usize % shapes.len()];
        let context = format!("{name} / seed {seed}");
        let (outcome, injected, output) =
            drive(&ep, raw, |c| FaultConn::seeded(c, seed, 5), &context);
        injections += injected;
        *outcomes.entry(outcome).or_default() += 1;
        if injected == 0 {
            assert_eq!(outcome, "ok", "{context}");
        } else if outcome == "ok" {
            assert_well_formed(&output, &context);
        }
    }

    assert!(injections >= 200, "only {injections} faults injected");
    assert_eq!(ep.panics_total(), 0);
    // The sweep must actually exercise the error paths, not just luck
    // into deliveries.
    for expected in [
        "ok",
        "read_error",
        "read_timeout",
        "write_error",
        "socket_error",
    ] {
        assert!(
            outcomes.contains_key(expected),
            "sweep never produced outcome {expected:?}: {outcomes:?}"
        );
    }
    println!("net chaos: {injections} faults injected, outcomes {outcomes:?}");
}

/// The seeded schedule is deterministic: the same seed injects the
/// same faults at the same points, byte-for-byte.
#[test]
fn seeded_schedules_replay_identically() {
    let ep = chaos_endpoint();
    let raw = b"GET /stats HTTP/1.1\r\nHost: t\r\n\r\n".to_vec();
    for seed in 1..=20u64 {
        let mut a = FaultConn::seeded(BufConn::request(raw.clone()), seed, 3);
        let mut b = FaultConn::seeded(BufConn::request(raw.clone()), seed, 3);
        let oa = ep.serve_conn(&mut a);
        let ob = ep.serve_conn(&mut b);
        assert_eq!(oa, ob, "seed {seed}: outcomes diverged");
        assert_eq!(a.injected(), b.injected(), "seed {seed}");
        assert_eq!(a.inner().output(), b.inner().output(), "seed {seed}");
    }
}

/// A large response meets short writes: head and body go out in one
/// vectored write, and a write the connection breaks in the middle of
/// leaves the response either delivered whole or counted as a
/// `write_error`. The bytes that did go out are always a prefix of the
/// response.
#[test]
fn short_writes_deliver_a_large_response_whole_or_count_a_write_error() {
    let triples: String = (0..2000)
        .map(|i| format!("<http://e/s{i}> <http://e/p> \"value {i}\" .\n"))
        .collect();
    let (g, _) = parse_turtle(&triples).unwrap();
    let ep = Endpoint::with_config(g, ServerConfig::new().registry(Arc::new(Registry::new())));
    let q = provbench::endpoint::url_encode("SELECT ?s ?o WHERE { ?s ?p ?o }");
    let raw = format!("GET /sparql?query={q} HTTP/1.1\r\nHost: t\r\n\r\n").into_bytes();
    let (outcome, _, baseline) = drive(
        &ep,
        &raw,
        |c| FaultConn::fail_nth(c, NetFaultKind::ShortWrite, usize::MAX),
        "baseline",
    );
    assert_eq!(outcome, "ok");
    assert_well_formed(&baseline, "baseline");
    assert!(baseline.len() > 50_000, "{}", baseline.len());

    let check = |outcome: &str, output: &[u8], context: &str| match outcome {
        "ok" => assert_eq!(output, baseline, "{context}"),
        "write_error" => assert!(
            output.len() < baseline.len() && baseline.starts_with(output),
            "{context}: {} bytes out, not a prefix of the response",
            output.len()
        ),
        // A request that never arrived whole gets no result: at most
        // an attempted 408.
        _ => assert!(
            !output.starts_with(b"HTTP/1.1 200"),
            "{context}: {outcome} yet a result went out"
        ),
    };
    let mut torn = 0;
    for op in 0..clean_ops(&ep, &raw) {
        let context = format!("short write @ op {op}");
        let (outcome, _, output) = drive(
            &ep,
            &raw,
            |c| FaultConn::fail_nth(c, NetFaultKind::ShortWrite, op),
            &context,
        );
        check(outcome, &output, &context);
        torn += usize::from(outcome == "write_error" && !output.is_empty());
    }
    assert_eq!(torn, 1, "exactly one op writes the response");
    for seed in 1..=40u64 {
        let context = format!("seed {seed}");
        let (outcome, _, output) = drive(&ep, &raw, |c| FaultConn::seeded(c, seed, 3), &context);
        check(outcome, &output, &context);
    }
    assert_eq!(ep.panics_total(), 0);
}
