//! The streaming API must never change *what* a query answers.
//!
//! `PreparedQuery::select()` is a collect over `rows()`, and these
//! tests pin the contract from the outside: for every exemplar query
//! (Q1–Q6) and a batch of randomized basic graph patterns, draining the
//! streaming iterator yields a byte-identical solution sequence to the
//! materialized call. Randomized OPTIONAL/UNION queries are pinned to
//! recorded results, row-budget charges included. Errors must
//! round-trip too (a row-budget trip surfaces identically from both
//! APIs), and dropping a partially-consumed iterator must release its
//! deadline/row-budget accounting cleanly: per-evaluation state never
//! leaks into the next run of the same prepared plan.

use provbench::corpus::{Corpus, CorpusSpec};
use provbench::endpoint::{parse_request, url_encode, Endpoint, ServerConfig};
use provbench::obs::Registry;
use provbench::query::exemplar::{
    q1_sparql, q2_failed_sparql, q2_runs_sparql, q3_inputs_sparql, q3_outputs_sparql, q4_sparql,
    q5_sparql, q6_sparql,
};
use provbench::query::{EvalOptions, QueryEngine, QueryError};
use provbench::rdf::{Graph, Iri, Literal, Triple};
use provbench::workflow::System;
use std::sync::Arc;

fn corpus() -> Corpus {
    Corpus::generate(&CorpusSpec {
        max_workflows: Some(70),
        total_runs: 90,
        failed_runs: 8,
        ..CorpusSpec::default()
    })
}

/// Drain `rows()` and compare against `select()`: same variables, same
/// rows, same row order.
fn assert_stream_matches_select(graph: &Graph, query: &str) {
    let prepared = QueryEngine::new(graph)
        .prepare(query)
        .unwrap_or_else(|e| panic!("prepare failed on {query}: {e}"));
    let materialized = prepared
        .select()
        .unwrap_or_else(|e| panic!("select failed on {query}: {e}"));
    let rows = prepared
        .rows()
        .unwrap_or_else(|e| panic!("rows failed on {query}: {e}"));
    assert_eq!(
        rows.variables(),
        materialized.variables.as_slice(),
        "variables differ for {query}"
    );
    let streamed: Vec<_> = rows
        .collect::<Result<_, _>>()
        .unwrap_or_else(|e| panic!("stream failed on {query}: {e}"));
    assert_eq!(
        streamed, materialized.rows,
        "streamed rows differ for {query}"
    );
}

/// Q1–Q6 over `corpus`, with a template, a Taverna run and a Wings
/// account drawn from it.
fn exemplar_queries(corpus: &Corpus) -> Vec<String> {
    let template = corpus.templates[0].1.name.clone();
    let tav_run = Iri::new_unchecked(format!(
        "{}workflow-run",
        provbench::taverna::run_base_iri(&corpus.traces_of(System::Taverna).next().unwrap().run_id)
    ));
    let account =
        provbench::wings::account_iri(&corpus.traces_of(System::Wings).next().unwrap().run_id);
    vec![
        q1_sparql(),
        q2_runs_sparql(&template),
        q2_failed_sparql(&template),
        q3_inputs_sparql(&template),
        q3_outputs_sparql(&template),
        q4_sparql(&tav_run),
        q5_sparql(&tav_run),
        q6_sparql(&account),
    ]
}

#[test]
fn exemplar_queries_stream_identically() {
    let corpus = corpus();
    let graph = corpus.combined_graph();
    for query in exemplar_queries(&corpus) {
        assert_stream_matches_select(&graph, &query);
    }
}

/// A deterministic xorshift so the "random" BGPs are reproducible.
struct Rng(u64);

impl Rng {
    fn next(&mut self, bound: u64) -> u64 {
        self.0 ^= self.0 << 13;
        self.0 ^= self.0 >> 7;
        self.0 ^= self.0 << 17;
        self.0 % bound
    }
}

/// A closed-vocabulary random graph, like the proptest generator's, so
/// randomized patterns actually join.
fn random_graph(rng: &mut Rng, triples: usize) -> Graph {
    (0..triples)
        .map(|_| {
            let s = Iri::new_unchecked(format!("http://t/s{}", rng.next(8)));
            let p = Iri::new_unchecked(format!("http://t/p{}", rng.next(4)));
            if rng.next(2) == 0 {
                Triple::new(s, p, Literal::integer(rng.next(10) as i64))
            } else {
                Triple::new(
                    s,
                    p,
                    Iri::new_unchecked(format!("http://t/o{}", rng.next(10))),
                )
            }
        })
        .collect()
}

/// A random BGP of 2–4 triple patterns over a small shared variable and
/// constant pool, occasionally decorated with DISTINCT/ORDER BY/LIMIT.
/// Unlike the planner-equivalence suite, LIMIT without ORDER BY is fair
/// game here: streaming and materialized evaluation share one plan, so
/// even order-sensitive modifiers must agree byte for byte.
fn random_query(rng: &mut Rng) -> String {
    let vars = ["?a", "?b", "?c", "?d"];
    let n = 2 + rng.next(3) as usize;
    let mut body = String::new();
    for _ in 0..n {
        let s = vars[rng.next(3) as usize];
        let p = match rng.next(3) {
            0 => format!("<http://t/p{}>", rng.next(4)),
            _ => vars[3].to_owned(), // shared predicate variable
        };
        let o = match rng.next(4) {
            0 => format!("<http://t/o{}>", rng.next(10)),
            1 => format!("{}", rng.next(10)),
            _ => vars[rng.next(4) as usize].to_owned(),
        };
        body.push_str(&format!("  {s} {p} {o} .\n"));
    }
    let head = if rng.next(4) == 0 {
        "SELECT DISTINCT *"
    } else {
        "SELECT *"
    };
    let tail = match rng.next(4) {
        0 => " ORDER BY ?a".to_owned(),
        1 => format!(" LIMIT {}", 1 + rng.next(20)),
        _ => String::new(),
    };
    format!("{head} WHERE {{\n{body}}}{tail}")
}

#[test]
fn randomized_bgps_stream_identically() {
    let mut rng = Rng(0x5eed_cafe_f00d_0001);
    for _ in 0..60 {
        let size = 5 + rng.next(35) as usize;
        let graph = random_graph(&mut rng, size);
        for _ in 0..4 {
            let query = random_query(&mut rng);
            assert_stream_matches_select(&graph, &query);
        }
    }
}

#[test]
fn budget_errors_surface_identically_from_both_apis() {
    let mut rng = Rng(0x5eed_cafe_f00d_0002);
    let graph = random_graph(&mut rng, 30);
    let opts = EvalOptions::default().with_row_budget(3);
    let prepared = QueryEngine::with_options(&graph, opts)
        .prepare("SELECT ?a ?b WHERE { ?a ?p ?b . ?c ?q ?d }")
        .unwrap();
    let materialized = prepared.select();
    let streamed: Result<Vec<_>, _> = prepared.rows().unwrap().collect();
    match (materialized, streamed) {
        (Err(QueryError::Timeout(a)), Err(QueryError::Timeout(b))) => {
            assert_eq!(a, b, "budget errors differ between select() and rows()")
        }
        other => panic!("expected identical budget trips, got {other:?}"),
    }
}

#[test]
fn dropped_iterator_releases_budget_accounting() {
    let mut rng = Rng(0x5eed_cafe_f00d_0003);
    let graph = random_graph(&mut rng, 30);
    // A budget a full cross-join drain would trip many times over, but
    // the first row fits well inside.
    let opts = EvalOptions::default().with_row_budget(10);
    let prepared = QueryEngine::with_options(&graph, opts)
        .prepare("SELECT ?a ?b WHERE { ?a ?p ?b . ?c ?q ?d } LIMIT 2")
        .unwrap();
    // Partially consume and drop, repeatedly: if any deadline or
    // row-budget accounting leaked across evaluations, the later
    // iterations (or the final full drain) would trip the budget.
    for round in 0..20 {
        let mut rows = prepared.rows().unwrap();
        match rows.next() {
            Some(Ok(_)) => {}
            other => panic!("round {round}: expected a first row, got {other:?}"),
        }
        drop(rows);
    }
    let full = prepared
        .select()
        .expect("full drain after partial consumptions");
    assert_eq!(full.len(), 2);
}

/// A random graph whose nodes appear as subjects and as objects, so
/// OPTIONAL inner patterns and UNION arms chain through shared
/// variables.
fn random_linked_graph(rng: &mut Rng, triples: usize) -> Graph {
    (0..triples)
        .map(|_| {
            let s = Iri::new_unchecked(format!("http://t/n{}", rng.next(6)));
            let p = Iri::new_unchecked(format!("http://t/p{}", rng.next(3)));
            if rng.next(3) == 0 {
                Triple::new(s, p, Literal::integer(rng.next(6) as i64))
            } else {
                Triple::new(
                    s,
                    p,
                    Iri::new_unchecked(format!("http://t/n{}", rng.next(6))),
                )
            }
        })
        .collect()
}

const VARS: [&str; 4] = ["?a", "?b", "?c", "?d"];

fn random_triple(rng: &mut Rng) -> String {
    let s = match rng.next(8) {
        0 => format!("<http://t/n{}>", rng.next(6)),
        _ => VARS[rng.next(4) as usize].to_owned(),
    };
    let p = match rng.next(5) {
        0 => "?p".to_owned(),
        _ => format!("<http://t/p{}>", rng.next(3)),
    };
    let o = match rng.next(8) {
        0 => format!("<http://t/n{}>", rng.next(6)),
        1 => rng.next(6).to_string(),
        _ => VARS[rng.next(4) as usize].to_owned(),
    };
    format!("{s} {p} {o} .")
}

fn random_filter(rng: &mut Rng) -> String {
    let v = VARS[rng.next(4) as usize];
    match rng.next(4) {
        0 => format!("FILTER (BOUND({v}))"),
        1 => format!("FILTER (!BOUND({v}))"),
        2 => format!("FILTER ({v} != {})", VARS[rng.next(4) as usize]),
        _ => format!("FILTER ({v} < {})", rng.next(6)),
    }
}

/// A group body of 1–3 elements: triples, FILTERs, OPTIONALs, UNIONs
/// (of two or three arms, so left-nested) and nested groups, down to a
/// depth of two.
fn random_group(rng: &mut Rng, depth: u32) -> String {
    let n = 1 + rng.next(3);
    let mut parts = Vec::new();
    for _ in 0..n {
        let kind = if depth >= 2 { rng.next(2) } else { rng.next(7) };
        parts.push(match kind {
            0 | 1 => random_triple(rng),
            2 | 3 => {
                let inner = match rng.next(4) {
                    0 => random_triple(rng),
                    1 => format!("{} {}", random_triple(rng), random_triple(rng)),
                    2 => format!("{} {}", random_triple(rng), random_filter(rng)),
                    _ => random_group(rng, depth + 1),
                };
                format!("OPTIONAL {{ {inner} }}")
            }
            4 => {
                let arms: Vec<String> = (0..2 + rng.next(2))
                    .map(|_| format!("{{ {} }}", random_group(rng, depth + 1)))
                    .collect();
                arms.join(" UNION ")
            }
            5 => format!("{{ {} }}", random_group(rng, depth + 1)),
            _ => random_filter(rng),
        });
    }
    parts.join(" ")
}

fn random_optional_union_query(rng: &mut Rng) -> String {
    let head = match rng.next(4) {
        0 => "SELECT DISTINCT *",
        1 => "SELECT ?a ?b ?c",
        _ => "SELECT *",
    };
    let tail = if rng.next(4) == 0 { " ORDER BY ?a" } else { "" };
    format!("{head} WHERE {{ {} }}{tail}", random_group(rng, 0))
}

/// FNV-1a, so the pinned digests do not depend on std's hasher.
fn fnv1a(text: &str) -> u64 {
    text.bytes().fold(0xcbf2_9ce4_8422_2325, |h, b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

/// The largest row budget the pinned test evaluates under; a query that
/// needs more is pinned by its budget error instead.
const PIN_BUDGET_CAP: u64 = 4_000;

/// `select()`'s complete observable result for `query`: header, rows in
/// order, and the exact number of intermediate rows charged against the
/// row budget (the smallest budget that lets it finish) together with
/// the error text one row below it. Also checks `rows()` against
/// `select()`.
fn observed(graph: &Graph, query: &str) -> String {
    let prepared = QueryEngine::new(graph)
        .prepare(query)
        .unwrap_or_else(|e| panic!("prepare failed on {query}: {e}"));
    let under = |budget: u64| prepared.select_with(&EvalOptions::default().with_row_budget(budget));
    let solutions = match under(PIN_BUDGET_CAP) {
        Ok(s) => s,
        Err(e) => return format!("{e}\n"),
    };
    let streamed: Vec<_> = prepared
        .rows()
        .unwrap()
        .collect::<Result<_, _>>()
        .unwrap_or_else(|e| panic!("stream failed on {query}: {e}"));
    assert_eq!(streamed, solutions.rows, "streamed rows differ for {query}");
    let mut out = format!("{:?}\n", solutions.variables);
    for row in &solutions.rows {
        for (var, term) in row {
            out.push_str(&format!("{var}={term} "));
        }
        out.push('\n');
    }
    let (mut lo, mut hi) = (0, PIN_BUDGET_CAP);
    while lo < hi {
        let mid = (lo + hi) / 2;
        if under(mid).is_ok() {
            hi = mid;
        } else {
            lo = mid + 1;
        }
    }
    out.push_str(&format!("charges={lo}\n"));
    if lo > 0 {
        out.push_str(&format!("{}\n", under(lo - 1).unwrap_err()));
    }
    out
}

/// `select()` digests of the randomized OPTIONAL/UNION queries below,
/// recorded with the recursive materializing evaluator that OPTIONAL
/// and UNION used to run on. Operator changes must reproduce them
/// exactly: same header, same rows in the same order, same row-budget
/// charges and error text.
#[rustfmt::skip]
const OPTIONAL_UNION_DIGESTS: [u64; 120] = [
    0x3ce466989d5f83a8, 0xba0999274d562b14, 0x05046b899bfb14a5, 0xb30a3091f3cdf642,
    0x52f329f36de32302, 0xbeab7829c5f2f5ff, 0x71d3b09273415ff6, 0xa2fcf52f2080c378,
    0x25fde3b4bea7fed2, 0xb039b1f297a827d8, 0xf8964c00264aee65, 0x58df387a0b983ea6,
    0x4e5bb9507ba08d1e, 0x3c562922d8c0a41e, 0x064ebf0415439af2, 0x08bbefb37d58805a,
    0x6051b78181c273e8, 0x9b513968ccd1f913, 0xf956a962a80647ee, 0x193244f681c216ff,
    0x23f332523f70ff88, 0x74675e0692ba03a1, 0x3779dec58afada46, 0x25fde3b4bea7fed2,
    0x6f2ad6f1cc4e0a2d, 0x25fde3b4bea7fed2, 0xab50650f69efde97, 0x6e5d1218e2dd7592,
    0x9319428fc4303df7, 0x6b0f8cce87b71b4c, 0x8beb0d8b2339d1fa, 0x9b513968ccd1f913,
    0x193244f681c216ff, 0x0721d8b690004fe9, 0xd106d65cdb135432, 0x520015787f7c0570,
    0x2c742a9679390804, 0x5b713448bceb7b43, 0xb31a9cc6c57e8aef, 0x1a08778cc1cb07fb,
    0x0a30f99cf2b086ad, 0x25fde3b4bea7fed2, 0x12b7179a9c71a583, 0xe298f877705d4361,
    0x9b513968ccd1f913, 0xa63a57d6838e3934, 0x59a3dffbe51f32c8, 0x808e287115088c47,
    0x4f07e84f3898cdd5, 0x25fde3b4bea7fed2, 0x548302f947cfe181, 0x8439ff6cb8a98f81,
    0xfb14fff4a52b88fa, 0xdc90b30714a201a0, 0xf289ea053b622d39, 0xa9b9f4b5630b1ede,
    0x55ef4413bbacf9cb, 0xfbdbd57ab525ae42, 0x3c5a529954df7b6e, 0x9b513968ccd1f913,
    0x7ec2c17e409d0979, 0xa196621d7c8bd320, 0x2bbe83072bd78ddb, 0xb6271c09c1dae633,
    0x693220608bfe0017, 0xeca201398225f68a, 0x99f516e9a9acf07b, 0x195a73727fa96c62,
    0x966fa9310f0c349a, 0x67e51adc4d480f8a, 0x2ba719483b3f1338, 0x6780ed3480175baf,
    0x23638275911ea298, 0x14ab68890456947b, 0x4a4600ceb3913d07, 0x9b513968ccd1f913,
    0x9b513968ccd1f913, 0x1a4246bbbe0e4a2e, 0x4c61efc25921951a, 0x9428361299399f4f,
    0x089f3e7feab4e5a2, 0x193244f681c216ff, 0xf32399203ac67899, 0x4aaf942737bd1d48,
    0x35bcf1d91062b2ed, 0x2427735b8e58f7ea, 0x8beb0d8b2339d1fa, 0xf318e56429856a0c,
    0x2b2b3267307c5a64, 0x6b29aa387452828a, 0x193244f681c216ff, 0xb3ea112bfc77b8b4,
    0xa67f7a5356c6e696, 0xa2269df9c795fcc4, 0x8e5a5edc33eab6aa, 0x9b513968ccd1f913,
    0x3dca005180d974e5, 0x883d20eac11f8147, 0xb080a9b7e7cee260, 0x7abecea09f8dcf30,
    0xd6676e5a6e91dfb0, 0x9b513968ccd1f913, 0x3f87ea72ad1f9581, 0xa2a9cd13152ef440,
    0xefc0a6225dbe86e1, 0x6fa1dbb6fdc487a8, 0xf91e684d386d9dc7, 0x513325ce634ffbdc,
    0x193244f681c216ff, 0x9b513968ccd1f913, 0x41503439f581cc33, 0x9b513968ccd1f913,
    0x9b513968ccd1f913, 0x6865038f6ddb8437, 0x8b68221c92285958, 0x11cc9c327f21a237,
    0x9b513968ccd1f913, 0x193244f681c216ff, 0x9b513968ccd1f913, 0x66c26d43d73f16ac,
];

#[test]
fn randomized_optional_union_queries_match_pinned_results() {
    let mut rng = Rng(0x5eed_cafe_f00d_0004);
    let mut digests = Vec::new();
    let mut texts = Vec::new();
    for _ in 0..30 {
        let size = 16 + rng.next(25) as usize;
        let graph = random_linked_graph(&mut rng, size);
        for _ in 0..4 {
            let query = random_optional_union_query(&mut rng);
            digests.push(fnv1a(&observed(&graph, &query)));
            texts.push(query);
        }
    }
    let rendered: Vec<String> = digests.iter().map(|d| format!("{d:#018x}")).collect();
    for (i, (&got, query)) in digests.iter().zip(&texts).enumerate() {
        assert_eq!(
            Some(&got),
            OPTIONAL_UNION_DIGESTS.get(i),
            "query {i} diverged from its pinned result: {query}\nall digests: [{}]",
            rendered.join(", ")
        );
    }
}

/// A random solution-modifier query over [`random_linked_graph`]'s
/// vocabulary: DISTINCT (also over aggregate output), ORDER BY on
/// projected variables (ASC/DESC, several keys, keys left unbound by
/// OPTIONAL), OFFSET/LIMIT, GROUP BY with COUNT, COUNT(DISTINCT), MIN
/// and MAX, `SELECT *` and ASK.
fn random_modifier_query(rng: &mut Rng) -> String {
    let mut body = random_triple(rng);
    for _ in 0..rng.next(3) {
        body.push_str(&format!(" OPTIONAL {{ {} }}", random_triple(rng)));
    }
    // Mostly variables the pattern binds; now and then one it never
    // mentions, which stays unbound in every row.
    let mut used: Vec<&str> = VARS.into_iter().filter(|v| body.contains(v)).collect();
    if used.is_empty() || rng.next(6) == 0 {
        used.push(VARS[rng.next(4) as usize]);
    }
    let pick = |rng: &mut Rng| used[rng.next(used.len() as u64) as usize];
    let order = |rng: &mut Rng, keys: &[&str]| {
        let n = rng.next(keys.len().min(3) as u64 + 1) as usize;
        if n == 0 {
            return String::new();
        }
        let mut out = String::from(" ORDER BY");
        for _ in 0..n {
            let k = keys[rng.next(keys.len() as u64) as usize];
            match rng.next(3) {
                0 => out.push_str(&format!(" DESC({k})")),
                1 => out.push_str(&format!(" ASC({k})")),
                _ => out.push_str(&format!(" {k}")),
            }
        }
        out
    };
    let slice = |rng: &mut Rng| match rng.next(4) {
        0 => format!(" LIMIT {}", rng.next(6)),
        1 => format!(" OFFSET {}", 1 + rng.next(4)),
        2 => format!(" LIMIT {} OFFSET {}", 1 + rng.next(5), rng.next(4)),
        _ => String::new(),
    };
    let distinct = |rng: &mut Rng| if rng.next(2) == 0 { "DISTINCT " } else { "" };
    let aggregate = |rng: &mut Rng| {
        let arg = pick(rng);
        match rng.next(5) {
            0 => "COUNT(*)".to_owned(),
            1 => format!("COUNT({arg})"),
            2 => format!("COUNT(DISTINCT {arg})"),
            3 => format!("MIN({arg})"),
            _ => format!("MAX({arg})"),
        }
    };
    match rng.next(7) {
        0..=2 => {
            let n = 1 + rng.next(3) as usize;
            let projected: Vec<&str> = (0..n).map(|_| pick(rng)).collect();
            format!(
                "SELECT {}{} WHERE {{ {body} }}{}{}",
                distinct(rng),
                projected.join(" "),
                order(rng, &projected),
                slice(rng)
            )
        }
        3 => {
            let group = pick(rng);
            format!(
                "SELECT {}{group} ({} AS ?n) WHERE {{ {body} }} GROUP BY {group}{}{}",
                distinct(rng),
                aggregate(rng),
                order(rng, &[group, "?n"]),
                slice(rng)
            )
        }
        4 => {
            // DISTINCT over aggregate output: equal counts collapse.
            let group = pick(rng);
            format!(
                "SELECT DISTINCT ({} AS ?n) WHERE {{ {body} }} GROUP BY {group}{}",
                aggregate(rng),
                order(rng, &["?n"])
            )
        }
        5 => format!(
            "SELECT {}* WHERE {{ {body} }}{}{}",
            distinct(rng),
            order(rng, &used),
            slice(rng)
        ),
        _ => format!("ASK {{ {body} }}"),
    }
}

/// The body `Endpoint::handle` serves for `query` in JSON or TSV, with
/// its status line.
fn served(endpoint: &Endpoint, query: &str, tsv: bool) -> String {
    let format = if tsv { "&format=tsv" } else { "" };
    let raw = format!(
        "GET /sparql?query={}{format} HTTP/1.1\r\nHost: t\r\n\r\n",
        url_encode(query)
    );
    let request = parse_request(&mut raw.as_bytes()).expect("well-formed request");
    let response = endpoint.handle(&request);
    format!("{}\n{}", response.status, response.body)
}

/// `select()`'s rows for `query`, rendered in order.
fn selected(graph: &Graph, query: &str) -> String {
    let solutions = QueryEngine::new(graph)
        .prepare(query)
        .and_then(|p| p.select())
        .unwrap_or_else(|e| panic!("select failed on {query}: {e}"));
    let mut out = format!("{:?}\n", solutions.variables);
    for row in &solutions.rows {
        for (var, term) in row {
            out.push_str(&format!("{var}={term} "));
        }
        out.push('\n');
    }
    out
}

/// Digests of (select() rows, JSON body, TSV body) for every query
/// below: the solution-modifier queries over random graphs, then
/// Q1–Q6 over a generated corpus. Recorded before solution operators
/// moved to positional id rows; any change to what the endpoint serves
/// or `select()` returns for these shows up here.
#[rustfmt::skip]
const SERVED_DIGESTS: [[u64; 3]; 128] = [
    [0x17b45ef3e392f5c5, 0x3dc99c35651b3d8f, 0x3d4b3891e18f4009],
    [0x9ca698a304b4af67, 0x5ec8b83dfc213a13, 0x5fa6415e426da4b1],
    [0xbae3ae05c86c545a, 0xd591c946cc3b943e, 0xeb486aa0776b2b81],
    [0xa44826ce7360ae5a, 0x48b12c9250ea282e, 0x8945a10fe98dd706],
    [0x18a4f703f35d47b5, 0xa0f50979c4a2450b, 0x47aca20438ebb659],
    [0xdcd1cd1a2138b85d, 0xcb9fb50a599439c9, 0xbd59fa0bfc9e89ad],
    [0x9ca698a304b4af67, 0x5ec8b83dfc213a13, 0x5fa6415e426da4b1],
    [0x7137da6673613bd5, 0x949874b4f184fdcd, 0x5e6d895e4163e6c5],
    [0xb2f43534afd94b8a, 0xc049ab0bfe9faf36, 0xb6128eb1728a6d05],
    [0x7137da6673613bd5, 0x949874b4f184fdcd, 0x5e6d895e4163e6c5],
    [0x5a93fbc40ca95ca1, 0xe2083b4c5e7fa1f1, 0x5d1feff44973d4d4],
    [0xdb2437fc12647043, 0xa75dc37d327d20e7, 0x2823b6ccae142ee6],
    [0xfd4078c0dd286939, 0x842925ddf8997f05, 0xf9f06f6b9bc7e00c],
    [0xa2d2570deadfb1b3, 0x604ae45896413aa3, 0x82c82487b7eb6f0e],
    [0xe11468ccc8fb4542, 0x0b1116e2e521e250, 0x5f953f5e425f2e18],
    [0x8af28566e70563ae, 0xf371eaf127626a56, 0x6bc2476513f19cb0],
    [0x7137da6673613bd5, 0x949874b4f184fdcd, 0x5e6d895e4163e6c5],
    [0xde159a9e422a17de, 0xbbc14733a3bb00e2, 0x802dc88781459060],
    [0x9ca698a304b4af67, 0x5ec8b83dfc213a13, 0x5fa6415e426da4b1],
    [0xdcd1cd1a2138b85d, 0xcb9fb50a599439c9, 0xbd59fa0bfc9e89ad],
    [0x273cceab6fad6d70, 0x16750de0cfe0993c, 0xf8aa0dcff05b5b43],
    [0x3e41db21c7bc89ba, 0x2f173f912d098f2e, 0xec7e30e0310516d0],
    [0xab23461d217e6393, 0x59965d4bc08d51d6, 0x9b3a82b6b1bbf4e4],
    [0x65d33a08ab60812e, 0x6e13f253cad72ad2, 0xb0c119965a04bbb7],
    [0x178f6eb6a941411d, 0x7b1e8c7dc57af124, 0x1e9f92bca5682172],
    [0x7137da6673613bd5, 0x949874b4f184fdcd, 0x5e6d895e4163e6c5],
    [0xe43b36f4fac387c6, 0x74fab8f0ef259120, 0x82f44e87b810f157],
    [0x4530c885ce961ee2, 0x5790eea99bb61fc6, 0xe39ce481187886f6],
    [0x963de6dac6318442, 0xd4809063efd13021, 0xe58c2b909d99fc68],
    [0xf0c7aed793c21c7a, 0x3b1c37862bb1c350, 0x90f2a6acd8bf11e4],
    [0x0196e75a18a8d35d, 0x245747bbc7c79b92, 0xdfd05128c4b89f60],
    [0x80df80d51f089595, 0x03d7e8d1a44c6431, 0x5f84415e4250be4b],
    [0x9ca698a304b4af67, 0x5ec8b83dfc213a13, 0x5fa6415e426da4b1],
    [0xa1455f3fb76e6c6e, 0xe5ae92130354301c, 0xe9886072d9bac543],
    [0x9a1bb61eb3904546, 0x140a53c06ac66111, 0x5084eb5c15a934a2],
    [0x1e2908c45ee601b3, 0xc031fe43334d3d0f, 0x5f98a95e4262180d],
    [0x4b7189db1e83f3e3, 0x607d103819755cbc, 0x5eae75dd00875f5c],
    [0xe3c61ba6fe913cb6, 0xa87817d0f733b8d1, 0x095d9802934f1d55],
    [0xa8d7f0bd42ef9098, 0x45e94f9e8ca36576, 0x5f8e675e42595362],
    [0x52bb4e5fe21e31bc, 0xc41cdb69de79367f, 0x46f2dac7c623cc02],
    [0xdcd1cd1a2138b85d, 0xcb9fb50a599439c9, 0xbd59fa0bfc9e89ad],
    [0x7137da6673613bd5, 0x949874b4f184fdcd, 0x5e6d895e4163e6c5],
    [0x357826aeeb5c1576, 0xaf5395236e94857c, 0x7a2e531a458e5f24],
    [0xbdc07378070329d3, 0x4e17fa44c402b711, 0x7b9d2eaf516cb96e],
    [0x19cb5ef209f866be, 0xfa76964bc888c50c, 0x37cc1a94dce25f22],
    [0xe11468ccc8fb4542, 0x0b1116e2e521e250, 0x5f953f5e425f2e18],
    [0x456fe9e23c0550ab, 0x4dd1396d7775c14b, 0x2cc32427b5366ea4],
    [0xb0791ebbdac28091, 0xd1daad65d65ba2c1, 0x82ea0c87b8082cac],
    [0x059d2ca5e09f7832, 0xe7124f4a62d49f66, 0x063fbbff9dae9a65],
    [0x7137da6673613bd5, 0x949874b4f184fdcd, 0x5e6d895e4163e6c5],
    [0x1e2908c45ee601b3, 0xc031fe43334d3d0f, 0x5f98a95e4262180d],
    [0xa2d2570deadfb1b3, 0x604ae45896413aa3, 0x82c82487b7eb6f0e],
    [0x971f8bc06fe5e701, 0xeb47b368e7372485, 0xb81c53e9901655e3],
    [0x37bd82cc9453e298, 0xf1d2c56567f8e529, 0xa84e6064e288edff],
    [0xe60a48b1e29095cd, 0x529fc827612f4117, 0x32c6a1b4a7611e5c],
    [0xd8405d23bd0b3107, 0x84e61cb6bb85ed83, 0x2048d7937dc6dfbd],
    [0xf131caed62348253, 0xb62612a736f9d0ff, 0x07597e6eaa7c6e06],
    [0xbb9fa6d1ab11e719, 0xaa297ec0459d6084, 0x7c309217e1073dd5],
    [0x569a028f9b7f080a, 0x905877aae5d34a34, 0x18c26850b625378c],
    [0x7137da6673613bd5, 0x949874b4f184fdcd, 0x5e6d895e4163e6c5],
    [0x3886bad64f8c2c2d, 0x403c10186ccdd843, 0x13e23005847bb974],
    [0x7137da6673613bd5, 0x949874b4f184fdcd, 0x5e6d895e4163e6c5],
    [0xdcd1cd1a2138b85d, 0xcb9fb50a599439c9, 0xbd59fa0bfc9e89ad],
    [0x7137da6673613bd5, 0x949874b4f184fdcd, 0x5e6d895e4163e6c5],
    [0xd55529ca527c7713, 0x3364b0c348518791, 0x82df8b7fb589d40b],
    [0x8badcaa2871fa558, 0x8d8dc65ee824f4c6, 0xb4071b4498e2bde9],
    [0x7137da6673613bd5, 0x949874b4f184fdcd, 0x5e6d895e4163e6c5],
    [0xdcd1cd1a2138b85d, 0xcb9fb50a599439c9, 0xbd59fa0bfc9e89ad],
    [0x0f3927f200cfccf6, 0x5db75cb281cdb621, 0xcc0b52972f8fb25d],
    [0x7137da6673613bd5, 0x949874b4f184fdcd, 0x5e6d895e4163e6c5],
    [0x09053ca24d9c1175, 0x72548e84f1dd4047, 0x60d9a90bec9f63c4],
    [0xf562e0d67bcb2730, 0xdc207235ef668347, 0x0d2ee9a699e0114f],
    [0x7137da6673613bd5, 0x949874b4f184fdcd, 0x5e6d895e4163e6c5],
    [0x7137da6673613bd5, 0x949874b4f184fdcd, 0x5e6d895e4163e6c5],
    [0x5a292bd873443adf, 0x461777aa94b5e6b3, 0xf0d55fcb5812d4fe],
    [0x46f6cd645f499f7b, 0xa1511060e03ca373, 0x82b19161fcda6d60],
    [0x3939f060e38c2c3b, 0x4cb22c222f13b7c7, 0x9bb170a86b39f4a3],
    [0x7137da6673613bd5, 0x949874b4f184fdcd, 0x5e6d895e4163e6c5],
    [0x2791df94f77a82f4, 0xcb452426fe8265b2, 0x42e1f2b9bd5ef02d],
    [0x0e20ae85e3759e22, 0x0a0a03715f5dbdc6, 0x837d8c9639c196fa],
    [0x7137da6673613bd5, 0x949874b4f184fdcd, 0x5e6d895e4163e6c5],
    [0xbe431b75a5cccb51, 0x003d742dbeb57a63, 0x14764ea7d0f2bab8],
    [0x1ce2330f1f6e4772, 0x28827e0563103c52, 0xad47601f1e22a85e],
    [0x15157465f661944f, 0x2425330bf0245273, 0x921f0a809b08562e],
    [0x98f7fa078ffd74eb, 0xd7945f90a4cfd4b0, 0xa880486938a7b812],
    [0x99c42657d2288f96, 0xceefad710600126e, 0xe081add45e29590b],
    [0x7137da6673613bd5, 0x949874b4f184fdcd, 0x5e6d895e4163e6c5],
    [0x1a0cf27b45683b76, 0x29d052e27325ed17, 0xcb76e92f95eeeb75],
    [0x20b68d17512318be, 0xa671ccf411ad570d, 0xd0a0b1cf92a345f6],
    [0xd35ba9292d80216c, 0xc76093492222b89e, 0xf2dd31d3fe9057f8],
    [0x4ea675dda1cba995, 0x066fab3b90ff6151, 0x7afa70fc2093bffb],
    [0x86710a66655df610, 0x3123a77bdce2a5e4, 0xdf83e6f34ba5d46e],
    [0xa8d7f0bd42ef9098, 0x45e94f9e8ca36576, 0x5f8e675e42595362],
    [0xc1a79390f89cc472, 0x279ec006af14721f, 0x20cdfa5138b81668],
    [0x85956a9d4f56e073, 0x91ed94c338af35eb, 0x17ba51a5eaca90bf],
    [0x7137da6673613bd5, 0x949874b4f184fdcd, 0x5e6d895e4163e6c5],
    [0x9ca698a304b4af67, 0x5ec8b83dfc213a13, 0x5fa6415e426da4b1],
    [0xdcd1cd1a2138b85d, 0xcb9fb50a599439c9, 0xbd59fa0bfc9e89ad],
    [0xa96e500812c92d8a, 0x212723246c5bd547, 0x4e4c725a39fd1cb6],
    [0x94b8d319403c63c3, 0x57961e5636977ed1, 0xf23f73df1fc5db91],
    [0xa7a6deeb0ba45f45, 0x60e7dbb55d3ac48b, 0x8350af60b46150a9],
    [0x701df77d2d3edc13, 0x7d021e82e021d3cf, 0x42ca28b9bd4aba0e],
    [0x7137da6673613bd5, 0x949874b4f184fdcd, 0x5e6d895e4163e6c5],
    [0x0d892fecfc694c4b, 0x63a2781cfd6cc37f, 0x0118f4dffd54ce20],
    [0xac62614a5b4d494a, 0x0ebc4f2afeeae326, 0x42b12450ccde9164],
    [0x6b887bab8f432f12, 0x4b219363931b9a53, 0x4650d759aeb60d29],
    [0x66f0da0ba5b7cef4, 0x8287e14b5f1f8f44, 0x86e68373b0141e0d],
    [0x7137da6673613bd5, 0x949874b4f184fdcd, 0x5e6d895e4163e6c5],
    [0xdcd1cd1a2138b85d, 0xcb9fb50a599439c9, 0xbd59fa0bfc9e89ad],
    [0xb48be7a6f185a84e, 0x4114adae28a6804c, 0x42db12b9bd5907df],
    [0xdcd1cd1a2138b85d, 0xcb9fb50a599439c9, 0xbd59fa0bfc9e89ad],
    [0xdcd1cd1a2138b85d, 0xcb9fb50a599439c9, 0xbd59fa0bfc9e89ad],
    [0x6717b0d511c93f11, 0x0487a41ad634b53e, 0x76c71d79e576e53c],
    [0xa2268e1ff1169487, 0xd66493f390d43599, 0xeb5288a07773b300],
    [0x7b79912cc4b0c77d, 0x7359712dd71aa99b, 0xd444c20bcfdd2db1],
    [0x045d8923bb963d2d, 0xab1714a7bed10b75, 0x9e79542aaf334873],
    [0x27454248731a4fc9, 0x3fa00fb4c3c1cc53, 0xa8ba42d0d2f398bc],
    [0x569a028f9b7f080a, 0x905877aae5d34a34, 0x18c26850b625378c],
    [0x1e2908c45ee601b3, 0xc031fe43334d3d0f, 0x5f98a95e4262180d],
    [0x7137da6673613bd5, 0x949874b4f184fdcd, 0x5e6d895e4163e6c5],
    [0xb3bfb9c55d87abbe, 0xbd9a7799b94b1c68, 0xd1d1ecf08e36add2],
    [0xbcbd23345bbfa163, 0x26ed3a547971cbb9, 0x05beecece68f3aaf],
    [0x1f1f731f9704b93f, 0x7dd32326c96a25c8, 0xf673e015284772f9],
    [0xbaf3c115a6188464, 0xd86480586999ad7a, 0x552aeae23277784f],
    [0xeb35c0a6a2c07a79, 0xcb9ab63fd284e953, 0x31dd84855822c062],
    [0xc9bd275e3c139ae2, 0xedacbc0767faf1f2, 0x758b5e89cadd8612],
    [0x9611fb7248db3723, 0x09292f409edfbc00, 0x6a47360f7b15e131],
    [0x5fc6551751673961, 0x0eaa8179b79fa0e1, 0x5211caff0a13838b],
];

fn served_digests() -> (Vec<[u64; 3]>, Vec<String>) {
    let mut digests = Vec::new();
    let mut texts = Vec::new();
    let mut pin = |graph: &Graph, endpoint: &Endpoint, query: String| {
        digests.push([
            fnv1a(&selected(graph, &query)),
            fnv1a(&served(endpoint, &query, false)),
            fnv1a(&served(endpoint, &query, true)),
        ]);
        texts.push(query);
    };
    let mut rng = Rng(0x5eed_cafe_f00d_0005);
    for _ in 0..20 {
        let size = 16 + rng.next(30) as usize;
        let graph = random_linked_graph(&mut rng, size);
        let endpoint = Endpoint::with_config(
            graph.clone(),
            ServerConfig::new().registry(Arc::new(Registry::new())),
        );
        for _ in 0..6 {
            let query = random_modifier_query(&mut rng);
            pin(&graph, &endpoint, query);
        }
    }
    let corpus = corpus();
    let graph = corpus.combined_graph();
    let endpoint = Endpoint::with_config(
        graph.clone(),
        ServerConfig::new().registry(Arc::new(Registry::new())),
    );
    for query in exemplar_queries(&corpus) {
        pin(&graph, &endpoint, query);
    }
    (digests, texts)
}

#[test]
fn served_bodies_match_pinned_digests() {
    let (digests, texts) = served_digests();
    let rendered: Vec<String> = digests
        .iter()
        .map(|[a, b, c]| format!("[{a:#018x}, {b:#018x}, {c:#018x}]"))
        .collect();
    assert_eq!(
        digests.len(),
        SERVED_DIGESTS.len(),
        "all digests: [{}]",
        rendered.join(", ")
    );
    for (i, (got, query)) in digests.iter().zip(&texts).enumerate() {
        assert_eq!(
            got, &SERVED_DIGESTS[i],
            "query {i} diverged from its pinned (select, JSON, TSV) digests: {query}"
        );
    }
}
