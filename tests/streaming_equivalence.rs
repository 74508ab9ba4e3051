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
use provbench::query::exemplar::{
    q1_sparql, q2_failed_sparql, q2_runs_sparql, q3_inputs_sparql, q3_outputs_sparql, q4_sparql,
    q5_sparql, q6_sparql,
};
use provbench::query::{EvalOptions, QueryEngine, QueryError};
use provbench::rdf::{Graph, Iri, Literal, Triple};
use provbench::workflow::System;

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

#[test]
fn exemplar_queries_stream_identically() {
    let corpus = corpus();
    let graph = corpus.combined_graph();
    let template = corpus.templates[0].1.name.clone();
    let tav_run = Iri::new_unchecked(format!(
        "{}workflow-run",
        provbench::taverna::run_base_iri(&corpus.traces_of(System::Taverna).next().unwrap().run_id)
    ));
    let account =
        provbench::wings::account_iri(&corpus.traces_of(System::Wings).next().unwrap().run_id);

    for query in [
        q1_sparql(),
        q2_runs_sparql(&template),
        q2_failed_sparql(&template),
        q3_inputs_sparql(&template),
        q3_outputs_sparql(&template),
        q4_sparql(&tav_run),
        q5_sparql(&tav_run),
        q6_sparql(&account),
    ] {
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
