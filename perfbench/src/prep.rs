//! Untimed preparation: the corpus on disk with its warm snapshot, the
//! request texts of each workload drawn from the seed, and their
//! expected answers computed in-process.

use crate::client;
use crate::stats::{fnv1a, json_rows, tsv_rows, Rng};
use provbench::corpus::{store, Corpus, CorpusSpec, CorpusStore, StoreOptions};
use provbench::endpoint::{parse_request, Endpoint, ServerConfig};
use provbench::query::exemplar;
use provbench::query::QueryEngine;
use provbench::rdf::{Iri, Term};
use std::collections::HashMap;
use std::path::{Path, PathBuf};
use std::sync::Arc;

/// The 10x corpus: 1980 runs of which 300 fail, payload 0.
pub const TOTAL_RUNS: usize = 1980;
pub const FAILED_RUNS: usize = 300;

/// Length of the seeded `exemplar_mix` request sequence; the open loop
/// walks it cyclically.
const EXEMPLAR_SEQUENCE: usize = 30_000;

/// One distinct request and its expected answer.
pub struct Entry {
    /// Query kind: `Q1`..`Q6`, `bulk`, `count` or `stats`.
    pub label: &'static str,
    /// SPARQL text (empty for `stats`).
    pub query: String,
    /// Whether the request asks for tab-separated results.
    pub tsv: bool,
    /// Request target (path and query string).
    pub target: String,
    /// Rows the in-process engine returns (for `stats`, the union's
    /// triple count).
    pub rows: usize,
    /// Body the in-process endpoint answers, as length and digest.
    pub body_len: usize,
    pub digest: u64,
}

/// What a response amounted to, from best to worst.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub enum Verdict {
    Ok,
    /// Non-200 or transport error.
    Failed,
    /// A 200 whose rows, length or digest differ from the expected.
    Wrong,
}

impl Entry {
    /// Check a response. Row count and body length always; the body
    /// digest too when `digest` is set.
    pub fn check(&self, status: u16, body: &[u8], digest: bool) -> Verdict {
        if status != 200 {
            return Verdict::Failed;
        }
        if self.label == "stats" {
            // `/stats` also reports live counters; only the triple count
            // is fixed.
            return match stats_triples(body) {
                Some(n) if n == self.rows => Verdict::Ok,
                _ => Verdict::Wrong,
            };
        }
        if body.len() != self.body_len {
            return Verdict::Wrong;
        }
        let rows = if self.tsv {
            tsv_rows(body)
        } else {
            json_rows(body)
        };
        if rows != Some(self.rows) || (digest && fnv1a(body) != self.digest) {
            return Verdict::Wrong;
        }
        Verdict::Ok
    }
}

/// The `"triples"` count in a `/stats` body.
fn stats_triples(body: &[u8]) -> Option<usize> {
    let text = std::str::from_utf8(body).ok()?;
    let rest = text.split("\"triples\":").nth(1)?;
    let digits: String = rest.chars().take_while(char::is_ascii_digit).collect();
    digits.parse().ok()
}

pub struct Prepared {
    pub dir: PathBuf,
    pub source_files: u64,
    pub source_bytes: u64,
    pub snapshot_bytes: u64,
    pub triples: usize,
    pub store: CorpusStore,
    /// Distinct requests of the workload.
    pub entries: Vec<Entry>,
    /// The workload's request order, as indices into `entries`; for
    /// `bulk_export`, the seeded predicate order that
    /// `workloads::bulk_cycle` expands into requests.
    pub sequence: Vec<usize>,
}

impl Prepared {
    /// Generate and save the corpus for `seed` under `dir`, build its
    /// snapshot, and draw and answer the requests of `workload`.
    pub fn build(seed: u64, dir: &Path, workload: &str) -> Result<Prepared, String> {
        let spec = CorpusSpec {
            seed,
            total_runs: TOTAL_RUNS,
            failed_runs: FAILED_RUNS,
            ..CorpusSpec::default()
        };
        let corpus = Corpus::generate(&spec);
        store::save(&corpus, dir).map_err(|e| format!("save corpus: {e}"))?;
        let mut templates: Vec<String> = corpus
            .templates
            .iter()
            .map(|(_, t)| t.name.clone())
            .collect();
        drop(corpus);
        templates.sort();
        templates.dedup();

        // The first open parses the fresh directory and writes the
        // snapshot the warm workloads start from; the second loads that
        // snapshot, as the server does, so unordered answers come back in
        // the server's row order.
        let cold = CorpusStore::open_or_build_opts(dir, &StoreOptions::default())
            .map_err(|e| format!("open corpus: {e}"))?;
        if !cold.ingest.is_clean() {
            return Err(format!(
                "generated corpus did not ingest cleanly: {}",
                cold.ingest
            ));
        }
        drop(cold);
        let store = CorpusStore::open_or_build_opts(dir, &StoreOptions::default())
            .map_err(|e| format!("open corpus: {e}"))?;
        let p = &store.provenance;
        if !p.warm {
            return Err("snapshot was not written".into());
        }
        let (source_files, source_bytes, snapshot_bytes) =
            (p.source_files, p.source_bytes, p.snapshot_bytes);

        let mut rng = Rng::new(seed);
        let (texts, sequence) = match workload {
            "exemplar_mix" => exemplar_texts(&store, &templates, &mut rng)?,
            "bulk_export" => bulk_texts(&store, &mut rng),
            _ => (
                vec![
                    ("stats", String::new(), false),
                    (
                        "count",
                        "SELECT (COUNT(*) AS ?n) WHERE { ?s ?p ?o }".into(),
                        false,
                    ),
                ],
                vec![0, 1],
            ),
        };
        let entries = answer(&store, texts)?;
        Ok(Prepared {
            dir: dir.to_path_buf(),
            source_files,
            source_bytes,
            snapshot_bytes,
            triples: store.union.len(),
            store,
            entries,
            sequence,
        })
    }

    /// The entry index of the `i`-th request of the sequence (cyclic).
    pub fn request_index(&self, i: usize) -> usize {
        self.sequence[i % self.sequence.len()]
    }

    /// The entry of the `i`-th request of the sequence.
    pub fn request(&self, i: usize) -> &Entry {
        &self.entries[self.request_index(i)]
    }

    /// Snapshot bytes per source byte.
    pub fn snapshot_ratio(&self) -> f64 {
        self.snapshot_bytes as f64 / self.source_bytes as f64
    }
}

type Text = (&'static str, String, bool);

/// Distinct IRIs bound to `?run` by `query` over the union graph.
fn runs_of(store: &CorpusStore, query: &str) -> Result<Vec<Iri>, String> {
    let solutions = QueryEngine::new(&store.union)
        .prepare(query)
        .and_then(|p| p.select())
        .map_err(|e| format!("listing runs: {e}"))?;
    let mut runs: Vec<Iri> = solutions
        .rows
        .iter()
        .filter_map(|row| row.get("run").and_then(Term::as_iri).cloned())
        .collect();
    runs.sort_by(|a, b| a.as_str().cmp(b.as_str()));
    runs.dedup();
    Ok(runs)
}

/// Q1-Q6 in equal shares: blocks of six, each Q1 then the other five in
/// a seeded order; parameters drawn from all templates and runs, Q6
/// from Wings runs. Q1 answers ~2.3k rows where the others answer a
/// handful, so its place in the block is fixed: with Q1s evenly spaced
/// the tail measures Q1 itself rather than how often the seed happened
/// to put two Q1s back to back.
fn exemplar_texts(
    store: &CorpusStore,
    templates: &[String],
    rng: &mut Rng,
) -> Result<(Vec<Text>, Vec<usize>), String> {
    let runs = runs_of(store, &exemplar::q1_sparql())?;
    let wings_runs = runs_of(
        store,
        "SELECT ?run WHERE { ?run a <http://www.opmw.org/ontology/WorkflowExecutionAccount> }",
    )?;
    if runs.is_empty() || wings_runs.is_empty() || templates.is_empty() {
        return Err("corpus has no runs or templates to query".into());
    }
    let mut texts: Vec<Text> = Vec::new();
    let mut index: HashMap<String, usize> = HashMap::new();
    let mut sequence = Vec::with_capacity(EXEMPLAR_SEQUENCE);
    let mut rest = [2u8, 3, 4, 5, 6];
    while sequence.len() < EXEMPLAR_SEQUENCE {
        rng.shuffle(&mut rest);
        for q in std::iter::once(1).chain(rest) {
            let (label, text) = match q {
                1 => ("Q1", exemplar::q1_sparql()),
                2 => {
                    let t = &templates[rng.below(templates.len())];
                    let text = if rng.below(2) == 0 {
                        exemplar::q2_runs_sparql(t)
                    } else {
                        exemplar::q2_failed_sparql(t)
                    };
                    ("Q2", text)
                }
                3 => {
                    let t = &templates[rng.below(templates.len())];
                    let text = if rng.below(2) == 0 {
                        exemplar::q3_inputs_sparql(t)
                    } else {
                        exemplar::q3_outputs_sparql(t)
                    };
                    ("Q3", text)
                }
                4 => ("Q4", exemplar::q4_sparql(&runs[rng.below(runs.len())])),
                5 => ("Q5", exemplar::q5_sparql(&runs[rng.below(runs.len())])),
                _ => (
                    "Q6",
                    exemplar::q6_sparql(&wings_runs[rng.below(wings_runs.len())]),
                ),
            };
            let next = texts.len();
            let i = *index.entry(text.clone()).or_insert(next);
            if i == next {
                texts.push((label, text, false));
            }
            sequence.push(i);
        }
    }
    Ok((texts, sequence))
}

/// `SELECT ?s ?o WHERE { ?s <p> ?o }` for every predicate in JSON and in
/// TSV. The sequence is one cycle over the predicates in a seeded order;
/// consecutive predicates alternate formats and the next cycle flips
/// each one (see `workloads::bulk_cycle`).
fn bulk_texts(store: &CorpusStore, rng: &mut Rng) -> (Vec<Text>, Vec<usize>) {
    let mut predicates = store.union.predicates();
    predicates.sort_by(|a, b| a.as_str().cmp(b.as_str()));
    let mut texts = Vec::with_capacity(predicates.len() * 2);
    for p in &predicates {
        let text = format!("SELECT ?s ?o WHERE {{ ?s <{}> ?o }}", p.as_str());
        texts.push(("bulk", text.clone(), false));
        texts.push(("bulk", text, true));
    }
    let mut order: Vec<usize> = (0..predicates.len()).collect();
    rng.shuffle(&mut order);
    (texts, order)
}

/// Request target of a text (`/stats` for the empty one).
fn target_of(text: &str, tsv: bool) -> String {
    if text.is_empty() {
        return "/stats".into();
    }
    let mut target = format!("/sparql?query={}", provbench::endpoint::url_encode(text));
    if tsv {
        target.push_str("&format=tsv");
    }
    target
}

/// Expected answers: rows from the query engine, the body from an
/// in-process endpoint with the served configuration, fed the exact
/// request bytes the client sends.
fn answer(store: &CorpusStore, texts: Vec<Text>) -> Result<Vec<Entry>, String> {
    let endpoint = Endpoint::with_config(
        store.union.clone(),
        ServerConfig::new()
            .eval_jobs(1)
            .registry(Arc::new(provbench::obs::Registry::new())),
    );
    let engine = QueryEngine::new(&store.union);
    texts
        .into_iter()
        .map(|(label, query, tsv)| {
            let target = target_of(&query, tsv);
            let request = parse_request(&mut client::request_bytes(&target).as_slice())
                .map_err(|e| format!("request for {label}: {e}"))?;
            let response = endpoint.handle(&request);
            if response.status != 200 {
                return Err(format!("{label} answers {} in-process", response.status));
            }
            let rows = if query.is_empty() {
                store.union.len()
            } else {
                engine
                    .prepare(&query)
                    .and_then(|p| p.rows())
                    .map_err(|e| format!("{label}: {e}"))?
                    .count()
            };
            Ok(Entry {
                label,
                body_len: response.body.len(),
                digest: fnv1a(response.body.as_bytes()),
                query,
                tsv,
                target,
                rows,
            })
        })
        .collect()
}
