//! # provbench-endpoint
//!
//! The paper's §6 future work, implemented: "providing access to the
//! corpus via a SPARQL endpoint and web interfaces".
//!
//! A dependency-free HTTP/1.1 server exposing a corpus graph:
//!
//! * `GET /` — a small HTML web interface with a query form;
//! * `GET /sparql?query=…` and `POST /sparql` — the SPARQL protocol
//!   endpoint, returning SPARQL 1.1 JSON results
//!   (`application/sparql-results+json`) or, on request, tab-separated
//!   text;
//! * `GET /stats` — corpus statistics as JSON;
//! * `GET /metrics` — Prometheus text exposition of the endpoint's
//!   metrics registry (see `docs/observability.md`).
//!
//! The serving loop is generic over the [`Conn`] transport (with a
//! fault-injecting wrapper behind the `fault-inject` feature), shuts
//! down gracefully on a [`ShutdownSignal`] (SIGTERM/Ctrl-C when
//! installed), and ships a small retrying [`Client`] for talking to a
//! served endpoint — see `docs/query.md`, "Failure model, shutdown,
//! and retries".
//!
//! ```no_run
//! use provbench_core::{Corpus, CorpusSpec};
//! use provbench_endpoint::Endpoint;
//!
//! let corpus = Corpus::generate(&CorpusSpec::default());
//! let endpoint = Endpoint::new(corpus.combined_graph());
//! endpoint.serve("127.0.0.1:3030").unwrap(); // blocks
//! ```

mod client;
mod http;
pub mod net;
pub mod results;
mod server;

pub use client::{Client, ClientConfig, ClientError, ClientResponse};
pub use http::{parse_request, url_decode, url_encode, Request, Response};
pub use net::{BufConn, Conn};
#[cfg(feature = "fault-inject")]
pub use net::{FaultConn, NetFaultKind};
pub use results::{JsonRowsWriter, TsvRowsWriter};
pub use server::{Endpoint, ServerConfig, ShutdownSignal};
