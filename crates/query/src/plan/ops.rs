//! Pull-based physical operators.
//!
//! Every operator exposes one method — `next()` — and pulls rows from
//! its child on demand (the Volcano model). Nothing materializes unless
//! an operator is a genuine pipeline breaker (`OrderBy`, aggregation,
//! `SELECT *`'s data-dependent header), so a `LIMIT k` at the top of
//! the pipeline stops the scans at the bottom after `k` rows and
//! `ask()` stops after the first.
//!
//! Operators come in two row spaces, mirroring the evaluator's two
//! stages:
//!
//! - **Id operators** ([`IdOperator`]) stream compact [`IdRow`]s of
//!   interned term ids: [`SeedOp`], [`JoinOp`] (a scan when its input
//!   is the seed row, an indexed nested-loop join otherwise),
//!   [`FilterOp`], [`OptionalOp`], [`UnionOp`], plus the buffered
//!   sources [`ChunksOp`] (parallel chunk drain) and [`MaterialOp`].
//! - **Solution operators** ([`SolOperator`]) stream decoded
//!   [`Bindings`]: [`ProjectOp`], [`BufferedSolOp`], [`DistinctOp`],
//!   [`OrderByOp`], [`SliceOp`], [`AskGateOp`].
//!
//! The split keeps joins in id space (term decode happens exactly once,
//! at projection) and keeps the solution modifiers in the same order
//! the materializing evaluator applied them — projection, DISTINCT,
//! ORDER BY, OFFSET/LIMIT — so a full drain of the pipeline is
//! byte-identical to the old `run()`.

use super::{ExecCtx, OPERATOR_SECONDS};
use crate::sparql::ast::OrderKey;
use crate::sparql::eval::{
    bind_slot, compare_terms, effective_boolean, eval_expr, eval_pattern, extend_optional,
    slot_term, Bindings, EvalCtx, IdRow, QueryError, RExpr, RPattern, RPos, RTriple, UNBOUND,
};
use provbench_obs::LATENCY_BUCKETS;
use provbench_rdf::{Term, TermId};
use std::collections::BTreeSet;
use std::time::Instant;

/// A pull-based operator over compact id rows.
pub(crate) trait IdOperator<'g> {
    /// Produce the next row, or `None` when the stream is exhausted.
    fn next(&mut self, cx: &mut ExecCtx<'g>) -> Result<Option<IdRow>, QueryError>;
}

pub(crate) type BoxIdOp<'g> = Box<dyn IdOperator<'g> + 'g>;

/// A pull-based operator over decoded solution rows.
pub(crate) trait SolOperator<'g> {
    /// Produce the next row, or `None` when the stream is exhausted.
    fn next(&mut self, cx: &mut ExecCtx<'g>) -> Result<Option<Bindings>, QueryError>;
}

pub(crate) type BoxSolOp<'g> = Box<dyn SolOperator<'g> + 'g>;

// -------------------------------------------------------- id operators --

/// The evaluation seed: exactly one all-unbound row.
pub(crate) struct SeedOp {
    nvars: usize,
    done: bool,
}

impl SeedOp {
    pub(crate) fn new(nvars: usize) -> Self {
        SeedOp { nvars, done: false }
    }
}

impl<'g> IdOperator<'g> for SeedOp {
    fn next(&mut self, _cx: &mut ExecCtx<'g>) -> Result<Option<IdRow>, QueryError> {
        if self.done {
            return Ok(None);
        }
        self.done = true;
        Ok(Some(vec![UNBOUND; self.nvars]))
    }
}

/// Indexed nested-loop join of one triple pattern against the child
/// stream: for each input row, the pattern's positions are resolved to
/// constants (ground terms and already-bound variables) and the graph's
/// B-tree indexes are range-scanned for the rest. With the seed row as
/// input this *is* the leading index scan of the pipeline.
pub(crate) struct JoinOp<'g> {
    child: BoxIdOp<'g>,
    tp: RTriple,
    /// The child row currently being expanded.
    row: IdRow,
    scan: Option<Box<dyn Iterator<Item = (TermId, TermId, TermId)> + 'g>>,
}

impl<'g> JoinOp<'g> {
    pub(crate) fn new(child: BoxIdOp<'g>, tp: RTriple) -> Self {
        JoinOp {
            child,
            tp,
            row: Vec::new(),
            scan: None,
        }
    }
}

impl<'g> IdOperator<'g> for JoinOp<'g> {
    fn next(&mut self, cx: &mut ExecCtx<'g>) -> Result<Option<IdRow>, QueryError> {
        loop {
            if let Some(scan) = &mut self.scan {
                for (sid, pid, oid) in scan.by_ref() {
                    let mut nb = self.row.clone();
                    if bind_slot(&mut nb, &self.tp.s, sid)
                        && bind_slot(&mut nb, &self.tp.p, pid)
                        && bind_slot(&mut nb, &self.tp.o, oid)
                    {
                        cx.state.charge()?;
                        return Ok(Some(nb));
                    }
                }
                self.scan = None;
            }
            let Some(row) = self.child.next(cx)? else {
                return Ok(None);
            };
            let resolve = |pos: &RPos| -> Option<Option<TermId>> {
                // Outer None = can't match; inner None = wildcard scan.
                match pos {
                    RPos::Const(id) => Some(Some(*id)),
                    RPos::Missing => None,
                    RPos::Var(v) => Some(if row[*v] == UNBOUND {
                        None
                    } else {
                        Some(TermId::from_u32(row[*v]))
                    }),
                }
            };
            let (Some(s), Some(p), Some(o)) = (
                resolve(&self.tp.s),
                resolve(&self.tp.p),
                resolve(&self.tp.o),
            ) else {
                continue; // a ground term the graph never interned
            };
            self.scan = Some(cx.graph.ids_matching(s, p, o));
            self.row = row;
        }
    }
}

/// Keep only rows whose `FILTER` expression is effectively true.
pub(crate) struct FilterOp<'g> {
    child: BoxIdOp<'g>,
    expr: RExpr,
}

impl<'g> FilterOp<'g> {
    pub(crate) fn new(child: BoxIdOp<'g>, expr: RExpr) -> Self {
        FilterOp { child, expr }
    }
}

impl<'g> IdOperator<'g> for FilterOp<'g> {
    fn next(&mut self, cx: &mut ExecCtx<'g>) -> Result<Option<IdRow>, QueryError> {
        loop {
            let Some(row) = self.child.next(cx)? else {
                return Ok(None);
            };
            let keep = eval_expr(&self.expr, &row, cx.graph)
                .and_then(|v| effective_boolean(&v))
                .unwrap_or(false);
            if keep {
                return Ok(Some(row));
            }
        }
    }
}

/// `OPTIONAL`: extend each input row with the inner pattern's matches,
/// passing the row through unchanged when there are none. The inner
/// pattern is evaluated per input row through the recursive evaluator —
/// exactly how the materializing path handled it — so a whole subtree
/// (including nested UNIONs) rides behind one streaming operator.
pub(crate) struct OptionalOp<'g> {
    child: BoxIdOp<'g>,
    inner: RPattern,
    buf: std::vec::IntoIter<IdRow>,
}

impl<'g> OptionalOp<'g> {
    pub(crate) fn new(child: BoxIdOp<'g>, inner: RPattern) -> Self {
        OptionalOp {
            child,
            inner,
            buf: Vec::new().into_iter(),
        }
    }
}

impl<'g> IdOperator<'g> for OptionalOp<'g> {
    fn next(&mut self, cx: &mut ExecCtx<'g>) -> Result<Option<IdRow>, QueryError> {
        loop {
            if let Some(row) = self.buf.next() {
                return Ok(Some(row));
            }
            let Some(row) = self.child.next(cx)? else {
                return Ok(None);
            };
            let ctx = EvalCtx {
                graph: cx.graph,
                reorder: cx.reorder,
            };
            let mut extended = Vec::new();
            extend_optional(&ctx, &mut cx.state, &self.inner, row, &mut extended)?;
            self.buf = extended.into_iter();
        }
    }
}

/// `UNION`: all left-arm results, then all right-arm results. A
/// pipeline breaker by construction — both arms need the *complete*
/// upstream input, so it drains its child once and replays it through
/// each arm (again via the recursive evaluator, preserving the
/// materializing path's row order and charge accounting).
pub(crate) struct UnionOp<'g> {
    child: Option<BoxIdOp<'g>>,
    left: RPattern,
    right: RPattern,
    input: Vec<IdRow>,
    buf: std::vec::IntoIter<IdRow>,
    phase: u8,
}

impl<'g> UnionOp<'g> {
    pub(crate) fn new(child: BoxIdOp<'g>, left: RPattern, right: RPattern) -> Self {
        UnionOp {
            child: Some(child),
            left,
            right,
            input: Vec::new(),
            buf: Vec::new().into_iter(),
            phase: 0,
        }
    }
}

impl<'g> IdOperator<'g> for UnionOp<'g> {
    fn next(&mut self, cx: &mut ExecCtx<'g>) -> Result<Option<IdRow>, QueryError> {
        loop {
            if let Some(row) = self.buf.next() {
                return Ok(Some(row));
            }
            let ctx = EvalCtx {
                graph: cx.graph,
                reorder: cx.reorder,
            };
            match self.phase {
                0 => {
                    let mut child = self.child.take().expect("union child taken once");
                    let mut input = Vec::new();
                    while let Some(r) = child.next(cx)? {
                        input.push(r);
                    }
                    self.input = input;
                    self.buf = eval_pattern(&ctx, &mut cx.state, &self.left, self.input.clone())?
                        .into_iter();
                    self.phase = 1;
                }
                1 => {
                    let input = std::mem::take(&mut self.input);
                    self.buf = eval_pattern(&ctx, &mut cx.state, &self.right, input)?.into_iter();
                    self.phase = 2;
                }
                _ => return Ok(None),
            }
        }
    }
}

/// Drain the parallel path's per-chunk result slabs **in chunk order**,
/// which is what makes parallel output byte-identical to serial.
pub(crate) struct ChunksOp {
    chunks: std::vec::IntoIter<Vec<IdRow>>,
    cur: std::vec::IntoIter<IdRow>,
}

impl ChunksOp {
    pub(crate) fn new(chunks: Vec<Vec<IdRow>>) -> Self {
        ChunksOp {
            chunks: chunks.into_iter(),
            cur: Vec::new().into_iter(),
        }
    }
}

impl<'g> IdOperator<'g> for ChunksOp {
    fn next(&mut self, _cx: &mut ExecCtx<'g>) -> Result<Option<IdRow>, QueryError> {
        loop {
            if let Some(row) = self.cur.next() {
                return Ok(Some(row));
            }
            match self.chunks.next() {
                Some(chunk) => self.cur = chunk.into_iter(),
                None => return Ok(None),
            }
        }
    }
}

/// Replay an already-materialized id-row slab (`SELECT *`'s
/// data-dependent header forces one).
pub(crate) struct MaterialOp {
    rows: std::vec::IntoIter<IdRow>,
}

impl MaterialOp {
    pub(crate) fn new(rows: Vec<IdRow>) -> Self {
        MaterialOp {
            rows: rows.into_iter(),
        }
    }
}

impl<'g> IdOperator<'g> for MaterialOp {
    fn next(&mut self, _cx: &mut ExecCtx<'g>) -> Result<Option<IdRow>, QueryError> {
        Ok(self.rows.next())
    }
}

// -------------------------------------------------- solution operators --

/// Decode the projected slots of each id row into named [`Bindings`].
/// This is the only place terms are decoded on the streaming path.
pub(crate) struct ProjectOp<'g> {
    child: BoxIdOp<'g>,
    keep: Vec<(usize, String)>,
}

impl<'g> ProjectOp<'g> {
    pub(crate) fn new(child: BoxIdOp<'g>, keep: Vec<(usize, String)>) -> Self {
        ProjectOp { child, keep }
    }
}

impl<'g> SolOperator<'g> for ProjectOp<'g> {
    fn next(&mut self, cx: &mut ExecCtx<'g>) -> Result<Option<Bindings>, QueryError> {
        let Some(row) = self.child.next(cx)? else {
            return Ok(None);
        };
        let mut b = Bindings::new();
        for (slot, name) in &self.keep {
            if let Some(t) = slot_term(&row, *slot, cx.graph) {
                b.insert(name.clone(), t.clone());
            }
        }
        Ok(Some(b))
    }
}

/// Replay precomputed solution rows (the aggregate path computes its
/// groups eagerly — grouping needs every input row).
pub(crate) struct BufferedSolOp {
    rows: std::vec::IntoIter<Bindings>,
}

impl BufferedSolOp {
    pub(crate) fn new(rows: Vec<Bindings>) -> Self {
        BufferedSolOp {
            rows: rows.into_iter(),
        }
    }
}

impl<'g> SolOperator<'g> for BufferedSolOp {
    fn next(&mut self, _cx: &mut ExecCtx<'g>) -> Result<Option<Bindings>, QueryError> {
        Ok(self.rows.next())
    }
}

/// `DISTINCT`, streaming: emit each row the first time it is seen.
/// First-occurrence order is exactly what the materializing
/// `retain(insert)` kept, and under a `LIMIT` the pipeline stops once
/// enough *distinct* rows came through.
pub(crate) struct DistinctOp<'g> {
    child: BoxSolOp<'g>,
    seen: BTreeSet<Bindings>,
}

impl<'g> DistinctOp<'g> {
    pub(crate) fn new(child: BoxSolOp<'g>) -> Self {
        DistinctOp {
            child,
            seen: BTreeSet::new(),
        }
    }
}

impl<'g> SolOperator<'g> for DistinctOp<'g> {
    fn next(&mut self, cx: &mut ExecCtx<'g>) -> Result<Option<Bindings>, QueryError> {
        loop {
            let Some(row) = self.child.next(cx)? else {
                return Ok(None);
            };
            if self.seen.insert(row.clone()) {
                return Ok(Some(row));
            }
        }
    }
}

/// `ORDER BY`: the pipeline breaker. Drains its child on the first
/// pull, sorts with the same stable comparator as the materializing
/// path (unbound keys first, `DESC` reverses per key), then streams the
/// sorted rows — so `LIMIT` above still short-circuits the *emission*,
/// though not the sort itself.
pub(crate) struct OrderByOp<'g> {
    child: BoxSolOp<'g>,
    keys: Vec<OrderKey>,
    sorted: Option<std::vec::IntoIter<Bindings>>,
}

impl<'g> OrderByOp<'g> {
    pub(crate) fn new(child: BoxSolOp<'g>, keys: Vec<OrderKey>) -> Self {
        OrderByOp {
            child,
            keys,
            sorted: None,
        }
    }
}

impl<'g> SolOperator<'g> for OrderByOp<'g> {
    fn next(&mut self, cx: &mut ExecCtx<'g>) -> Result<Option<Bindings>, QueryError> {
        if self.sorted.is_none() {
            // Look each row's sort keys up once, not once per comparison.
            let mut keyed = Vec::new();
            while let Some(r) = self.child.next(cx)? {
                let keys: Vec<Option<Term>> =
                    self.keys.iter().map(|k| r.get(&k.var).cloned()).collect();
                keyed.push((keys, r));
            }
            keyed.sort_by(|(a, _), (b, _)| {
                for ((x, y), key) in a.iter().zip(b).zip(&self.keys) {
                    let ord = match (x, y) {
                        (None, None) => std::cmp::Ordering::Equal,
                        (None, Some(_)) => std::cmp::Ordering::Less,
                        (Some(_), None) => std::cmp::Ordering::Greater,
                        (Some(x), Some(y)) => {
                            compare_terms(x, y).unwrap_or(std::cmp::Ordering::Equal)
                        }
                    };
                    let ord = if key.descending { ord.reverse() } else { ord };
                    if !ord.is_eq() {
                        return ord;
                    }
                }
                std::cmp::Ordering::Equal
            });
            let rows: Vec<Bindings> = keyed.into_iter().map(|(_, r)| r).collect();
            self.sorted = Some(rows.into_iter());
        }
        Ok(self.sorted.as_mut().and_then(|it| it.next()))
    }
}

/// `OFFSET`/`LIMIT`. Once the limit is reached the child is never
/// pulled again — this is the operator that turns `LIMIT k` into an
/// early stop for every streaming operator below it.
pub(crate) struct SliceOp<'g> {
    child: BoxSolOp<'g>,
    skip: usize,
    remaining: Option<usize>,
}

impl<'g> SliceOp<'g> {
    pub(crate) fn new(child: BoxSolOp<'g>, offset: usize, limit: Option<usize>) -> Self {
        SliceOp {
            child,
            skip: offset,
            remaining: limit,
        }
    }
}

impl<'g> SolOperator<'g> for SliceOp<'g> {
    fn next(&mut self, cx: &mut ExecCtx<'g>) -> Result<Option<Bindings>, QueryError> {
        if self.remaining == Some(0) {
            return Ok(None);
        }
        while self.skip > 0 {
            if self.child.next(cx)?.is_none() {
                self.skip = 0;
                return Ok(None);
            }
            self.skip -= 1;
        }
        let Some(row) = self.child.next(cx)? else {
            return Ok(None);
        };
        if let Some(n) = &mut self.remaining {
            *n -= 1;
        }
        Ok(Some(row))
    }
}

/// The `ASK` gate: pull at most one row from the child and emit the
/// boolean result in `Solutions` shape (one empty row = true, none =
/// false). Everything below it stops after the first solution.
pub(crate) struct AskGateOp<'g> {
    child: BoxSolOp<'g>,
    done: bool,
}

impl<'g> AskGateOp<'g> {
    pub(crate) fn new(child: BoxSolOp<'g>) -> Self {
        AskGateOp { child, done: false }
    }
}

impl<'g> SolOperator<'g> for AskGateOp<'g> {
    fn next(&mut self, cx: &mut ExecCtx<'g>) -> Result<Option<Bindings>, QueryError> {
        if self.done {
            return Ok(None);
        }
        self.done = true;
        Ok(self.child.next(cx)?.map(|_| Bindings::new()))
    }
}

// --------------------------------------------------------------- spans --

/// Per-operator timing wrapper ([`EvalOptions::operator_spans`]): every
/// `next()` call records one `provbench_query_operator_seconds{op=...}`
/// observation — a span per pulled row, parent spans inclusive of their
/// children, like any nested tracing.
///
/// [`EvalOptions::operator_spans`]: crate::EvalOptions::operator_spans
pub(crate) struct SpanIdOp<'g> {
    child: BoxIdOp<'g>,
    name: &'static str,
}

impl<'g> SpanIdOp<'g> {
    pub(crate) fn new(child: BoxIdOp<'g>, name: &'static str) -> Self {
        SpanIdOp { child, name }
    }
}

impl<'g> IdOperator<'g> for SpanIdOp<'g> {
    fn next(&mut self, cx: &mut ExecCtx<'g>) -> Result<Option<IdRow>, QueryError> {
        let start = Instant::now();
        let result = self.child.next(cx);
        observe_span(cx, self.name, start);
        result
    }
}

/// [`SpanIdOp`], for the solution layer.
pub(crate) struct SpanSolOp<'g> {
    child: BoxSolOp<'g>,
    name: &'static str,
}

impl<'g> SpanSolOp<'g> {
    pub(crate) fn new(child: BoxSolOp<'g>, name: &'static str) -> Self {
        SpanSolOp { child, name }
    }
}

impl<'g> SolOperator<'g> for SpanSolOp<'g> {
    fn next(&mut self, cx: &mut ExecCtx<'g>) -> Result<Option<Bindings>, QueryError> {
        let start = Instant::now();
        let result = self.child.next(cx);
        observe_span(cx, self.name, start);
        result
    }
}

fn observe_span(cx: &ExecCtx<'_>, name: &'static str, start: Instant) {
    if let Some(registry) = cx.spans {
        registry
            .histogram_with(
                OPERATOR_SECONDS,
                "Per-operator next() time of physical query plans",
                LATENCY_BUCKETS,
                &[("op", name)],
            )
            .observe_duration(start.elapsed());
    }
}
