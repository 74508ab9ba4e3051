//! Pull-based physical operators.
//!
//! Every operator produces rows through `next()`, pulling from its
//! child on demand (the Volcano model). Nothing materializes unless
//! an operator is a genuine pipeline breaker (`OrderBy`, aggregation,
//! `SELECT *`'s data-dependent header), so a `LIMIT k` at the top of
//! the pipeline stops the scans at the bottom after `k` rows and
//! `ask()` stops after the first.
//!
//! Every operator streams compact [`IdRow`]s of interned term ids
//! through one interface ([`IdOperator`]), written into caller-owned
//! buffers:
//!
//! - **Pattern operators** run over the query's variable slots:
//!   [`ReplayOp`] (the leaf of every chain), [`JoinOp`] (a scan when its
//!   input is the seed row, an indexed nested-loop join otherwise),
//!   [`FilterOp`], [`OptionalOp`] and [`UnionOp`]. A chain can be
//!   re-opened over new input ([`IdOperator::open`]): that is how an
//!   OPTIONAL inner pattern runs once per outer row and a UNION arm once
//!   over the union's input, each lowered into operators once, when the
//!   plan is built.
//! - **Solution operators** apply the modifiers in SPARQL 1.1's order
//!   (§18.5): [`OrderByOp`], [`ProjectOp`], [`DistinctOp`], [`SliceOp`]
//!   and [`AskGateOp`]. Aggregation's output is replayed by a
//!   [`ReplayOp`] like any other materialized input.
//!
//! No operator decodes a term except to compare it (`FILTER`, `ORDER
//! BY`, `MIN`/`MAX`); rows are decoded once, by reference, where they
//! leave the pipeline ([`Rows`](super::Rows)).

use super::{ExecCtx, OPERATOR_SECONDS};
use crate::sparql::eval::{
    bind_slot, compare_terms, effective_boolean, eval_expr, IdRow, QueryError, RExpr, RPos,
    RTriple, UNBOUND,
};
use provbench_obs::LATENCY_BUCKETS;
use provbench_rdf::{IdsMatching, Term, TermId};
use std::collections::HashSet;
use std::time::Instant;

/// A pull-based operator over compact id rows.
pub(crate) trait IdOperator<'g> {
    /// Write the next row into `out` and return `true`, or return
    /// `false` when the stream is exhausted (leaving `out` unspecified).
    /// Rows are written into the caller's buffer so that streaming a row
    /// through a chain reuses allocations instead of making new ones.
    fn next(&mut self, cx: &mut ExecCtx<'g>, out: &mut IdRow) -> Result<bool, QueryError>;

    /// Restart the stream over a copy of `input`: hand it down to the
    /// chain's [`ReplayOp`] leaf and reset per-stream state on the way.
    /// Opening charges nothing; rows are produced by `next()`.
    fn open(&mut self, input: &[IdRow]);
}

pub(crate) type BoxIdOp<'g> = Box<dyn IdOperator<'g> + 'g>;

// -------------------------------------------------------- id operators --

/// The leaf of every id-operator chain: replays the rows it was
/// opened with. The pipeline's leaf holds the one all-unbound seed
/// row, an OPTIONAL inner chain's leaf the outer row being extended, a
/// UNION arm's leaf the union's whole input, and `SELECT *` replays the
/// id rows its data-dependent header forced it to collect.
pub(crate) struct ReplayOp {
    rows: Vec<IdRow>,
    next: usize,
}

impl ReplayOp {
    pub(crate) fn new(rows: Vec<IdRow>) -> Self {
        ReplayOp { rows, next: 0 }
    }
}

impl<'g> IdOperator<'g> for ReplayOp {
    fn next(&mut self, _cx: &mut ExecCtx<'g>, out: &mut IdRow) -> Result<bool, QueryError> {
        let Some(row) = self.rows.get(self.next) else {
            return Ok(false);
        };
        out.clone_from(row);
        self.next += 1;
        Ok(true)
    }

    fn open(&mut self, input: &[IdRow]) {
        // Copy into the rows already held, so that re-opening with one
        // row per OPTIONAL outer row allocates nothing.
        self.rows.truncate(input.len());
        let held = self.rows.len();
        for (row, src) in self.rows.iter_mut().zip(input) {
            row.clone_from(src);
        }
        self.rows.extend_from_slice(&input[held..]);
        self.next = 0;
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
    scan: Option<IdsMatching<'g>>,
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
    fn next(&mut self, cx: &mut ExecCtx<'g>, out: &mut IdRow) -> Result<bool, QueryError> {
        loop {
            if let Some(scan) = &mut self.scan {
                for (sid, pid, oid) in scan.by_ref() {
                    out.clone_from(&self.row);
                    if bind_slot(out, &self.tp.s, sid)
                        && bind_slot(out, &self.tp.p, pid)
                        && bind_slot(out, &self.tp.o, oid)
                    {
                        cx.state.charge()?;
                        return Ok(true);
                    }
                }
                self.scan = None;
            }
            if !self.child.next(cx, &mut self.row)? {
                return Ok(false);
            }
            let row = &self.row;
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
        }
    }

    fn open(&mut self, input: &[IdRow]) {
        self.scan = None;
        self.child.open(input);
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
    fn next(&mut self, cx: &mut ExecCtx<'g>, out: &mut IdRow) -> Result<bool, QueryError> {
        while self.child.next(cx, out)? {
            let keep = eval_expr(&self.expr, out, cx.graph)
                .and_then(|v| effective_boolean(&v))
                .unwrap_or(false);
            if keep {
                return Ok(true);
            }
        }
        Ok(false)
    }

    fn open(&mut self, input: &[IdRow]) {
        self.child.open(input);
    }
}

/// `OPTIONAL`: extend each input row with the inner pattern's matches,
/// passing the row through unchanged (and charging it as a row of its
/// own) when there are none. The inner pattern is an operator chain of
/// its own, re-opened with each outer row.
pub(crate) struct OptionalOp<'g> {
    child: BoxIdOp<'g>,
    inner: BoxIdOp<'g>,
    /// The outer row being extended.
    row: IdRow,
    /// Whether `row` is still being extended, and whether `inner`
    /// matched it so far.
    extending: bool,
    matched: bool,
}

impl<'g> OptionalOp<'g> {
    pub(crate) fn new(child: BoxIdOp<'g>, inner: BoxIdOp<'g>) -> Self {
        OptionalOp {
            child,
            inner,
            row: Vec::new(),
            extending: false,
            matched: false,
        }
    }
}

impl<'g> IdOperator<'g> for OptionalOp<'g> {
    fn next(&mut self, cx: &mut ExecCtx<'g>, out: &mut IdRow) -> Result<bool, QueryError> {
        loop {
            if self.extending {
                if self.inner.next(cx, out)? {
                    self.matched = true;
                    return Ok(true);
                }
                self.extending = false;
                if !self.matched {
                    cx.state.charge()?;
                    out.clone_from(&self.row);
                    return Ok(true);
                }
            }
            if !self.child.next(cx, &mut self.row)? {
                return Ok(false);
            }
            self.inner.open(std::slice::from_ref(&self.row));
            self.extending = true;
            self.matched = false;
        }
    }

    fn open(&mut self, input: &[IdRow]) {
        self.extending = false;
        self.child.open(input);
    }
}

/// Where a [`UnionOp`] is in its stream.
enum UnionPhase {
    /// The input has not been drained yet.
    Drain,
    Left,
    Right,
}

/// `UNION`: all left-arm results, then all right-arm results. A
/// pipeline breaker by construction — both arms need the *complete*
/// upstream input, so it drains its child once and opens each arm's
/// chain over all of it.
pub(crate) struct UnionOp<'g> {
    child: BoxIdOp<'g>,
    left: BoxIdOp<'g>,
    right: BoxIdOp<'g>,
    phase: UnionPhase,
}

impl<'g> UnionOp<'g> {
    pub(crate) fn new(child: BoxIdOp<'g>, left: BoxIdOp<'g>, right: BoxIdOp<'g>) -> Self {
        UnionOp {
            child,
            left,
            right,
            phase: UnionPhase::Drain,
        }
    }
}

impl<'g> IdOperator<'g> for UnionOp<'g> {
    fn next(&mut self, cx: &mut ExecCtx<'g>, out: &mut IdRow) -> Result<bool, QueryError> {
        loop {
            match self.phase {
                UnionPhase::Drain => {
                    let input = drain(self.child.as_mut(), cx)?;
                    self.left.open(&input);
                    self.right.open(&input);
                    self.phase = UnionPhase::Left;
                }
                UnionPhase::Left => {
                    if self.left.next(cx, out)? {
                        return Ok(true);
                    }
                    self.phase = UnionPhase::Right;
                }
                UnionPhase::Right => return self.right.next(cx, out),
            }
        }
    }

    fn open(&mut self, input: &[IdRow]) {
        self.phase = UnionPhase::Drain;
        self.child.open(input);
    }
}

/// Every remaining row of `op`.
pub(crate) fn drain<'g>(
    op: &mut (dyn IdOperator<'g> + 'g),
    cx: &mut ExecCtx<'g>,
) -> Result<Vec<IdRow>, QueryError> {
    let mut rows = Vec::new();
    let mut row = IdRow::new();
    while op.next(cx, &mut row)? {
        rows.push(row.clone());
    }
    Ok(rows)
}

// -------------------------------------------------- solution operators --
//
// The solution modifiers stream id rows too. Their rows are positional:
// `OrderBy` sees the rows it sorts in the child's layout (pattern slots,
// or aggregate columns), `Project` rewrites them into the projected
// variables' order, and everything above it keeps that order. Terms are
// decoded only where a row leaves the pipeline.

/// One `ORDER BY` key: the column it reads (`None`: a variable the rows
/// never bind) and its direction.
pub(crate) struct SortKey {
    pub(crate) column: Option<usize>,
    pub(crate) descending: bool,
}

/// `ORDER BY`: the pipeline breaker. Drains its child on the first
/// pull, looks each row's key terms up once (borrowed, never cloned),
/// sorts stably with [`compare_terms`] (unbound keys first, `DESC`
/// reverses per key), then streams the rows in sorted order — so
/// `LIMIT` above still short-circuits the *emission*, though not the
/// sort itself.
pub(crate) struct OrderByOp<'g> {
    child: BoxIdOp<'g>,
    keys: Vec<SortKey>,
    /// The drained rows and the order to emit them in, once sorted.
    rows: Vec<IdRow>,
    order: Option<std::vec::IntoIter<usize>>,
}

impl<'g> OrderByOp<'g> {
    pub(crate) fn new(child: BoxIdOp<'g>, keys: Vec<SortKey>) -> Self {
        OrderByOp {
            child,
            keys,
            rows: Vec::new(),
            order: None,
        }
    }

    fn sort(&mut self, cx: &mut ExecCtx<'g>) -> Result<(), QueryError> {
        self.rows = drain(self.child.as_mut(), cx)?;
        let width = self.keys.len();
        let mut terms: Vec<Option<&Term>> = Vec::with_capacity(self.rows.len() * width);
        for row in &self.rows {
            terms.extend(
                self.keys
                    .iter()
                    .map(|k| k.column.and_then(|c| cx.term(row[c]))),
            );
        }
        let mut order: Vec<usize> = (0..self.rows.len()).collect();
        order.sort_by(|&a, &b| {
            let (xs, ys) = (&terms[a * width..][..width], &terms[b * width..][..width]);
            for ((x, y), key) in xs.iter().zip(ys).zip(&self.keys) {
                let ord = match (x, y) {
                    (None, None) => std::cmp::Ordering::Equal,
                    (None, Some(_)) => std::cmp::Ordering::Less,
                    (Some(_), None) => std::cmp::Ordering::Greater,
                    (Some(x), Some(y)) => compare_terms(x, y).unwrap_or(std::cmp::Ordering::Equal),
                };
                let ord = if key.descending { ord.reverse() } else { ord };
                if !ord.is_eq() {
                    return ord;
                }
            }
            std::cmp::Ordering::Equal
        });
        self.order = Some(order.into_iter());
        Ok(())
    }
}

impl<'g> IdOperator<'g> for OrderByOp<'g> {
    fn next(&mut self, cx: &mut ExecCtx<'g>, out: &mut IdRow) -> Result<bool, QueryError> {
        if self.order.is_none() {
            self.sort(cx)?;
        }
        match self.order.as_mut().and_then(Iterator::next) {
            Some(i) => {
                out.clone_from(&self.rows[i]);
                Ok(true)
            }
            None => Ok(false),
        }
    }

    fn open(&mut self, input: &[IdRow]) {
        self.rows.clear();
        self.order = None;
        self.child.open(input);
    }
}

/// Projection: rewrite each row into the projected variables' order,
/// one column per projected variable (`None`: a variable the rows
/// never bind, which stays unbound).
pub(crate) struct ProjectOp<'g> {
    child: BoxIdOp<'g>,
    columns: Vec<Option<usize>>,
    row: IdRow,
}

impl<'g> ProjectOp<'g> {
    pub(crate) fn new(child: BoxIdOp<'g>, columns: Vec<Option<usize>>) -> Self {
        ProjectOp {
            child,
            columns,
            row: IdRow::new(),
        }
    }
}

impl<'g> IdOperator<'g> for ProjectOp<'g> {
    fn next(&mut self, cx: &mut ExecCtx<'g>, out: &mut IdRow) -> Result<bool, QueryError> {
        if !self.child.next(cx, &mut self.row)? {
            return Ok(false);
        }
        out.clear();
        out.extend(
            self.columns
                .iter()
                .map(|c| c.map_or(UNBOUND, |c| self.row[c])),
        );
        Ok(true)
    }

    fn open(&mut self, input: &[IdRow]) {
        self.child.open(input);
    }
}

/// `DISTINCT`, streaming: emit each row the first time it is seen,
/// comparing ids — equal exactly when the terms are. First-occurrence
/// order is kept, and under a `LIMIT` the pipeline stops once enough
/// *distinct* rows came through.
pub(crate) struct DistinctOp<'g> {
    child: BoxIdOp<'g>,
    seen: HashSet<IdRow>,
}

impl<'g> DistinctOp<'g> {
    pub(crate) fn new(child: BoxIdOp<'g>) -> Self {
        DistinctOp {
            child,
            seen: HashSet::new(),
        }
    }
}

impl<'g> IdOperator<'g> for DistinctOp<'g> {
    fn next(&mut self, cx: &mut ExecCtx<'g>, out: &mut IdRow) -> Result<bool, QueryError> {
        while self.child.next(cx, out)? {
            if !self.seen.contains(out) {
                self.seen.insert(out.clone());
                return Ok(true);
            }
        }
        Ok(false)
    }

    fn open(&mut self, input: &[IdRow]) {
        self.seen.clear();
        self.child.open(input);
    }
}

/// `OFFSET`/`LIMIT`. Once the limit is reached the child is never
/// pulled again — this is the operator that turns `LIMIT k` into an
/// early stop for every streaming operator below it.
pub(crate) struct SliceOp<'g> {
    child: BoxIdOp<'g>,
    offset: usize,
    limit: Option<usize>,
    skip: usize,
    remaining: Option<usize>,
}

impl<'g> SliceOp<'g> {
    pub(crate) fn new(child: BoxIdOp<'g>, offset: usize, limit: Option<usize>) -> Self {
        SliceOp {
            child,
            offset,
            limit,
            skip: offset,
            remaining: limit,
        }
    }
}

impl<'g> IdOperator<'g> for SliceOp<'g> {
    fn next(&mut self, cx: &mut ExecCtx<'g>, out: &mut IdRow) -> Result<bool, QueryError> {
        if self.remaining == Some(0) {
            return Ok(false);
        }
        while self.skip > 0 {
            if !self.child.next(cx, out)? {
                self.skip = 0;
                return Ok(false);
            }
            self.skip -= 1;
        }
        if !self.child.next(cx, out)? {
            return Ok(false);
        }
        if let Some(n) = &mut self.remaining {
            *n -= 1;
        }
        Ok(true)
    }

    fn open(&mut self, input: &[IdRow]) {
        self.skip = self.offset;
        self.remaining = self.limit;
        self.child.open(input);
    }
}

/// The `ASK` gate: pull at most one row from the child and emit the
/// boolean result in `Solutions` shape (one empty row = true, none =
/// false). Everything below it stops after the first solution.
pub(crate) struct AskGateOp<'g> {
    child: BoxIdOp<'g>,
    done: bool,
}

impl<'g> AskGateOp<'g> {
    pub(crate) fn new(child: BoxIdOp<'g>) -> Self {
        AskGateOp { child, done: false }
    }
}

impl<'g> IdOperator<'g> for AskGateOp<'g> {
    fn next(&mut self, cx: &mut ExecCtx<'g>, out: &mut IdRow) -> Result<bool, QueryError> {
        if self.done {
            return Ok(false);
        }
        self.done = true;
        let found = self.child.next(cx, out)?;
        out.clear();
        Ok(found)
    }

    fn open(&mut self, input: &[IdRow]) {
        self.done = false;
        self.child.open(input);
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
    fn next(&mut self, cx: &mut ExecCtx<'g>, out: &mut IdRow) -> Result<bool, QueryError> {
        let start = Instant::now();
        let result = self.child.next(cx, out);
        observe_span(cx, self.name, start);
        result
    }

    fn open(&mut self, input: &[IdRow]) {
        self.child.open(input);
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
