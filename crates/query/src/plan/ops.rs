//! Pull-based physical operators.
//!
//! Every operator produces rows through `next()`, pulling from its
//! child on demand (the Volcano model). Nothing materializes unless
//! an operator is a genuine pipeline breaker (`OrderBy`, aggregation,
//! `SELECT *`'s data-dependent header), so a `LIMIT k` at the top of
//! the pipeline stops the scans at the bottom after `k` rows and
//! `ask()` stops after the first.
//!
//! Operators come in two row spaces, mirroring the evaluator's two
//! stages:
//!
//! - **Id operators** ([`IdOperator`]) stream compact [`IdRow`]s of
//!   interned term ids: [`ReplayOp`] (the leaf of every chain),
//!   [`JoinOp`] (a scan when its input is the seed row, an indexed
//!   nested-loop join otherwise), [`FilterOp`], [`OptionalOp`] and
//!   [`UnionOp`]. An id-operator chain can be re-opened over new input
//!   ([`IdOperator::open`]): that is how an OPTIONAL inner pattern runs
//!   once per outer row and a UNION arm once over the union's input,
//!   each lowered into operators once, when the plan is built.
//! - **Solution operators** ([`SolOperator`]) stream decoded
//!   [`Bindings`]: [`ProjectOp`], [`BufferedSolOp`], [`DistinctOp`],
//!   [`OrderByOp`], [`SliceOp`], [`AskGateOp`].
//!
//! The split keeps joins in id space (term decode happens exactly once,
//! at projection) and keeps the solution modifiers in the same order
//! the SPARQL algebra applies them — projection, DISTINCT, ORDER BY,
//! OFFSET/LIMIT.

use super::{ExecCtx, OPERATOR_SECONDS};
use crate::sparql::ast::OrderKey;
use crate::sparql::eval::{
    bind_slot, compare_terms, effective_boolean, eval_expr, slot_term, Bindings, IdRow, QueryError,
    RExpr, RPos, RTriple, UNBOUND,
};
use provbench_obs::LATENCY_BUCKETS;
use provbench_rdf::{IdsMatching, Term, TermId};
use std::collections::BTreeSet;
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

/// A pull-based operator over decoded solution rows.
pub(crate) trait SolOperator<'g> {
    /// Produce the next row, or `None` when the stream is exhausted.
    fn next(&mut self, cx: &mut ExecCtx<'g>) -> Result<Option<Bindings>, QueryError>;
}

pub(crate) type BoxSolOp<'g> = Box<dyn SolOperator<'g> + 'g>;

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

/// Decode the projected slots of each id row into named [`Bindings`].
/// This is the only place terms are decoded on the streaming path.
pub(crate) struct ProjectOp<'g> {
    child: BoxIdOp<'g>,
    keep: Vec<(usize, String)>,
    row: IdRow,
}

impl<'g> ProjectOp<'g> {
    pub(crate) fn new(child: BoxIdOp<'g>, keep: Vec<(usize, String)>) -> Self {
        ProjectOp {
            child,
            keep,
            row: IdRow::new(),
        }
    }
}

impl<'g> SolOperator<'g> for ProjectOp<'g> {
    fn next(&mut self, cx: &mut ExecCtx<'g>) -> Result<Option<Bindings>, QueryError> {
        if !self.child.next(cx, &mut self.row)? {
            return Ok(None);
        }
        let mut b = Bindings::new();
        for (slot, name) in &self.keep {
            if let Some(t) = slot_term(&self.row, *slot, cx.graph) {
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
/// First-occurrence order is kept, and under a `LIMIT` the pipeline
/// stops once enough *distinct* rows came through.
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
/// pull, sorts with a stable comparator (unbound keys first, `DESC`
/// reverses per key), then streams the sorted rows — so `LIMIT` above
/// still short-circuits the *emission*, though not the sort itself.
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
