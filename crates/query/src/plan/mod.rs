//! Physical query plans: lowering, streaming execution, explain.
//!
//! The evaluator's resolved pattern tree is lowered into a pipeline of
//! pull-based operators ([`ops`]) rooted in a [`Rows`] iterator — the
//! streaming half of the engine API ([`PreparedQuery::rows`] returns
//! one; `select()` is a collect over it). This is the only evaluator:
//! every BGP join, OPTIONAL and UNION runs through these operators.
//! Lowering happens once per evaluation and keeps the planner-chosen
//! join order of every BGP; each OPTIONAL inner pattern and UNION arm
//! becomes an operator chain of its own, re-opened over each input
//! rather than re-planned. Streaming gives early termination: `LIMIT k`
//! stops pulling (and therefore scanning) after `k` rows, and `ASK`
//! after the first.
//!
//! Pipeline shape, bottom to top:
//!
//! ```text
//! Replay → Scan → IndexedJoin* → Filter/Optional/Union*        pattern slots
//!        → [Aggregate] → OrderBy → Project → Distinct → Slice → AskGate
//! ```
//!
//! Every stage streams id rows; the solution modifiers follow SPARQL
//! 1.1's order (§18.5). Terms are decoded once, by reference, where a
//! row leaves the pipeline: [`Rows::try_for_each_row`] hands borrowed
//! terms to a result writer, and the [`Rows`] iterator decodes into
//! owned [`Bindings`] for callers that want them.
//!
//! Pipeline breakers — operators that must see their whole input
//! before emitting a row — are `OrderBy`, aggregation/`GROUP BY`,
//! `UNION` (left arm first), and `SELECT *` (its header is
//! data-dependent). Everything else streams.
//!
//! [`PreparedQuery::rows`]: crate::PreparedQuery::rows

pub(crate) mod ops;

use crate::sparql::ast::{GraphPattern, Projection, Query, QueryForm, VarOrIri, VarOrTerm};
use crate::sparql::eval::{
    apply_aggregates, decode, estimate, plan_bgp, plan_tp_of_ast, plan_tp_of_resolved, resolve,
    Bindings, ComputedTerms, EvalOptions, EvalState, IdRow, PlanTp, QueryError, RPattern, RTriple,
    Resolved, Solutions, VarTable, UNBOUND,
};
use ops::{
    drain, AskGateOp, BoxIdOp, DistinctOp, FilterOp, JoinOp, OptionalOp, OrderByOp, ProjectOp,
    ReplayOp, SliceOp, SortKey, SpanIdOp, UnionOp,
};
use provbench_obs::{Registry, LATENCY_BUCKETS};
use provbench_rdf::{Graph, Term};
use std::rc::Rc;
use std::time::{Duration, Instant};

/// Histogram of evaluation times, observed once per evaluation (at
/// stream exhaustion, error, or drop — whichever comes first).
pub(crate) const EVAL_SECONDS: &str = "provbench_query_eval_seconds";
/// Counter of evaluations by outcome (`result="ok"|"timeout"|"error"`).
pub(crate) const EVALS_TOTAL: &str = "provbench_query_evals_total";
/// Counter of solution rows emitted by evaluations. Public so callers
/// (the endpoint's `/stats`) can read the same series they feed.
pub const ROWS_EMITTED_TOTAL: &str = "provbench_query_rows_emitted_total";
/// Histogram of per-operator `next()` times, labelled by operator
/// (`op="scan"|"join"|...`); recorded only under
/// [`EvalOptions::operator_spans`].
pub const OPERATOR_SECONDS: &str = "provbench_query_operator_seconds";

/// Shared execution context threaded through every operator: the graph,
/// the deadline/row-budget accounting, the optional span registry, and
/// the terms the evaluation computed itself.
pub(crate) struct ExecCtx<'g> {
    pub(crate) graph: &'g Graph,
    pub(crate) state: EvalState,
    pub(crate) spans: Option<&'g Registry>,
    /// Aggregate results the graph lacks, with ids from the graph's term
    /// count up ([`ComputedTerms`]). Fixed once the plan is built; shared
    /// so that [`Rows`] can lend terms from it while operators run.
    pub(crate) computed: Rc<[Term]>,
}

impl ExecCtx<'_> {
    /// The term behind an id in a row, `None` when unbound.
    #[inline]
    pub(crate) fn term(&self, id: u32) -> Option<&Term> {
        decode(self.graph, &self.computed, id)
    }
}

// ------------------------------------------------------------ lowering --

/// Flatten nested groups into the sequential spine of pipeline stages,
/// taking ownership so operators can move the subtrees in.
fn flatten_owned(pattern: RPattern, out: &mut Vec<RPattern>) {
    match pattern {
        RPattern::Group(elems) => {
            for e in elems {
                flatten_owned(e, out);
            }
        }
        other => out.push(other),
    }
}

fn maybe_span_id<'g>(op: BoxIdOp<'g>, name: &'static str, spans: bool) -> BoxIdOp<'g> {
    if spans {
        Box::new(SpanIdOp::new(op, name))
    } else {
        op
    }
}

/// Lower `pattern` into an id-space operator chain over a [`ReplayOp`]
/// leaf holding `input`. Nested groups flatten into sequential stages,
/// and each BGP's joins run in planner order — an order that depends on
/// the pattern and the graph, never on the input rows, so planning once
/// here serves every input the chain is re-opened with. Each OPTIONAL
/// inner pattern and UNION arm is lowered the same way into a chain of
/// its own, with no input until the enclosing operator re-opens it.
/// `leading` names the first join a scan (from the seed row) rather
/// than a join (probing with bound input), as `explain` renders it.
fn lower<'g>(
    pattern: RPattern,
    input: Vec<IdRow>,
    mut leading: bool,
    graph: &'g Graph,
    reorder: bool,
    spans: bool,
) -> BoxIdOp<'g> {
    let subtree = |pattern| lower(pattern, Vec::new(), false, graph, reorder, spans);
    let mut stages = Vec::new();
    flatten_owned(pattern, &mut stages);
    let mut op: BoxIdOp<'g> = Box::new(ReplayOp::new(input));
    for stage in stages {
        match stage {
            RPattern::Basic(tps) => {
                let order: Vec<usize> = if reorder {
                    let plan_tps: Vec<PlanTp> = tps
                        .iter()
                        .map(|tp| plan_tp_of_resolved(tp, graph))
                        .collect();
                    plan_bgp(&plan_tps).into_iter().map(|(i, _)| i).collect()
                } else {
                    (0..tps.len()).collect()
                };
                let mut slots: Vec<Option<RTriple>> = tps.into_iter().map(Some).collect();
                for idx in order {
                    let tp = slots[idx].take().expect("plan orders each pattern once");
                    let name = if leading { "scan" } else { "join" };
                    leading = false;
                    op = maybe_span_id(Box::new(JoinOp::new(op, tp)), name, spans);
                }
            }
            RPattern::Filter(expr) => {
                op = maybe_span_id(Box::new(FilterOp::new(op, expr)), "filter", spans);
            }
            RPattern::Optional(inner) => {
                leading = false;
                let inner = subtree(*inner);
                op = maybe_span_id(Box::new(OptionalOp::new(op, inner)), "optional", spans);
            }
            RPattern::Union(l, r) => {
                leading = false;
                let (l, r) = (subtree(*l), subtree(*r));
                op = maybe_span_id(Box::new(UnionOp::new(op, l, r)), "union", spans);
            }
            RPattern::Group(_) => unreachable!("flatten_owned removed groups"),
        }
    }
    op
}

fn projection_names(query: &Query) -> Vec<String> {
    query
        .projections
        .iter()
        .map(|p| match p {
            Projection::Var(v) => v.clone(),
            Projection::Aggregate { alias, .. } => alias.clone(),
        })
        .collect()
}

/// The position of `name` among `columns`.
fn column(columns: &[String], name: &str) -> Option<usize> {
    columns.iter().position(|c| c == name)
}

/// The names among `columns` bound in at least one of `rows`, sorted:
/// `SELECT *`'s header.
fn bound_names(columns: &[String], rows: &[IdRow]) -> Vec<String> {
    let mut bound = vec![false; columns.len()];
    for r in rows {
        for (b, &raw) in bound.iter_mut().zip(r) {
            *b |= raw != UNBOUND;
        }
    }
    let mut names: Vec<String> = columns
        .iter()
        .zip(bound)
        .filter(|(_, b)| *b)
        .map(|(n, _)| n.clone())
        .collect();
    names.sort();
    names
}

struct Built<'g> {
    cx: ExecCtx<'g>,
    op: BoxIdOp<'g>,
    variables: Vec<String>,
}

/// Resolve, plan and lower `query` into an executable pipeline.
///
/// Pipeline breakers run here, at construction: aggregation and
/// `SELECT *`'s header scan. Everything else is deferred to the first
/// `next()` pull.
fn build<'g>(
    graph: &'g Graph,
    query: &Query,
    opts: &EvalOptions,
    metrics: Option<&'g Registry>,
) -> Result<Built<'g>, QueryError> {
    let Resolved {
        vars,
        pattern,
        group_by,
        aggregates,
    } = resolve(query, graph)?;
    let nvars = vars.names.len();
    let mut cx = ExecCtx {
        graph,
        state: EvalState::new(opts),
        spans: if opts.operator_spans { metrics } else { None },
        computed: Rc::from(Vec::new()),
    };
    let spans = cx.spans.is_some();

    // Id-row source: the pipeline lowered from the pattern, over the one
    // all-unbound seed row.
    let seed = vec![vec![UNBOUND; nvars]];
    let mut op = lower(pattern, seed, true, graph, opts.reorder_patterns, spans);

    // `columns` names the positions of the rows `op` produces: the
    // pattern's variable slots, or aggregation's output columns.
    let has_aggs = query.has_aggregates() || !query.group_by.is_empty();
    let mut columns = vars.names;
    let variables: Vec<String>;
    if query.form == QueryForm::Ask {
        // ASK projects nothing; the gate stops at the first row.
        variables = Vec::new();
    } else if has_aggs {
        // Grouping needs every input row: drain the source now.
        let id_rows = drain(op.as_mut(), &mut cx)?;
        let mut computed = ComputedTerms::new(graph);
        let (agg_columns, rows) =
            apply_aggregates(&columns, &group_by, &aggregates, id_rows, &mut computed)?;
        cx.computed = computed.into_terms().into();
        columns = agg_columns;
        variables = if query.projections.is_empty() {
            bound_names(&columns, &rows)
        } else {
            projection_names(query)
        };
        op = maybe_span_id(Box::new(ReplayOp::new(rows)), "aggregate", spans);
    } else if query.projections.is_empty() {
        // SELECT *: the header (variables bound in at least one row,
        // sorted) is data-dependent, so the id rows materialize first.
        let id_rows = drain(op.as_mut(), &mut cx)?;
        variables = bound_names(&columns, &id_rows);
        op = Box::new(ReplayOp::new(id_rows));
    } else {
        variables = projection_names(query);
    }

    // Solution modifiers in SPARQL 1.1's order (§18.5): ORDER BY →
    // projection → DISTINCT → OFFSET/LIMIT, then the ASK gate. Sorting
    // whole rows before projection lets a key outside the projection
    // order the result. For projected keys the output is what sorting
    // after DISTINCT gives: all copies of a projected row carry the same
    // keys, so they fall in one tie group, which a stable sort keeps in
    // input order — DISTINCT then keeps the same first copy, in the same
    // place among the distinct rows.
    if !query.order_by.is_empty() {
        let keys = query
            .order_by
            .iter()
            .map(|k| SortKey {
                column: column(&columns, &k.var),
                descending: k.descending,
            })
            .collect();
        op = maybe_span_id(Box::new(OrderByOp::new(op, keys)), "orderby", spans);
    }
    let projected = variables.iter().map(|v| column(&columns, v)).collect();
    op = maybe_span_id(Box::new(ProjectOp::new(op, projected)), "project", spans);
    if query.distinct {
        op = maybe_span_id(Box::new(DistinctOp::new(op)), "distinct", spans);
    }
    if query.offset > 0 || query.limit.is_some() {
        op = maybe_span_id(
            Box::new(SliceOp::new(op, query.offset, query.limit)),
            "slice",
            spans,
        );
    }
    if query.form == QueryForm::Ask {
        op = maybe_span_id(Box::new(AskGateOp::new(op)), "ask", spans);
    }

    Ok(Built { cx, op, variables })
}

// ----------------------------------------------------------- execution --

/// A streaming query result: the projected header plus its solution
/// rows, pulled on demand through the physical plan.
///
/// Yielded by [`PreparedQuery::rows`](crate::PreparedQuery::rows).
/// Rows come out in two forms over the same stream:
/// [`try_for_each_row`](Self::try_for_each_row) lends each row's terms
/// straight from the graph (what the endpoint's result writers take),
/// and the [`Iterator`] impl decodes each row into owned [`Bindings`].
/// Draining either produces exactly the rows (and, on over-budget
/// queries, exactly the error) that `select()` returns — `select()` is
/// literally a collect over the iterator. Stopping early is the point:
/// dropping a partially-consumed `Rows` abandons the remaining scans,
/// releases the deadline/row-budget accounting that lived inside it,
/// and still records its metrics exactly once.
///
/// After the first `Err` (or the end of the stream) the stream is
/// fused: every later pull yields nothing.
pub struct Rows<'g> {
    cx: ExecCtx<'g>,
    op: BoxIdOp<'g>,
    variables: Vec<String>,
    /// The current row: one id per variable, in `variables` order.
    row: IdRow,
    registry: Option<&'g Registry>,
    started: Instant,
    emitted: u64,
    finished: bool,
    recorded: bool,
}

impl<'g> Rows<'g> {
    /// The projected variable names, in projection order — available
    /// before any row is pulled (for `SELECT *` the header was computed
    /// at plan time).
    pub fn variables(&self) -> &[String] {
        &self.variables
    }

    /// Call `f` with each remaining row, as one term per variable in
    /// [`variables`](Self::variables) order (`None` where unbound). The
    /// terms are borrowed, never cloned; the slice is only valid for
    /// the call. Stops at the first evaluation error and returns it.
    pub fn try_for_each_row(
        &mut self,
        mut f: impl FnMut(&[Option<&Term>]),
    ) -> Result<(), QueryError> {
        let graph = self.cx.graph;
        let computed = Rc::clone(&self.cx.computed);
        let mut cells = Vec::with_capacity(self.variables.len());
        while self.advance()? {
            cells.clear();
            cells.extend(self.row.iter().map(|&id| decode(graph, &computed, id)));
            f(&cells);
        }
        Ok(())
    }

    /// Pull the next row into `self.row`; `false` at the end.
    fn advance(&mut self) -> Result<bool, QueryError> {
        if self.finished {
            return Ok(false);
        }
        match self.op.next(&mut self.cx, &mut self.row) {
            Ok(true) => {
                self.emitted += 1;
                Ok(true)
            }
            Ok(false) => {
                self.finished = true;
                self.finalize("ok");
                Ok(false)
            }
            Err(e) => {
                self.finished = true;
                self.finalize(outcome_of(&e));
                Err(e)
            }
        }
    }

    fn finalize(&mut self, outcome: &'static str) {
        if self.recorded {
            return;
        }
        self.recorded = true;
        if let Some(registry) = self.registry {
            record(registry, self.started.elapsed(), outcome, self.emitted);
        }
    }
}

/// Decodes each row into owned [`Bindings`] (unbound variables absent).
impl<'g> Iterator for Rows<'g> {
    type Item = Result<Bindings, QueryError>;

    fn next(&mut self) -> Option<Self::Item> {
        match self.advance() {
            Ok(true) => {
                let mut b = Bindings::new();
                for (name, &id) in self.variables.iter().zip(&self.row) {
                    if let Some(t) = self.cx.term(id) {
                        b.insert(name.clone(), t.clone());
                    }
                }
                Some(Ok(b))
            }
            Ok(false) => None,
            Err(e) => Some(Err(e)),
        }
    }
}

impl<'g> Drop for Rows<'g> {
    fn drop(&mut self) {
        // A partially-consumed stream still records exactly once; rows
        // that were pulled count, abandoned work does not.
        self.finalize("ok");
    }
}

fn outcome_of(e: &QueryError) -> &'static str {
    match e {
        QueryError::Timeout(_) => "timeout",
        _ => "error",
    }
}

fn record(registry: &Registry, elapsed: Duration, outcome: &'static str, emitted: u64) {
    registry
        .histogram(
            EVAL_SECONDS,
            "Query evaluation wall-clock time",
            LATENCY_BUCKETS,
        )
        .observe_duration(elapsed);
    registry
        .counter_with(
            EVALS_TOTAL,
            "Query evaluations by outcome",
            &[("result", outcome)],
        )
        .inc();
    registry
        .counter(
            ROWS_EMITTED_TOTAL,
            "Solution rows emitted by query evaluations",
        )
        .add(emitted);
}

/// Build the physical plan for `query` and return its streaming
/// [`Rows`]. Metrics (evaluation latency, outcome, rows emitted) are
/// recorded into `metrics` exactly once per call — at exhaustion,
/// error, or drop; a failure during plan construction records here.
pub(crate) fn rows<'g>(
    graph: &'g Graph,
    query: &Query,
    opts: &EvalOptions,
    metrics: Option<&'g Registry>,
) -> Result<Rows<'g>, QueryError> {
    let started = Instant::now();
    match build(graph, query, opts, metrics) {
        Ok(built) => Ok(Rows {
            cx: built.cx,
            op: built.op,
            variables: built.variables,
            row: IdRow::new(),
            registry: metrics,
            started,
            emitted: 0,
            finished: false,
            recorded: false,
        }),
        Err(e) => {
            if let Some(registry) = metrics {
                record(registry, started.elapsed(), outcome_of(&e), 0);
            }
            Err(e)
        }
    }
}

/// Evaluate to a fully-materialized [`Solutions`]: a collect over
/// [`rows`].
pub(crate) fn solutions(
    graph: &Graph,
    query: &Query,
    opts: &EvalOptions,
    metrics: Option<&Registry>,
) -> Result<Solutions, QueryError> {
    let mut stream = rows(graph, query, opts, metrics)?;
    let variables = stream.variables().to_vec();
    let mut out = Vec::new();
    for row in &mut stream {
        out.push(row?);
    }
    Ok(Solutions {
        variables,
        rows: out,
    })
}

// ------------------------------------------------------------- explain --

fn render_s(p: &VarOrTerm) -> String {
    match p {
        VarOrTerm::Var(v) => format!("?{v}"),
        VarOrTerm::Term(t) => t.to_string(),
    }
}

fn render_p(p: &VarOrIri) -> String {
    match p {
        VarOrIri::Var(v) => format!("?{v}"),
        VarOrIri::Iri(i) => i.to_string(),
    }
}

/// Render the physical operator tree without graph statistics (the
/// planner falls back to structural selectivity). Prefer
/// [`explain_on`], which annotates operators with real estimates.
#[cfg(test)]
pub(crate) fn explain(query: &Query, opts: &EvalOptions) -> String {
    explain_impl(None, query, opts)
}

/// Render the physical operator tree the plan layer would execute for
/// `query` against `graph`: pipeline stages in execution order (BGP
/// joins in planner order, each annotated with its cardinality
/// estimate), then the solution operators with their pushdown notes.
pub(crate) fn explain_on(graph: &Graph, query: &Query, opts: &EvalOptions) -> String {
    explain_impl(Some(graph), query, opts)
}

fn explain_impl(graph: Option<&Graph>, query: &Query, opts: &EvalOptions) -> String {
    let mut out = String::new();
    let form = match query.form {
        QueryForm::Select => "SELECT",
        QueryForm::Ask => "ASK",
    };
    out.push_str(&format!(
        "{form} plan (planner {}):\n",
        if opts.reorder_patterns { "on" } else { "off" }
    ));
    let mut leading = true;
    render_pattern(&query.pattern, 1, &mut leading, graph, opts, &mut out);
    let has_aggs = query.has_aggregates() || !query.group_by.is_empty();
    if has_aggs {
        if query.group_by.is_empty() {
            out.push_str("  Aggregate (materializes)\n");
        } else {
            out.push_str(&format!(
                "  Aggregate GroupBy {:?} (materializes)\n",
                query.group_by
            ));
        }
    }
    if !query.order_by.is_empty() {
        out.push_str(&format!(
            "  OrderBy {:?} (materializes)\n",
            query.order_by.iter().map(|k| &k.var).collect::<Vec<_>>()
        ));
    }
    if query.form == QueryForm::Select {
        if query.projections.is_empty() && !has_aggs {
            out.push_str("  Project * (materializes: header is data-dependent)\n");
        } else {
            out.push_str(&format!("  Project {:?}\n", projection_names(query)));
        }
    }
    if query.distinct {
        out.push_str("  Distinct (streamed)\n");
    }
    if query.offset > 0 {
        out.push_str(&format!("  Offset {}\n", query.offset));
    }
    if let Some(l) = query.limit {
        if query.order_by.is_empty() && !has_aggs {
            out.push_str(&format!(
                "  Limit {l} (pushed: stops the scan after {l} rows)\n"
            ));
        } else {
            out.push_str(&format!("  Limit {l}\n"));
        }
    }
    if query.form == QueryForm::Ask {
        out.push_str("  AskGate (first row short-circuits)\n");
    }
    out
}

fn render_pattern(
    p: &GraphPattern,
    depth: usize,
    leading: &mut bool,
    graph: Option<&Graph>,
    opts: &EvalOptions,
    out: &mut String,
) {
    let pad = "  ".repeat(depth);
    match p {
        GraphPattern::Basic(tps) => {
            let mut names = VarTable::default();
            let plan_tps: Vec<PlanTp> = tps
                .iter()
                .map(|tp| plan_tp_of_ast(tp, graph, &mut names))
                .collect();
            let order: Vec<(usize, u64)> = if opts.reorder_patterns {
                plan_bgp(&plan_tps)
            } else {
                plan_tps
                    .iter()
                    .enumerate()
                    .map(|(i, tp)| (i, estimate(tp, 0)))
                    .collect()
            };
            for (idx, est) in order {
                let tp = &tps[idx];
                let name = if *leading { "Scan" } else { "IndexedJoin" };
                *leading = false;
                out.push_str(&format!(
                    "{pad}{name} {} {} {}",
                    render_s(&tp.subject),
                    render_p(&tp.predicate),
                    render_s(&tp.object),
                ));
                if graph.is_some() {
                    out.push_str(&format!("  (est ~{est} rows)"));
                }
                out.push('\n');
            }
        }
        GraphPattern::Group(elems) => {
            // Nested groups flatten onto the pipeline spine.
            for e in elems {
                render_pattern(e, depth, leading, graph, opts, out);
            }
        }
        GraphPattern::Optional(inner) => {
            out.push_str(&format!("{pad}Optional (per-row probe)\n"));
            let mut inner_leading = false;
            render_pattern(inner, depth + 1, &mut inner_leading, graph, opts, out);
            *leading = false;
        }
        GraphPattern::Union(l, r) => {
            out.push_str(&format!("{pad}Union (drains input; left arm then right)\n"));
            let mut arm = false;
            render_pattern(l, depth + 1, &mut arm, graph, opts, out);
            let mut arm = false;
            render_pattern(r, depth + 1, &mut arm, graph, opts, out);
            *leading = false;
        }
        GraphPattern::Filter(_) => {
            out.push_str(&format!("{pad}Filter\n"));
        }
    }
}
