"""Plan explanation: which DISC operations a comprehension compiles to.

``explain_term`` performs a *dry* structural analysis of a term (no data is
needed) and reports the shuffle-relevant operations the evaluator will emit:
dataset scans, hash joins, broadcast nested-loop joins, group-bys /
reduceByKeys and coGroup merges.  Tests and EXPERIMENTS.md use it to show that
the generated plans have the shapes the paper describes (e.g. matrix multiply
= one join + one reduceByKey; the DIABLO KMeans step contains a join with the
centroid array that the hand-written version avoids by broadcasting).

Three runtime-facing companions cover what static analysis cannot know:
``explain_plan`` renders the partition-aware logical plan the evaluator
builds for a comprehension (see :mod:`repro.algebra.plan`), including the
planner's per-node decisions; ``explain_dataset`` renders a lazy Dataset's
physical plan (its pending :class:`~repro.runtime.stage.ShuffleStage` nodes
and fused narrow chains, plus shuffle-elimination notes); and
``explain_metrics`` formats the execution counters -- shuffle stages,
records/bytes moved, combiner hit rate, the join strategies the planner
actually chose, and **which shuffles were eliminated and why** (narrow
co-partitioned passes, pre-partitioned map-side bypasses, loop-invariant
reuses).
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.algebra import plan as plan_mod
from repro.comprehension import ir
from repro.runtime.dataset import Dataset
from repro.runtime.metrics import Metrics


@dataclass
class PlanSummary:
    """Structural summary of the dataflow for one term."""

    scans: list[str] = field(default_factory=list)
    hash_joins: int = 0
    broadcast_joins: int = 0
    group_bys: int = 0
    reduce_by_keys: int = 0
    merges: int = 0
    ranges: int = 0

    @property
    def shuffle_operations(self) -> int:
        """Operations that move data across partitions."""
        return self.hash_joins + self.group_bys + self.reduce_by_keys + self.merges

    @property
    def shuffle_stages(self) -> int:
        """Alias aligned with the runtime's ShuffleStage terminology: every
        shuffle operation executes as one :class:`ShuffleStage` plan node
        (hash joins may still resolve to a broadcast at force time)."""
        return self.shuffle_operations

    def lines(self) -> list[str]:
        entries = [f"scan {name}" for name in self.scans]
        entries += [f"hash joins: {self.hash_joins}"]
        entries += [f"broadcast joins: {self.broadcast_joins}"]
        entries += [f"groupByKey: {self.group_bys}", f"reduceByKey: {self.reduce_by_keys}"]
        entries += [f"coGroup merges: {self.merges}", f"range scans: {self.ranges}"]
        entries += [f"shuffle stages: {self.shuffle_stages}"]
        return entries

    def __str__(self) -> str:
        return "\n".join(self.lines())


def explain_term(term: ir.Term, array_variables: set[str]) -> PlanSummary:
    """Statically summarize the dataflow the evaluator will build for ``term``."""
    summary = PlanSummary()
    _explain(term, array_variables, summary)
    return summary


def _explain(term: ir.Term, arrays: set[str], summary: PlanSummary) -> None:
    if isinstance(term, ir.Merge) or isinstance(term, ir.MergeWith):
        summary.merges += 1
        _explain(term.left, arrays, summary)
        _explain(term.right, arrays, summary)
        return
    if isinstance(term, ir.Comprehension):
        _explain_comprehension(term, arrays, summary)
        return
    for child in term.children():
        _explain(child, arrays, summary)


def _explain_comprehension(comp: ir.Comprehension, arrays: set[str], summary: PlanSummary) -> None:
    bound: set[str] = set()
    dataset_generators = 0
    qualifiers = list(comp.qualifiers)
    for position, qualifier in enumerate(qualifiers):
        if isinstance(qualifier, ir.Generator):
            domain = qualifier.domain
            _explain(domain, arrays, summary)
            is_dataset = isinstance(domain, ir.CVar) and domain.name in arrays
            if isinstance(domain, ir.RangeTerm):
                summary.ranges += 1
                is_dataset = True
            if is_dataset:
                if isinstance(domain, ir.CVar):
                    summary.scans.append(domain.name)
                dataset_generators += 1
                if dataset_generators > 1:
                    if _has_join_condition(qualifiers, position, bound, set(qualifier.pattern.variables())):
                        summary.hash_joins += 1
                    else:
                        summary.broadcast_joins += 1
            bound.update(qualifier.pattern.variables())
        elif isinstance(qualifier, ir.LetBinding):
            _explain(qualifier.term, arrays, summary)
            bound.update(qualifier.pattern.variables())
        elif isinstance(qualifier, ir.Condition):
            _explain(qualifier.term, arrays, summary)
        elif isinstance(qualifier, ir.GroupBy):
            post = qualifiers[position + 1 :]
            if _is_aggregation_only(comp.head, post, qualifier, bound):
                summary.reduce_by_keys += 1
            else:
                summary.group_bys += 1
            bound.update(qualifier.pattern.variables())
    _explain(comp.head, arrays, summary)


def _has_join_condition(
    qualifiers: list[ir.Qualifier], position: int, bound: set[str], new_variables: set[str]
) -> bool:
    for later in qualifiers[position + 1 :]:
        if isinstance(later, ir.GroupBy):
            return False
        if not isinstance(later, ir.Condition):
            continue
        term = later.term
        if not (isinstance(term, ir.CBinOp) and term.op == "=="):
            continue
        left_vars = ir.free_variables(term.left)
        right_vars = ir.free_variables(term.right)
        for one, other in ((left_vars, right_vars), (right_vars, left_vars)):
            if one & bound and other & new_variables and not (one & new_variables):
                return True
    return False


def _is_aggregation_only(
    head: ir.Term, post: list[ir.Qualifier], group_by: ir.GroupBy, bound: set[str]
) -> bool:
    if post:
        return False
    if not isinstance(head, ir.CTuple) or len(head.elements) != 2:
        return False
    value_part = head.elements[1]
    return isinstance(value_part, ir.Aggregate) and isinstance(value_part.operand, ir.CVar)


# ---------------------------------------------------------------------------
# Runtime-facing explanation
# ---------------------------------------------------------------------------


def explain_plan(node: plan_mod.PlanNode, sources: bool = False) -> str:
    """Render a logical plan tree with the planner's per-node decisions.

    Plans are exposed by :attr:`TermEvaluator.last_plan` after a
    comprehension evaluates; nodes show loop-invariance, the key term their
    rows are partitioned by, and annotations such as cached join sides,
    preserved partitioners and the row segments that were lowered to one
    generated function (``sources=True`` prints the generated text).
    """
    return plan_mod.render_plan(node, sources)


def explain_dataset(dataset: Dataset, sources: bool = False) -> str:
    """The physical plan of a (possibly pending) runtime Dataset.

    Delegates to :meth:`Dataset.explain`: shuffle stages with their strategy,
    output partitioning and combiner, plus the fused narrow chains feeding
    them and what each generated stage in them stands for.
    """
    return dataset.explain(sources)


def explain_metrics(metrics: Metrics) -> list[str]:
    """Format the execution counters a run actually produced.

    Reports the shuffle-stage breakdown (records and estimated bytes moved,
    map/reduce task counts), the map-side combiner hit rate, the join
    strategies the planner chose, and every shuffle the partition-aware
    planner eliminated (with the reason) -- the dynamic complement of the
    static ``explain_term`` summary.
    """
    lines = [
        f"shuffle stages: {metrics.shuffles} "
        f"({metrics.shuffled_records} records, {metrics.shuffled_bytes} bytes moved)",
        f"shuffle tasks: {metrics.shuffle_map_tasks} map, {metrics.shuffle_reduce_tasks} reduce",
    ]
    for operation, count in sorted(metrics.shuffle_operations.items()):
        lines.append(f"  {operation}: {count}")
    if metrics.shuffles_eliminated or metrics.prepartitioned_inputs:
        lines.append(
            f"shuffles eliminated: {metrics.shuffles_eliminated} "
            f"(narrow joins: {metrics.narrow_joins}, "
            f"pre-partitioned map sides skipped: {metrics.prepartitioned_inputs})"
        )
        for entry in metrics.elimination_log:
            lines.append(
                f"  {entry['operation']} [{entry['kind']}]: {entry['reason']}"
            )
    if metrics.generated_segments:
        lines.append(f"generated row segments: {metrics.generated_segments}")
    if metrics.loop_invariant_reuses:
        lines.append(f"loop-invariant reuses: {metrics.loop_invariant_reuses}")
    if metrics.plan_cache_hits:
        lines.append(f"plan-skeleton cache hits: {metrics.plan_cache_hits}")
    if metrics.adaptive_decisions or metrics.salted_keys:
        lines.append(
            f"adaptive decisions: {metrics.adaptive_decisions} "
            f"(salted hot keys: {metrics.salted_keys})"
        )
        for entry in metrics.adaptive_log:
            lines.append(
                f"  {entry['operation']} [{entry['kind']}]: {entry['reason']}"
            )
    if metrics.vectorized_stages or metrics.columnar_fallbacks:
        lines.append(
            f"vectorized stages: {metrics.vectorized_stages} "
            f"(record-path fallbacks: {metrics.columnar_fallbacks})"
        )
        if (
            metrics.columnar_memoized_skips
            or metrics.columnar_resident_reuses
            or metrics.columnar_vector_bucket_tasks
        ):
            lines.append(
                f"  batch runtime: {metrics.columnar_memoized_skips} memoized "
                f"fallback skip(s), {metrics.columnar_resident_reuses} resident "
                f"partition reuse(s), {metrics.columnar_vector_bucket_tasks} "
                f"vectorized bucket task(s)"
            )
    if metrics.combiner_input_records:
        lines.append(
            f"combiner: {metrics.combiner_input_records} -> "
            f"{metrics.combiner_output_records} records "
            f"(hit rate {metrics.combiner_hit_rate:.1%})"
        )
    if metrics.spill_files:
        lines.append(
            f"spill: {metrics.spilled_bytes} bytes in {metrics.spill_files} files "
            f"(peak shuffle memory {metrics.peak_shuffle_memory} bytes)"
        )
    if metrics.join_strategies:
        chosen = ", ".join(
            f"{strategy}={count}" for strategy, count in sorted(metrics.join_strategies.items())
        )
        lines.append(f"join strategies: {chosen}")
    lines.append(f"parallel tasks dispatched: {metrics.parallel_tasks}")
    if metrics.resident_partition_reuses or metrics.driver_pushed_bytes:
        lines.append(
            f"cluster records through the driver: {metrics.driver_payload_bytes} shuffle-payload "
            f"bytes, {metrics.driver_pushed_bytes} bytes pushed, "
            f"{metrics.driver_fetched_bytes} bytes read in {metrics.driver_fetches} fetch(es); "
            f"{metrics.resident_partition_reuses} task input(s) already resident"
        )
    return lines
