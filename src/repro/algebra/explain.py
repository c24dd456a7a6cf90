"""Plan explanation: which DISC operations a comprehension compiles to.

``explain_term`` performs a *dry* structural analysis of a term (no data is
needed) and reports the shuffle-relevant operations the evaluator will emit:
dataset scans, hash joins, broadcast nested-loop joins, group-bys /
reduceByKeys and coGroup merges.  The join and group-by decisions come from
:func:`repro.translate.facts.plan_shape`, the same classifiers the evaluator
runs.  Tests use it to show that the generated plans have the shapes the
paper describes (e.g. matrix multiply = one join + one reduceByKey; the
DIABLO KMeans step pairs every point with every centroid, which the
hand-written version does by broadcasting).

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
from repro.translate import facts


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
    shape = facts.plan_shape(comp, arrays)
    for position, qualifier in enumerate(comp.qualifiers):
        for term in qualifier.terms():
            _explain(term, arrays, summary)
        decision = shape.get(position)
        if isinstance(qualifier, ir.Generator) and decision is not None:
            domain = qualifier.domain
            if isinstance(domain, ir.RangeTerm):
                summary.ranges += 1
            else:
                summary.scans.append(domain.name)
        if decision == "hash-join":
            summary.hash_joins += 1
        elif decision == "product":
            summary.broadcast_joins += 1
        elif decision == "reduceByKey":
            summary.reduce_by_keys += 1
        elif decision == "groupByKey":
            summary.group_bys += 1
    _explain(comp.head, arrays, summary)


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
        lines.append(f"stored-plan reuses: {metrics.plan_cache_hits}")
    if metrics.adaptive_decisions or metrics.salted_keys:
        lines.append(
            f"adaptive decisions: {metrics.adaptive_decisions} "
            f"(salted hot keys: {metrics.salted_keys})"
        )
        for entry in metrics.adaptive_log:
            lines.append(
                f"  {entry['operation']} [{entry['kind']}]: {entry['reason']}"
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
