"""Logical plan nodes for the comprehension-to-dataflow compiler.

The :class:`~repro.algebra.evaluator.TermEvaluator` no longer emits
:class:`~repro.runtime.dataset.Dataset` operations directly while walking a
comprehension's qualifiers: it builds a tree of :class:`PlanNode`\\ s -- the
**logical plan** -- which the :class:`~repro.algebra.planner.Planner`
annotates and lowers to Dataset operations in a separate pass.  Splitting
"what dataflow the comprehension denotes" from "how the runtime executes it"
is what enables the partition-aware optimizations of this layer:

* **partitioner propagation** -- group-by/reduce-by-key nodes know which
  key *term* their output rows are placed by; let/condition nodes are
  key-transparent; when the comprehension head rebuilds ``(key, value)``
  pairs keyed by that same term, the planner threads the partitioner through
  the whole chain so downstream merges/joins can skip their shuffles;
* **loop-invariant signatures** -- every node carries an ``invariant`` flag
  (its subtree's value cannot change across iterations of the enclosing
  ``while`` loop) and a structural signature built from the IR terms it was
  compiled from; the planner uses the signature as a cache key so invariant
  join sides and scans are evaluated (and shuffled) once per loop instead of
  once per iteration;
* **common sub-expressions** -- two plan nodes built from the same
  comprehension sub-term share one Dataset at lowering time (the evaluator
  memoizes domain datasets per statement), so the sub-term is computed once.

Nodes hold the IR terms and patterns they were compiled from (plus the few
per-row closures that are not generated: row expansions and products) and
the planner metadata (invariance, placement).  The planner turns each run of
bind / let / filter / head nodes -- together with the keying and rebuild
steps around wide nodes -- into one generated per-partition function (see
:mod:`repro.algebra.codegen`); a run that the context's ``columnar`` mode
batches keeps one stage per node, each node's ``kernel`` carrying a generated
one-step function as its record-path oracle.

``render_plan`` pretty-prints a plan tree; the planner adds per-node
decisions (cache hits, eliminated shuffles, chosen strategies) as
annotations.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable

from repro.comprehension import ir

# ---------------------------------------------------------------------------
# Plan nodes
# ---------------------------------------------------------------------------


@dataclass(eq=False)
class PlanNode:
    """Base class of logical plan nodes.

    Attributes:
        invariant: True when the subtree's value is independent of the
            enclosing while-loop's mutated variables (set at build time by
            the evaluator; meaningless outside a loop).
        sig: the node's *local* signature component -- a hashable tuple over
            IR terms/patterns identifying what this node computes, or None
            when the node cannot be identified structurally.  The full
            subtree signature is :meth:`signature`.
        row_key_term: the IR term by whose (per-row) value this node's output
            rows are placed across partitions, or None when placement is
            unknown.  Filled in by the planner's annotate pass.
        notes: planner decision annotations, rendered by ``render_plan``.
        rows: the keys, in insertion order, of the dict rows this node emits
            (empty for nodes that do not emit rows: scans and heads).
        bindings: the :class:`~repro.algebra.codegen.Bindings` generated
            functions over this node close over (None for scans).
        generated: the functions the planner generated for the row chains
            ending at this node, for ``render_plan(sources=True)``.
    """

    invariant: bool = field(default=False, init=False)
    sig: tuple | None = field(default=None, init=False)
    row_key_term: ir.Term | None = field(default=None, init=False)
    notes: list[str] = field(default_factory=list, init=False)
    rows: tuple[str, ...] = field(default=(), init=False)
    bindings: Any = field(default=None, init=False)
    generated: list[Any] = field(default_factory=list, init=False)

    @property
    def children(self) -> tuple["PlanNode", ...]:
        return ()

    @property
    def label(self) -> str:
        return type(self).__name__

    def signature(self) -> tuple | None:
        """The full structural signature of the subtree (a loop-cache key),
        or None when any node in it is not invariant / not identifiable."""
        if not self.invariant or self.sig is None:
            return None
        child_signatures = []
        for child in self.children:
            child_signature = child.signature()
            if child_signature is None:
                return None
            child_signatures.append(child_signature)
        return (self.sig, tuple(child_signatures))


@dataclass(eq=False)
class ScanNode(PlanNode):
    """A leaf over an already-available runtime Dataset.

    ``term`` is the comprehension sub-term the dataset came from (a program
    variable, a range, a nested comprehension already lowered by the
    evaluator); it drives the CSE and loop-invariance machinery.
    """

    dataset: Any
    term: ir.Term | None = None
    name: str = ""

    @property
    def label(self) -> str:
        tag = self.name or (str(self.term) if self.term is not None else "dataset")
        return f"Scan[{tag}]"


#: Narrow node kinds (mirror the Dataset methods they lower to).
MAP = "map"
FLAT_MAP = "flat_map"
FILTER = "filter"


@dataclass(eq=False)
class NarrowNode(PlanNode):
    """A per-row operation: map / flat_map / filter over the child's rows.

    ``sig`` names the operation: ``("bind", pattern)``, ``("let", pattern,
    term)``, ``("filter", term)`` and ``("head", term)`` nodes are lowered
    from those terms (``kernel`` is their columnar batch kernel, when one
    exists); the row expansions (``kind == FLAT_MAP``) carry their record
    ``function``.  ``key_transparent`` marks operations that neither drop
    nor rebind rows (lets, conditions, group-by rebuilds): they preserve the
    child's ``row_key_term`` placement.  ``head_key_term`` is set on the final
    head-projection map of a comprehension whose head is a ``(key, value)``
    pair: when it equals the incoming ``row_key_term`` the planner lowers the
    whole chain with ``preserves_partitioning=True``.
    """

    kind: str = MAP
    function: Callable[..., Any] | None = None
    kernel: Any = None
    child: PlanNode | None = None
    describe: str = ""
    key_transparent: bool = False
    head_key_term: ir.Term | None = None
    #: Row variables this node (re)binds -- a let rebinding a variable the
    #: incoming ``row_key_term`` mentions invalidates the placement claim
    #: (the rows stay placed by the *old* value).
    binds: tuple[str, ...] = ()
    #: Set by the planner: lower with preserves_partitioning=True.
    carry_partitioner: bool = field(default=False, init=False)

    @property
    def children(self) -> tuple[PlanNode, ...]:
        return (self.child,) if self.child is not None else ()

    @property
    def label(self) -> str:
        suffix = f" {self.describe}" if self.describe else ""
        return f"{self.kind.capitalize().replace('_', '')}{suffix}"


@dataclass(eq=False)
class HashJoinNode(PlanNode):
    """An equi-join of the rows built so far with a new generator's dataset.

    ``left``/``right`` produce the two inputs; ``left_key_terms`` (over the
    rows built so far) and ``right_key_terms`` (over the variables ``pattern``
    binds from a scanned element) are the join-key expressions.  A joined
    pair is merged back into one row dict: the left row extended by the
    pattern's bindings.
    """

    left: PlanNode
    right: PlanNode
    left_key_terms: tuple[ir.Term, ...] = ()
    right_key_terms: tuple[ir.Term, ...] = ()
    pattern: ir.Pattern = ir.PWildcard()
    domain_label: str = ""
    #: Set by the planner: the side's keying map keeps an already-correct
    #: placement (the records are hash-placed by the single join key), so the
    #: join lowers to a narrow or map-side-bypassed shuffle.
    left_prepartitioned: bool = field(default=False, init=False)
    right_prepartitioned: bool = field(default=False, init=False)

    @property
    def children(self) -> tuple[PlanNode, ...]:
        return (self.left, self.right)

    @property
    def label(self) -> str:
        keys = ", ".join(str(term) for term in self.right_key_terms)
        return f"HashJoin[{self.domain_label} on ({keys})]"


@dataclass(eq=False)
class ProductNode(PlanNode):
    """A no-key nested-loop combination of rows with a generator's dataset.

    Lowered as a broadcast of the smaller side when it fits under the
    context's ``broadcast_join_threshold`` (plan-time strategy selection),
    as a cartesian shuffle otherwise.
    """

    left: PlanNode
    right: PlanNode
    bind_right_fn: Callable[[Any], dict]
    domain_label: str = ""

    @property
    def children(self) -> tuple[PlanNode, ...]:
        return (self.left, self.right)

    @property
    def label(self) -> str:
        return f"Product[{self.domain_label}]"


@dataclass(eq=False)
class ReduceByKeyNode(PlanNode):
    """An aggregation-only group-by compiled to keyBy + reduceByKey + rebuild.

    Rows are keyed ``(key_term, row[value_name])``; a reduced pair is rebuilt
    into a row binding ``pattern`` to the key and ``value_name`` to the
    pre-aggregated value.  ``key_kernel`` is the keying map's batch kernel,
    when one exists.  ``pattern_term`` (the group-by pattern read as a term)
    is the key term the *output rows* are placed by -- the anchor of
    partitioner propagation.
    """

    child: PlanNode
    combine_fn: Callable[[Any, Any], Any]
    key_term: ir.Term
    pattern: ir.Pattern
    value_name: str
    pattern_term: ir.Term
    monoid_op: str = ""
    key_kernel: Any = None
    #: Set by the planner: the keying map keeps an already-correct placement.
    input_prepartitioned: bool = field(default=False, init=False)
    #: Set by the planner: carry the output partitioner through the rebuild.
    carry_partitioner: bool = field(default=False, init=False)

    @property
    def children(self) -> tuple[PlanNode, ...]:
        return (self.child,)

    @property
    def label(self) -> str:
        return f"ReduceByKey[{self.monoid_op} by {self.key_term}]"


@dataclass(eq=False)
class GroupByKeyNode(PlanNode):
    """A general group-by compiled to keyBy + groupByKey + lift: a group
    becomes a row binding ``pattern`` to the key and every ``lifted``
    variable to the bag of its values in the group."""

    child: PlanNode
    key_term: ir.Term
    pattern: ir.Pattern
    lifted: tuple[str, ...]
    pattern_term: ir.Term
    input_prepartitioned: bool = field(default=False, init=False)
    carry_partitioner: bool = field(default=False, init=False)

    @property
    def children(self) -> tuple[PlanNode, ...]:
        return (self.child,)

    @property
    def label(self) -> str:
        return f"GroupByKey[by {self.key_term}]"


# ---------------------------------------------------------------------------
# Rendering
# ---------------------------------------------------------------------------


def render_plan(node: PlanNode, sources: bool = False) -> str:
    """Pretty-print a plan tree with the planner's per-node annotations
    (and, with ``sources``, the text of every generated function)."""
    lines: list[str] = []
    _render_into(node, lines, 0, sources)
    return "\n".join(lines)


def _render_into(node: PlanNode, lines: list[str], depth: int, sources: bool) -> None:
    pad = "  " * depth
    flags = []
    if node.invariant:
        flags.append("loop-invariant")
    if node.row_key_term is not None:
        flags.append(f"partitioned-by={node.row_key_term}")
    tag = f" [{', '.join(flags)}]" if flags else ""
    lines.append(f"{pad}{node.label}{tag}")
    for note in node.notes:
        lines.append(f"{pad}  * {note}")
    if sources:
        for function in node.generated:
            lines.extend(f"{pad}  | {line}" for line in function.source.splitlines())
    for child in node.children:
        _render_into(child, lines, depth + 1, sources)
