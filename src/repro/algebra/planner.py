"""The partition-aware planner: annotates and lowers logical plans.

The :class:`Planner` consumes the :class:`~repro.algebra.plan.PlanNode` trees
built by the :class:`~repro.algebra.evaluator.TermEvaluator` and produces
runtime :class:`~repro.runtime.dataset.Dataset` dataflows.  Wide nodes lower
to the Dataset operators of the same name; every run of narrow row operators
between them -- bind, lets, filters, the head, and the keying / rebuild steps
the wide nodes need -- lowers to **one** generated per-partition function
(:meth:`Planner._lower_chain`, :mod:`repro.algebra.codegen`), unless the
context's ``columnar`` mode batches the run (every operator has a kernel),
in which case each operator stays its own kernel stage.  A generated run
never materialises what the next operator folds: the run feeding a
``reduceByKey(⊕)`` folds by key inside its loop, and the run after a hash
join *is* the join's consumer -- it receives the co-grouped sides inside the
join task, so the joined pairs are never built.  Beyond that the planner
makes the *decisions* a direct emission could not:

* **partitioner propagation** (:meth:`Planner.annotate`): group-by nodes
  place their output rows by the group key term; key-transparent nodes
  (lets, conditions, rebuilds) pass that placement along; when the
  comprehension head re-keys its output pairs by the same term, the chain is
  lowered with ``preserves_partitioning=True`` and the runtime's
  partitioner metadata survives -- enabling the Dataset layer's narrow
  (shuffle-free) fast paths for every downstream merge, join and group-by
  over the same key.
* **plan-time join strategy** (:meth:`Planner._product`): the no-join-key
  nested loop picks broadcast vs. cartesian by comparing the materialized
  side sizes against ``context.broadcast_join_threshold`` -- the same knob
  the runtime's hash joins use.  Whichever it picks, the product is the
  first step of the generated run above it: no joined row is built for a
  later stage to unpack.
* **per-side steps below the join** (:func:`_push_below`): the filters and
  one-variable lets right above a hash join that read one side only, in a
  fragment that cannot raise or call out, move into that side's keying run
  and run once per record of the side instead of once per joined pair.
* **slot rows** (:func:`_live`): a generated run feeding another one emits
  the flat tuple of the variables the next run reads before binding them,
  unpacked there positionally.  Only columnar kernels still pass dict rows.
* **loop-invariant caching**: subtrees whose :meth:`PlanNode.signature` is
  defined (structurally identifiable *and* independent of every variable the
  enclosing ``while`` body assigns) are looked up in the loop's
  :class:`LoopInvariantCache`.  A hash-join side built from invariant data
  is keyed, materialized and -- when too big to broadcast -- hash-partitioned
  *once*; iterations 2+ reuse the placed dataset, so only the mutated side
  of the join is ever re-shuffled (``metrics.loop_invariant_reuses`` counts
  the hits).
"""

from __future__ import annotations

import dataclasses
import functools
from typing import Any, Callable, NamedTuple

from repro.algebra import codegen, vectorize
from repro.algebra.plan import (
    FILTER,
    MAP,
    GroupByKeyNode,
    HashJoinNode,
    NarrowNode,
    PlanNode,
    ProductNode,
    ReduceByKeyNode,
    ScanNode,
)
from repro.comprehension import ir
from repro.runtime.context import DistributedContext
from repro.runtime.dataset import Dataset, choose_broadcast_side
from repro.runtime.partitioner import HashPartitioner


class LoopInvariantCache:
    """What a ``while`` loop's iterations reuse: hoisted data and plan skeletons.

    Created by the :class:`~repro.algebra.runner.ProgramRunner` per ``while``
    statement.  ``invariants`` are the environment variables the loop body
    never assigns.  Two kinds of entry share it:

    * **Datasets** keyed by plan signature or sub-term (``plan_optimize``):
      only values derived exclusively from invariants are admitted, so
      iterations 2+ reuse them materialized and placed.
    * **Plan skeletons** keyed ``("skeleton", comp)`` (``plan_cache``): the
      annotated :class:`~repro.algebra.plan.PlanNode` tree a loop-body
      comprehension's first evaluation built, plus the scan leaves that read
      mutated program variables.  Iterations 2+ rebind those scans to the
      variables' current datasets and re-lower the tree, skipping the
      qualifier walk, CSE bookkeeping and the annotate pass
      (``metrics.plan_cache_hits`` counts the reuses).  The evaluator only
      admits *skeleton-safe* builds: every value snapshotted into the tree's
      closures at build time was loop-invariant, and every mutated input is
      a bare program variable readable from the live environment.

    Every entry records the environment variables it was derived from, so a
    defensive :meth:`invalidate` on each assignment drops entries even if the
    static analysis and the executed writes ever disagree.
    """

    def __init__(self, invariants: frozenset[str]):
        self.invariants = invariants
        self._entries: dict[Any, tuple[Any, frozenset[str]]] = {}

    def __len__(self) -> int:
        return len(self._entries)

    def get(self, key: Any) -> Any | None:
        entry = self._entries.get(key)
        return entry[0] if entry is not None else None

    def put(self, key: Any, value: Any, depends: frozenset[str]) -> None:
        self._entries[key] = (value, frozenset(depends))

    def clear(self) -> None:
        """Drop every entry (the loop has ended)."""
        self._entries.clear()

    def invalidate(self, name: str) -> int:
        """Drop every cached value derived from environment variable ``name``."""
        stale = [key for key, (_value, depends) in self._entries.items() if name in depends]
        for key in stale:
            del self._entries[key]
        return len(stale)


def signature_env_deps(signature: Any) -> frozenset[str]:
    """Environment variable names a plan signature's terms mention.

    Bound row variables show up too; they are harmless extras -- invalidation
    only ever asks about assigned program variables.
    """
    names: set[str] = set()

    def walk(obj: Any) -> None:
        if isinstance(obj, ir.Term):
            names.update(ir.free_variables(obj))
        elif isinstance(obj, tuple):
            for element in obj:
                walk(element)

    walk(signature)
    return frozenset(names)


class _Op(NamedTuple):
    """One logical row operator of a chain being lowered.

    ``spec`` is the :class:`~repro.algebra.codegen.Segment` entry, step or
    exit the operator stands for; ``kind``/``kernel``/``keep`` are its stage
    kind, batch kernel and ``preserves_partitioning`` flag when it runs as a
    stage of its own; ``rows`` are the row keys after it.
    """

    kind: str
    spec: tuple
    label: str
    kernel: Any
    keep: bool
    rows: tuple[str, ...]


def _key_op(term: ir.Term, payload: Any, kernel: Any, keep: bool) -> _Op:
    """The keying map ``row -> (term, payload)`` a wide operator needs."""
    return _Op(MAP, ("keyed", term, payload), "key", kernel, keep, ())


#: The row operators a chain walk collects: the steps and the head.
_ROW_OPERATORS = ("let", "filter", "expand", "local-expand", "head")


def _segment(entry: tuple, run: list[_Op]) -> codegen.Segment:
    """The segment for ``run`` (ending in its ``head`` or keying operator)
    applied to records of form ``entry``."""
    steps = tuple(op.spec for op in run if op.spec[0] in ("let", "filter", "expand"))
    return codegen.Segment(entry, steps, run[-1].spec)


def _live(ops: list[_Op]) -> set[str]:
    """The names the run ``ops`` (top first) reads from its entry."""
    return codegen.live(*_segment(None, ops[::-1])[1:])


def _one_step(entry: tuple, op: _Op) -> codegen.Segment:
    """A kernel stage's record path: ``op`` over one record of form
    ``entry``, leaving as the record (a dict row, a head) its kernel emits."""
    segment = _segment(entry, [op])
    row = ir.CRecord(tuple((name, ir.CVar(name)) for name in op.rows))
    return segment if op.spec[0] in ("head", "keyed") else segment._replace(exit=("head", row))


def _identity(segment: codegen.Segment) -> bool:
    """Whether ``segment`` turns each reduced ``(k, v)`` pair into ``(k, ⊕/v)``:
    the pair itself, since ``⊕/`` of a reduced value is that value."""
    entry, exit_ = segment.entry, segment.exit
    if entry[0] != "reduced" or not isinstance(entry[1], ir.PVar) or segment.steps or exit_[0] != "head":
        return False
    head = exit_[1]
    return (
        isinstance(head, ir.CTuple)
        and len(head.elements) == 2
        and head.elements[0] == ir.CVar(entry[1].name)
        and isinstance(head.elements[1], ir.Aggregate)
        and head.elements[1].operand == ir.CVar(entry[2])
    )


def folding_twin(function: Any, op: str | tuple[str, ...], monoids: Any) -> Any | None:
    """``function`` folding its head with ``op`` inside its loop, or None.

    For a generated stage that ends in ``head`` this is the same loop with
    the ``append`` replaced by ``acc = acc ⊕ head`` (returning ``[acc]``):
    what a scalar ``⊕/`` over the stage's output needs per partition.  A
    product ``(⊕1,…,⊕n)/`` needs a head tuple of n terms, one per component.
    """
    segment = getattr(function, "segment", None)
    if segment is None or segment.exit[0] != "head":
        return None
    head = segment.exit[1]
    if isinstance(op, tuple) and not (isinstance(head, ir.CTuple) and len(head.elements) == len(op)):
        return None
    twin = function.retarget(("fold", head, *codegen.fold_operator(op, monoids)))
    twin.label = f"{function.label.removesuffix('head')}fold({ir.op_text(op)})"
    twin.operators = function.operators
    return twin


def _chain_label(run: list[_Op]) -> str:
    """``bind→let×5→head``: the operators one generated stage stands for."""
    parts: list[list[Any]] = []
    for op in run:
        if parts and parts[-1][0] == op.label:
            parts[-1][1] += 1
        else:
            parts.append([op.label, 1])
    return "→".join(label if count == 1 else f"{label}×{count}" for label, count in parts)


class _Pushdown(NamedTuple):
    """The steps a hash join's sides run before the join (each in run
    order) and the entry names of its consumer (see :func:`_push_below`)."""

    left: tuple[_Op, ...]
    right: tuple[_Op, ...]
    left_names: tuple[str, ...]
    right_names: tuple[str, ...]


#: The binary operators of the pushable fragment (see :func:`_pushable`).
_PUSHABLE_BINOPS = frozenset({"+", "-", "*", "<", "<=", ">", ">=", "==", "!=", "&&", "||"})


def _pushable(term: ir.Term) -> bool:
    """Whether a step over ``term`` may run below a join, on records the
    join leaves unpaired too: variables, constants, tuples, ``+ - *``,
    comparisons, ``&&`` / ``||``, unary ``-`` / ``!`` and ``inRange``.  No
    ``/`` or ``%`` (a zero divisor raises), no call, projection, aggregation
    or nested comprehension."""
    if isinstance(term, (ir.CVar, ir.CConst)):
        return True
    if isinstance(term, ir.CTuple):
        return all(map(_pushable, term.elements))
    if isinstance(term, ir.CBinOp):
        return term.op in _PUSHABLE_BINOPS and _pushable(term.left) and _pushable(term.right)
    if isinstance(term, ir.CUnaryOp):
        return term.op in ("-", "!") and _pushable(term.operand)
    if isinstance(term, ir.InRange):
        return all(map(_pushable, (term.value, term.lower, term.upper)))
    return False


def _step_text(spec: tuple) -> str:
    return f"let {spec[1]} = {spec[2]}" if spec[0] == "let" else str(spec[1])


def _push_below(join: HashJoinNode, ops: list[_Op], frozen: dict[str, frozenset[str] | None]) -> _Pushdown:
    """Move the steps right above ``join`` that read one side only into
    that side's keying run, so that they run once per record of the side
    instead of once per joined pair.

    ``ops`` is the run above the join, top first: its tail is walked and
    popped in run order.  A ``filter``, or a ``let`` of one variable, moves
    when its term is :func:`_pushable` and reads the variables of one side
    only, plus scalars the join's bindings already hold.  A side the loop
    cache keeps across iterations has ``frozen[side]``, the loop's
    invariants: a step whose scalars are not all among them stays above the
    join, so the cached side never depends on a value the loop reassigns
    (an inner loop's assignment never invalidates it).  The walk stops at
    the first step that does not, and at a let that would rebind one of its
    side's join-key variables (the key is computed after the side's steps)
    or bind a right variable on the left (the pair loop binds the right
    values after the left ones).

    Each side then emits the slot rows of the variables the consumer reads
    from it (its live-in variables), in the order they were first bound; a
    right variable shadows a left one of its name.
    """
    right = dict.fromkeys(join.pattern.variables())
    left = dict.fromkeys(join.left.rows)
    keys = {
        "left": set().union(*map(ir.free_variables, join.left_key_terms)),
        "right": set().union(*map(ir.free_variables, join.right_key_terms)),
    }
    bindings = join.bindings
    moved: dict[str, list[_Op]] = {"left": [], "right": []}
    while ops and ops[-1].spec[0] in ("let", "filter"):
        spec = ops[-1].spec
        names = ir.free_variables(spec[-1])
        reads_left = names & left.keys() - right.keys()
        side = "left" if reads_left else "right"
        scalars = names - left.keys() - right.keys()
        if (
            (reads_left and names & right.keys())
            or not _pushable(spec[-1])
            or any(name not in bindings.base and name not in bindings.values for name in scalars)
            or (frozen[side] is not None and not scalars <= frozen[side])
        ):
            break
        if spec[0] == "let":
            name = spec[1].name if isinstance(spec[1], ir.PVar) else None
            if name is None or name in keys[side] or (side == "left" and name in right):
                break
            (right if side == "right" else left)[name] = None
        moved[side].append(ops.pop()._replace(keep=True))
    live = _live(ops)
    return _Pushdown(
        tuple(moved["left"]),
        tuple(moved["right"]),
        tuple(name for name in left if name in live and name not in right),
        tuple(name for name in right if name in live),
    )


class Planner:
    """Annotates a logical plan and lowers it to a runtime Dataset."""

    def __init__(
        self,
        context: DistributedContext,
        trace: list[str] | None = None,
        loop_cache: LoopInvariantCache | None = None,
        segments: dict[Any, Any] | None = None,
    ):
        self.context = context
        self.trace = trace if trace is not None else []
        self.loop_cache = loop_cache if context.plan_optimize else None
        #: Memo of compiled row-segment factories (per program, see the runner).
        self.segments: dict[Any, Any] = segments if segments is not None else {}
        #: Set while a loop-invariant join side is lowered for the loop cache.
        self._in_cached_side = False

    # -- the public entry point --------------------------------------------------

    def lower(self, root: PlanNode) -> Dataset:
        """Annotate ``root`` and lower it to a Dataset."""
        self.annotate(root)
        return self._lower(root)

    def relower(self, root: PlanNode) -> Dataset:
        """Lower an already-annotated tree (plan-skeleton cache hits).

        The annotate pass is structural -- it compares IR terms, never
        datasets -- so its per-node decisions from the first lowering are
        still exact after the skeleton's mutated scans were rebound; only
        the Dataset emission needs to run again."""
        return self._lower(root)

    # -- annotation --------------------------------------------------------------

    def annotate(self, node: PlanNode) -> None:
        """Post-order pass computing partitioner propagation decisions."""
        for child in node.children:
            self.annotate(child)
        if not self.context.plan_optimize:
            return
        if isinstance(node, (ReduceByKeyNode, GroupByKeyNode)):
            child_key = node.child.row_key_term
            if child_key is not None and child_key == node.key_term:
                node.input_prepartitioned = True
                node.notes.append("input rows already placed by the group key")
                # Thread the upstream group's runtime partitioner through the
                # intermediate rebuild/let maps so the keying map's
                # preserves_partitioning claim is backed by real metadata and
                # the keyed shuffle lowers to a narrow pass.
                self._mark_carry_chain(node.child)
            node.row_key_term = node.pattern_term
        elif isinstance(node, HashJoinNode):
            # One equi-join key: when a side's records are already placed by
            # that key (a pre-placed input, or rows carrying an upstream
            # group's placement), its keying map emits the same raw key and
            # can keep the partitioner -- the runtime then skips that side's
            # map-side shuffle, or runs the whole join narrow when both
            # sides qualify.  Composite keys re-key by a tuple the placement
            # does not cover, so they never claim preservation.
            if len(node.left_key_terms) == 1:
                left_key = node.left.row_key_term
                if left_key is not None and left_key == node.left_key_terms[0]:
                    node.left_prepartitioned = True
                    node.notes.append("build rows already placed by the join key")
                    self._mark_carry_chain(node.left)
                if self._scan_placed_by(node.right, node.sig, node.right_key_terms):
                    node.right_prepartitioned = True
                    node.notes.append(
                        f"{node.domain_label}: scan already placed by the join key"
                    )
        elif isinstance(node, NarrowNode):
            if (
                node.sig is not None
                and node.sig
                and node.sig[0] == "bind"
                and isinstance(node.child, ScanNode)
                and node.child.dataset is not None
                and node.child.dataset.partitioner is not None
            ):
                # The first generator scans a placed pair dataset: after the
                # bind map its rows are (still) grouped by the pattern's key
                # variable.  Seeding the claim here is what lets downstream
                # group-bys and joins on that key skip their shuffle -- the
                # payoff of the whole-program placement pass.
                pattern = node.sig[1]
                if (
                    isinstance(pattern, ir.PTuple)
                    and len(pattern.elements) == 2
                    and isinstance(pattern.elements[0], ir.PVar)
                ):
                    node.row_key_term = ir.CVar(pattern.elements[0].name)
                    node.carry_partitioner = True
                    node.notes.append("scan of a placed dataset: rows keep its placement")
            elif node.key_transparent and node.child is not None:
                incoming = node.child.row_key_term
                if incoming is not None and set(node.binds) & ir.free_variables(incoming):
                    # A let rebinding a variable of the key term: the rows
                    # remain placed by the *old* value, so the claim (which a
                    # later head would compare against the *new* binding)
                    # must be dropped.
                    incoming = None
                node.row_key_term = incoming
            if node.head_key_term is not None and node.child is not None:
                incoming = node.child.row_key_term
                if incoming is not None and incoming == node.head_key_term:
                    node.carry_partitioner = True
                    node.row_key_term = node.head_key_term
                    node.notes.append(
                        f"head re-keys by {node.head_key_term}: partitioner preserved"
                    )
                    self._mark_carry_chain(node.child)

    @staticmethod
    def _scan_placed_by(
        side: PlanNode, join_sig: tuple | None, key_terms: tuple[ir.Term, ...]
    ) -> bool:
        """True when a join's scan side is hash-placed by its single join key.

        The scan feeds the join as raw (key, value) pairs; the join signature
        carries the generator pattern, so the placement claim holds exactly
        when the join key is the pattern's key variable."""
        if not isinstance(side, ScanNode) or side.dataset is None:
            return False
        if side.dataset.partitioner is None:
            return False
        if join_sig is None or len(join_sig) < 4:
            return False
        pattern = join_sig[3]
        return (
            isinstance(pattern, ir.PTuple)
            and len(pattern.elements) == 2
            and isinstance(pattern.elements[0], ir.PVar)
            and key_terms == (ir.CVar(pattern.elements[0].name),)
        )

    def _mark_carry_chain(self, node: PlanNode) -> None:
        """Thread ``preserves_partitioning`` from a group node to the head."""
        current: PlanNode | None = node
        while current is not None:
            if isinstance(current, NarrowNode) and current.key_transparent:
                current.carry_partitioner = True
                current = current.child
                continue
            if isinstance(current, (ReduceByKeyNode, GroupByKeyNode)):
                current.carry_partitioner = True
            return

    # -- lowering ----------------------------------------------------------------

    def _lower(self, node: PlanNode) -> Dataset:
        """A scan's dataset, or the chain ending at the plan's root."""
        return node.dataset if isinstance(node, ScanNode) else self._lower_chain(node)

    def _lower_chain(
        self,
        top: PlanNode,
        tail: tuple[_Op, ...] = (),
        entry: tuple | None = None,
        bindings: Any = None,
        reduce: ReduceByKeyNode | None = None,
    ) -> Dataset:
        """Lower the run of row operators ending at ``top`` (then ``tail``).

        Walks down the lets / filters / expansions / head to whatever feeds
        them -- a scan bind, a wide node (whose rebuild of co-grouped /
        reduced / grouped pairs into rows becomes the first operator), a
        product (whose nested loop does) or any other row producer -- lowers
        that feeder, and emits the whole run over it.  Driver-side bags the
        run iterates (local bags, a product's broadcast side) reach its
        generated functions under fresh driver names in its ``bindings``.
        ``tail`` ends the run, last operator first: the keying map a wide
        node above needs (which also supplies its ``bindings``), after the
        steps a join pushed below itself; ``entry`` makes ``top`` a scan of raw
        elements entering the run by that bind; ``reduce`` is the node whose
        reduceByKey consumes the keyed run (see :meth:`_emit`).
        """
        bindings = bindings or top.bindings
        ops = list(tail)
        bags: dict[str, list[Any]] = {}
        node = top
        while isinstance(node, NarrowNode) and node.sig[0] in _ROW_OPERATORS:
            spec = node.sig
            if node.bag is not None:
                spec = ("expand", spec[1], _bag(bags, node.bag))
            keep = node.kind == FILTER or node.carry_partitioner
            ops.append(_Op(node.kind, spec, spec[0], node.kernel, keep, node.rows))
            node = node.child
        first: _Op | None = None
        scan: ScanNode | None = None
        if entry is not None:
            source, scan = self._lower(node), node
        elif isinstance(node, NarrowNode) and node.sig[0] == "bind":
            source, entry, scan = self._lower(node.child), node.sig, node.child
            first = _Op(MAP, entry, "bind", node.kernel, node.carry_partitioner, node.rows)
        elif isinstance(node, HashJoinNode):
            # Not a dataset yet: the run's generated function is the join's
            # consumer, so the join is built once that function exists.
            frozen = {
                name: self.loop_cache.invariants if self._side_signature(side) is not None else None
                for name, side in (("left", node.left), ("right", node.right))
            }
            pushdown = _push_below(node, ops, frozen)
            source = functools.partial(self._join, node, pushdown)
            entry = ("cogroup", pushdown.left_names, pushdown.right_names)
            first = _Op(MAP, entry, "cogroup", None, False, node.rows)
        elif isinstance(node, ReduceByKeyNode):
            payload = ("value", node.value_name)
            key = _key_op(node.key_term, payload, node.key_kernel, node.input_prepartitioned)
            source = self._lower_chain(node.child, (key,), bindings=node.bindings, reduce=node)
            entry = ("reduced", node.pattern, node.value_name)
            first = _Op(MAP, entry, "rebuild", None, node.carry_partitioner, node.rows)
        elif isinstance(node, GroupByKeyNode):
            live = _live(ops)
            lifted = tuple(name for name in dict.fromkeys(node.lifted) if name in live)
            key = _key_op(node.key_term, ("values", lifted), None, node.input_prepartitioned)
            source = self._lower_chain(node.child, (key,), bindings=node.bindings).group_by_key()
            entry = ("grouped", node.pattern, lifted)
            first = _Op(MAP, entry, "lift", None, node.carry_partitioner, node.rows)
        else:  # a ProductNode: every row chain starts at one of these nodes
            source, entry, spec = self._product(node, bags, _live(ops))
            first = _Op(MAP, spec, "product", None, False, node.rows)
        if first is not None:
            ops.append(first)
        ops.reverse()
        if bags:
            bindings = dataclasses.replace(bindings, base={**bindings.base, **bags})
        return self._emit(source, entry, ops, bindings, top, reduce, scan)

    def _emit(
        self,
        dataset: Dataset | Callable[[Any], Dataset],
        entry: tuple,
        ops: list[_Op],
        bindings: Any,
        node: PlanNode,
        reduce: ReduceByKeyNode | None = None,
        scan: ScanNode | None = None,
    ) -> Dataset:
        """Emit ``ops`` over ``dataset``, whose records have form ``entry``.

        Under the context's ``columnar`` mode a run in which every operator
        has a kernel stays per-operator kernel stages, the generated
        one-step function attached as each kernel's record-path oracle.
        Every other run becomes one generated per-partition stage.

        ``scan`` is the scan a ``bind`` entry reads directly.  When it is a
        positional source (:meth:`Dataset.positional_source`) and the pattern
        is ``(i, v)``, the generated run peels the source's positions stage
        off: it scans the plain elements through a ``positional`` entry,
        counting ``i`` from the partition offset, or not at all when ``i`` is
        dead.  Kernel stages read pairs, so there the positions stage runs
        first.

        A hash join arrives as ``dataset(consumer)``: its run (the
        ``cogroup`` entry has no kernel, so that run is always generated) is
        handed to the join as the consumer of its co-grouped sides.  With
        ``reduce``, the keyed output is reduced by key here: a generated run
        folds inside its loop (``fold_by_key`` instead of ``keyed``) and the
        reduceByKey is told its input is already combined; kernel stages
        keep the runtime's map-side combiner.
        """
        folded = False
        if self.context.columnar and all(op.kernel is not None for op in ops):
            if scan is not None and dataset.positional_source() is not None:
                dataset = dataset.materialize()
            for op in ops:
                if op.kernel.oracle is None:
                    one_step = codegen.generate(_one_step(entry, op), bindings, self.segments)
                    op.kernel.oracle = _record_oracle(one_step, op.kind)
                if op.kind == FILTER:
                    dataset = dataset.filter(op.kernel)
                else:
                    dataset = dataset.map(op.kernel, preserves_partitioning=op.keep)
                entry = ("columnar", op.rows)
        else:
            if scan is not None:
                dataset, entry, bindings = _positional(dataset, entry, bindings)
            segment = _segment(entry, ops)
            if _identity(segment) and all(op.keep for op in ops):
                # ``(k, ⊕/v)`` over the reduced pairs rebuilds each pair.
                note = f"identity run after the reduce skipped: {segment.exit[1]}"
                if _note(node, note):
                    self.trace.append(note)
                return dataset
            if reduce is not None:
                fold = codegen.fold_operator(reduce.monoid_op, bindings.monoids)
                segment = segment._replace(exit=("fold_by_key", *segment.exit[1:], *fold))
                ops[-1] = ops[-1]._replace(label=f"fold_by_key({reduce.monoid_op})")
                folded = True
            function = codegen.generate(segment, bindings, self.segments)
            function.label = _chain_label(ops)
            function.operators = len(ops)
            if isinstance(dataset, Dataset):
                keep = all(op.keep for op in ops)
                if function.indexed:
                    dataset = dataset.map_partitions_with_index(function, keep)
                else:
                    dataset = dataset.map_partitions(function, preserves_partitioning=keep)
            else:
                dataset = dataset(function)
            self.context.metrics.record_generated_segment()
            if _note(node, f"generated: {function.label}"):
                node.generated.append(function)
            if entry[0] == "positional":
                how = "index from partition offset" if function.indexed else "index dead"
                note = f"positional scan of {scan.name}: {how}"
                self.trace.append(note)
                _note(node, note)
        if reduce is not None:
            dataset = dataset.reduce_by_key(reduce.combine_fn, folded=folded)
        return dataset

    def _join(self, node: HashJoinNode, pushdown: _Pushdown, consumer: Any) -> Dataset:
        """A hash join whose co-grouped sides go straight to ``consumer``
        (the generated function of the run above it) inside the join task;
        the result holds the consumer's records, not joined pairs.  Each
        side's keying run first runs the steps ``pushdown`` moved to it."""
        notes = [f"consumer fused into the join task: {consumer.label}"]
        moved = [
            f"{_step_text(op.spec)} → {side} side"
            for side, ops in (("left", pushdown.left), ("right", pushdown.right))
            for op in ops
        ]
        if moved:
            notes.append(f"pushed below the join: {', '.join(moved)}")
        for note in notes:
            self.trace.append(f"{node.label}: {note}")
            _note(node, note)
        single = len(node.left_key_terms) == 1
        # Single-key joins key records by the raw value (not a 1-tuple): the
        # record key then coincides with the scanned pair's own key, so when
        # a side is already hash-placed by that key the keying map can
        # truthfully claim preserves_partitioning and the join lowers to a
        # narrow / map-side-bypassed pass (see annotate).  Both sides use the
        # same convention, so join-key equality is unaffected.
        left_key = node.left_key_terms[0] if single else ir.CTuple(node.left_key_terms)
        right_key = node.right_key_terms[0] if single else ir.CTuple(node.right_key_terms)
        left_key_op = _key_op(left_key, ("values", pushdown.left_names), None, node.left_prepartitioned)
        right_key_op = _key_op(right_key, ("values", pushdown.right_names), None, node.right_prepartitioned)
        keyed_left = self._keyed_join_side(
            node, node.left, (left_key_op, *reversed(pushdown.left)), None, "build rows"
        )
        keyed_right = self._keyed_join_side(
            node,
            node.right,
            (right_key_op, *reversed(pushdown.right)),
            ("bind", node.pattern),
            node.domain_label,
        )
        return keyed_left.join(keyed_right, consumer=consumer)

    def _keyed_join_side(
        self, join: HashJoinNode, side: PlanNode, tail: tuple[_Op, ...], entry: tuple | None, label: str
    ) -> Dataset:
        """Lower one join input, its run ending in ``tail``: the steps pushed
        below the join and the keying map by the join-key terms.

        Loop-invariant sides are materialized once per loop: placed with the
        shuffle's hash partitioner when they are too big to broadcast (the
        runtime then skips their map-side shuffle on every iteration), plainly
        cached otherwise (the broadcast build side is at least not recomputed).
        The joins inside a side being cached are not cached themselves: later
        iterations reuse the whole side and never lower them again.
        """
        side_signature = self._side_signature(side)
        if side_signature is None:
            return self._lower_chain(side, tail, entry, join.bindings)
        # The tail's specs hold the key term, the payload's names and the
        # pushed steps (which read loop invariants only, see _push_below).
        cache_key = ("join-side", side_signature, entry, tuple(op.spec for op in tail))
        hit = self.loop_cache.get(cache_key)
        if hit is not None:
            self.context.metrics.record_loop_invariant_reuse()
            self.trace.append(f"loop-invariant join side reused: {label}")
            _note(join, f"loop-invariant side reused: {label}")
            return hit
        self._in_cached_side = True
        try:
            keyed = self._lower_chain(side, tail, entry, join.bindings).materialize()
        finally:
            self._in_cached_side = False
        if keyed.count() > self.context.broadcast_join_threshold:
            keyed = keyed.partition_by(HashPartitioner(self.context.num_partitions))
            placement = "hash-partitioned"
        else:
            placement = "materialized"
        self.loop_cache.put(cache_key, keyed, signature_env_deps(cache_key))
        self.trace.append(f"loop-invariant join side cached ({placement}): {label}")
        _note(join, f"loop-invariant side cached ({placement}): {label}")
        return keyed

    def _side_signature(self, side: PlanNode) -> tuple | None:
        """The loop-cache signature of a join side, or None when the side is
        lowered afresh (no loop cache, not invariant, or inside a side being
        cached)."""
        if self.loop_cache is None or self._in_cached_side:
            return None
        return side.signature()

    def _product(
        self, node: ProductNode, bags: dict[str, list[Any]], live: set[str]
    ) -> tuple[Any, tuple, tuple]:
        """The no-key nested loop: broadcast the smaller side when it fits.

        This is the plan-time broadcast-vs-shuffle selection for products --
        the same heuristic (and threshold) the runtime applies to hash joins
        at force time.  The left rows are slot rows of the ``live`` names
        the pattern does not rebind.  Returns the run's source, its entry
        and the spec of its first operator: over the rows with the broadcast
        elements as an ``expand`` step, over the elements with the broadcast
        rows as a ``product`` entry, or over the cartesian pairs.
        """
        bound = set(node.pattern.variables())
        names = tuple(name for name in node.left.rows if name in live and name not in bound)
        head = ir.CTuple(tuple(map(ir.CVar, names)))
        kernel = vectorize.head_map(head, frozenset(node.left.rows), node.left.bindings)
        rows = self._lower_chain(node.left, (_Op(MAP, ("head", head), "slots", kernel, True, ()),))
        dataset = self._lower(node.right)
        context = self.context
        side = choose_broadcast_side(rows.count(), dataset.count(), context.broadcast_join_threshold)
        if side == "right":
            elements = dataset.collect()
            # Bound once here, so an element that does not fit raises before
            # any row goes on.
            bind = codegen.Segment(("bind", node.pattern), (), ("head", ir.CConst(None)))
            codegen.generate(bind, node.bindings, self.segments)(elements)
            context.metrics.record_broadcast()
            context.metrics.record_join_strategy("broadcast")
            _note(node, "broadcast right side")
            spec = ("expand", node.pattern, _bag(bags, elements))
            return rows, ("slots", names), spec
        if side == "left":
            context.metrics.record_broadcast()
            context.metrics.record_join_strategy("broadcast")
            _note(node, "broadcast left side (rows)")
            entry = ("product", names, node.pattern, _bag(bags, rows.collect()).name)
            return dataset.map_partitions, entry, entry
        context.metrics.record_join_strategy("cartesian")
        _note(node, "cartesian (both sides above the broadcast threshold)")
        entry = ("product", names, node.pattern, None)
        return rows.cartesian(dataset).map_partitions, entry, entry


def _positional(dataset: Dataset, entry: tuple, bindings: Any) -> tuple[Dataset, tuple, Any]:
    """A ``bind`` of ``(i, v)`` over a positional source as a ``positional``
    entry over its plain elements, the partition offsets bound for the
    generated loop; anything else unchanged."""
    source = dataset.positional_source()
    pattern = entry[1]
    if (
        source is None
        or not isinstance(pattern, ir.PTuple)
        or len(pattern.elements) != 2
        or not isinstance(pattern.elements[0], (ir.PVar, ir.PWildcard))
    ):
        return dataset, entry, bindings
    base = {**bindings.base, codegen.OFFSETS: source.offsets}
    return source, ("positional", pattern), dataclasses.replace(bindings, base=base)


def _bag(bags: dict[str, list[Any]], values: list[Any]) -> ir.CVar:
    """A fresh driver name for a bag a run iterates (deterministic per run,
    so the segment that reads it recurs)."""
    name = f"bag#{len(bags)}"
    bags[name] = values
    return ir.CVar(name)


def _note(node: PlanNode, note: str) -> bool:
    """Record a planner decision on ``node`` once, however often a cached
    plan is lowered again; True when it is new."""
    if note in node.notes:
        return False
    node.notes.append(note)
    return True


def _record_oracle(function: Any, kind: str) -> Any:
    """A per-partition one-step function as the per-record callable a kernel
    stage's record path needs."""
    if kind == FILTER:
        return lambda record: bool(function((record,)))
    return lambda record: function((record,))[0]
