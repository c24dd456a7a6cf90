"""Evaluation of comprehension terms over the local DISC runtime.

The :class:`TermEvaluator` is the analogue of DIQL's comprehension-to-algebra
compiler: it walks the qualifiers of a comprehension from left to right and
builds a **logical plan** (:mod:`repro.algebra.plan`) that the partition-aware
:class:`~repro.algebra.planner.Planner` annotates and lowers to a dataflow of
:class:`~repro.runtime.dataset.Dataset` operations.

The important plan decisions are the ones the paper relies on:

* a generator over a dataset joined to the rows built so far through an
  equality condition becomes a **hash equi-join** (possibly with a composite
  key);
* a generator with no linking condition becomes a **broadcast nested-loop
  join** of the smaller side (semantically a cartesian product -- this is the
  "expensive join" the paper observes for KMeans);
* a group-by whose lifted variables are only consumed by aggregations becomes
  a **reduceByKey**; otherwise it is a **groupByKey**;
* the array merges ⊳ and ⊳⊕ become **coGroups**.

Evaluating a comprehension is two steps.  The **bind** evaluates, in
qualifier order, what the driver must: the lets, conditions and group-by keys
before the first scan, and every domain that reads no row variable (each
scan's dataset, each local bag), stopping at the first empty domain.  The
**build** is structure only -- the qualifier walk, join keys, invariance,
the annotate pass -- and runs once per program: the plan is stored with the
:class:`~repro.translate.target.TargetProgram`, keyed by the term, the
bind's *shape* (which domains are scans, which scans are placed), the loop
invariants and the knobs it reads, and every later run and loop iteration
only binds it and lowers it.  A domain that turns into a different kind of
input, or a scan whose placement changes, keys another plan.

Building the plan first (instead of emitting Dataset calls inline) lets the
planner eliminate work the inline emission could not see:

* the same comprehension sub-term scanned twice in one statement shares one
  dataset (**common sub-expression elimination**, memoized per statement);
* sub-terms and join sides that depend only on variables the enclosing
  ``while`` loop never assigns are evaluated -- and shuffled -- **once per
  loop** through the runner-owned
  :class:`~repro.algebra.planner.LoopInvariantCache`;
* group-by outputs whose head re-keys by the group key keep their
  partitioner, so downstream merges and joins on the same key run as narrow,
  shuffle-free stages.

Scalar sub-terms are evaluated locally inside tasks with the shared operator
semantics of :mod:`repro.operators`, so the distributed path and the
sequential interpreter agree on every arithmetic detail.  The plan nodes for
binds, lets, conditions, heads and the keying/rebuild steps around wide
operators carry only their IR terms: the planner compiles each run of them
into one generated per-partition function (:mod:`repro.algebra.codegen`),
for which :meth:`TermEvaluator.evaluate_local` is the reference semantics.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field
from typing import Any, Iterator

from repro import operators
from repro.algebra import codegen
from repro.algebra import plan as plan_mod
from repro.algebra.plan import (
    GroupByKeyNode,
    HashJoinNode,
    NarrowNode,
    PlanNode,
    ProductNode,
    ReduceByKeyNode,
    ScanNode,
)
from repro.algebra import vectorize
from repro.algebra.planner import LoopInvariantCache, Planner, folding_twin
from repro.comprehension import ir
from repro.comprehension.monoids import DEFAULT_MONOIDS, MonoidRegistry
from repro.errors import CompilationError, ExecutionError
from repro.functions import DEFAULT_FUNCTIONS, FunctionRegistry
from repro.runtime.context import DistributedContext
from repro.runtime.dataset import Dataset
from repro.runtime.partitioner import HashPartitioner
from repro.translate import facts
from repro.translate.target import TargetProgram


@dataclass
class EvaluationEnvironment:
    """Everything a term needs to be evaluated.

    Attributes:
        context: the runtime context used to create datasets.
        values: program variables -- Datasets for arrays/collections, plain
            Python values for scalars.
        functions: scalar function registry.
        monoids: commutative monoid registry.
    """

    context: DistributedContext
    values: dict[str, Any] = field(default_factory=dict)
    functions: FunctionRegistry = field(default_factory=lambda: DEFAULT_FUNCTIONS)
    monoids: MonoidRegistry = field(default_factory=lambda: DEFAULT_MONOIDS)


#: Terms whose value is a bag: a driver-level let binds their Dataset.
_BAG_TERMS = (ir.Comprehension, ir.Merge, ir.MergeWith, ir.RangeTerm)


@dataclass
class _Bound:
    """One evaluation's run-time inputs: the ``driver`` bindings; per
    generator the driver evaluated, its ``shape`` entry (a scan: whether its
    dataset is placed; a local bag: None); the plan's slots, ``inputs`` (the
    scans' datasets and the per-row bags); and whether a scan started rows."""

    driver: dict[str, Any] = field(default_factory=dict)
    shape: list[bool | None] = field(default_factory=list)
    inputs: list[Any] = field(default_factory=list)
    rows: bool = False


@dataclass
class _CompBuild:
    """Mutable state of one comprehension's plan construction (the *build*).

    It reads no run-time value: the bind's ``shape`` stands for what the
    domains were, ``driver`` names what the driver binds.  ``driver_invariant``
    tracks whether every driver-level binding so far was computed from
    loop-invariant data -- a prerequisite for marking plan nodes invariant.
    """

    shape: Iterator[bool | None]
    #: The names with one value per comprehension besides the driver's.
    program_scalars: frozenset[str]
    rows: PlanNode | None = None
    bound_order: list[str] = field(default_factory=list)
    driver: set[str] = field(default_factory=set)
    driver_invariant: bool = True
    slots: int = 0
    #: The plan decisions, traced each time the plan runs.
    trace: list[str] = field(default_factory=list)

    def bound_names(self) -> frozenset[str]:
        return frozenset(self.bound_order) | frozenset(self.driver)

    def scalars(self) -> frozenset[str]:
        return self.program_scalars | frozenset(self.driver)

    def slot(self) -> int:
        self.slots += 1
        return self.slots - 1


@dataclass(frozen=True)
class StoredPlan:
    """A comprehension (holding it keeps its id, part of the key, unique),
    its annotated plan and the build's trace lines: no per-run value, so a
    program's plans serve every run, on any context."""

    comp: ir.Comprehension
    root: PlanNode
    trace: tuple[str, ...]


class TermEvaluator:
    """Evaluates comprehension terms against an :class:`EvaluationEnvironment`."""

    def __init__(
        self,
        environment: EvaluationEnvironment,
        trace: list[str] | None = None,
        loop_cache: LoopInvariantCache | None = None,
        program: TargetProgram | None = None,
    ):
        self.env = environment
        #: Compiled row-segment factories (see :func:`codegen.generate`) and
        #: the stored plans with their structural facts: the program's, when
        #: the runner passes it, so both outlive the run.
        self.segments: dict[Any, Any] = program.segments if program is not None else {}
        self.plans: dict[Any, Any] = program.plans if program is not None else {}
        #: Names with one value per comprehension (join keys may read them);
        #: without a program, the non-collection values of the environment.
        self._scalars = program.facts.scalars if program is not None else None
        #: Per-statement CSE memo: comprehension sub-term -> lowered Dataset.
        self._term_dataset_cache: dict[Any, Dataset] = {}
        #: While-loop cache shared across iterations (None outside loops).
        #: It holds loop-invariant datasets when the context's
        #: ``plan_optimize`` knob is on.
        self.loop_cache = loop_cache
        hoist = loop_cache is not None and environment.context.plan_optimize
        self._invariants = loop_cache.invariants if hoist else None
        #: The last logical plan lowered by :meth:`evaluate_comprehension`.
        self.last_plan: PlanNode | None = None
        #: Human-readable log of plan decisions (joins, group-bys, merges).
        self.trace: list[str] = trace if trace is not None else []

    # ------------------------------------------------------------------
    # driver-level evaluation
    # ------------------------------------------------------------------

    def evaluate(self, term: ir.Term) -> Any:
        """Evaluate a term at the driver: datasets for bag terms, scalars otherwise."""
        if isinstance(term, ir.Comprehension):
            return self.evaluate_comprehension(term)
        if isinstance(term, ir.Merge):
            left = self._merge_operand(term.left)
            right = self._merge_operand(term.right)
            return self._traced_merge("<|", left.merge(right))
        if isinstance(term, ir.MergeWith):
            left = self._merge_operand(term.left)
            right = self._merge_operand(term.right)
            monoid = self.env.monoids.get(term.op)
            return self._traced_merge(f"<|{term.op}", left.merge_with(right, monoid.combine))
        if isinstance(term, ir.RangeTerm):
            lower = self.evaluate_local(term.lower, {})
            upper = self.evaluate_local(term.upper, {})
            return self.env.context.range_dataset(int(lower), int(upper))
        if isinstance(term, ir.EmptyBag):
            return self.env.context.empty()
        if isinstance(term, ir.CVar):
            return self._lookup(term.name, {})
        return self.evaluate_local(term, {})

    def _traced_merge(self, op: str, merged: Dataset) -> Dataset:
        """Log an array merge and how it runs: co-partitioned sides merge in
        a narrow zip pass, anything else in a coGroup shuffle."""
        how = "narrow zip of co-partitioned sides" if merged.provenance else "shuffle"
        self.trace.append(f"merge ({op}) via coGroup: {how}")
        return merged

    def evaluate_bag(self, term: ir.Term) -> Dataset:
        """Evaluate a term that denotes a bag, coercing the result to a Dataset."""
        return self.as_dataset(self.evaluate(term))

    def as_dataset(self, value: Any) -> Dataset:
        """Coerce a driver value to a Dataset."""
        dataset = self._collection(value)
        if dataset is None:
            raise ExecutionError(f"expected a collection, got {value!r}")
        return dataset

    def _collection(self, value: Any) -> Dataset | None:
        """``value`` as a Dataset when it is a collection, else None."""
        if isinstance(value, Dataset):
            return value
        if isinstance(value, dict):
            return self.env.context.parallelize_pairs(value)
        if isinstance(value, (list, tuple, set)):
            return self.env.context.parallelize(list(value))
        return None

    def _merge_operand(self, term: ir.Term) -> Dataset:
        """Evaluate one side of an array merge (⊳ / ⊳⊕).

        A loop-invariant side is materialized and hash-partitioned *once* per
        while loop: the merge's coGroup then either skips that side's
        map-side shuffle or (when the other side is co-partitioned too) runs
        as a fully narrow zip stage.  Merge operands are always key-value
        arrays, so partitioning by the pair key is well-defined.
        """
        if self._term_is_invariant(term):
            key = ("merge-side", term)
            hit = self.loop_cache.get(key)
            if hit is not None:
                self.env.context.metrics.record_loop_invariant_reuse()
                self.trace.append(f"loop-invariant merge side reused: {term}")
                return hit
            placed = (
                self.as_dataset(self.evaluate(term))
                .materialize()
                .partition_by(HashPartitioner(self.env.context.num_partitions))
            )
            self.loop_cache.put(key, placed, self._free(term))
            self.trace.append(f"loop-invariant merge side cached (hash-partitioned): {term}")
            return placed
        return self.as_dataset(self.evaluate(term))

    # ------------------------------------------------------------------
    # loop-invariance helpers
    # ------------------------------------------------------------------

    def _free(self, term: ir.Term) -> frozenset[str]:
        """``term``'s free variables, computed once per term and kept with
        the stored plans (the entry holds the term, so its id stays unique)."""
        key = ("free", id(term))
        entry = self.plans.get(key)
        if entry is None:
            entry = self.plans[key] = (term, frozenset(ir.free_variables(term)))
        return entry[1]

    def _term_is_invariant(self, term: ir.Term, bound: frozenset[str] = frozenset()) -> bool:
        """Whether ``term``'s free variables are loop-invariant (or locally bound)."""
        invariants = self._invariants
        if invariants is None:
            return False
        free = self._free(term)
        return free <= invariants or free - bound <= invariants

    def _node_invariant(
        self,
        build: _CompBuild,
        child_invariant: bool,
        *terms: ir.Term | None,
        binds: ir.Pattern | None = None,
    ) -> bool:
        """Invariance of a new plan node: child subtree, driver bindings and
        every referenced term must be iteration-independent.  The terms may
        read the variables of ``binds``, the pattern the node itself binds."""
        if self._invariants is None or not build.driver_invariant or not child_invariant:
            return False
        bound = build.bound_names()
        if binds is not None:
            bound |= frozenset(binds.variables())
        return all(
            self._term_is_invariant(term, bound) for term in terms if term is not None
        )

    # ------------------------------------------------------------------
    # comprehension evaluation: bind the run's inputs, build the plan once
    # ------------------------------------------------------------------

    def evaluate_comprehension(self, comp: ir.Comprehension) -> Dataset | list[Any]:
        """Bind one comprehension's run-time inputs and lower its plan, built
        on its first evaluation (see the module docstring).

        Returns a Dataset when the comprehension ranges over at least one
        dataset generator, or a plain list for purely local comprehensions
        (e.g. singleton bags).
        """
        if not comp.qualifiers:
            return [self.evaluate_local(comp.head, {})]
        bound = self._bind(comp)
        if bound is None:
            # A generator's domain is empty: the comprehension denotes the
            # empty bag and the remaining qualifiers were never evaluated.
            return self.env.context.empty()
        if not isinstance(bound, _Bound):
            return bound
        if not bound.rows:
            return [self.evaluate_local(comp.head, dict(bound.driver))]
        context = self.env.context
        knobs = (context.plan_optimize, context.num_partitions)
        key = ("plan", id(comp), tuple(bound.shape), self._invariants, knobs)
        plan = stored = self.plans.get(key)
        if plan is None:
            plan = self._build(comp, bound.shape)
        else:
            context.metrics.record_plan_cache_hit()
        self.trace.extend(plan.trace)
        self.last_plan = plan.root
        bindings = codegen.Bindings(bound.driver, self.env.values, self.env.functions, self.env.monoids)
        planner = Planner(context, self.trace, self.loop_cache, self.segments)
        if stored is not None:
            return planner.relower(plan.root, bindings, bound.inputs)
        dataset = planner.lower(plan.root, bindings, bound.inputs)  # annotates the new plan first
        # Published once annotated and lowered: a run on another thread
        # never binds a plan whose first lowering is under way.
        self.plans[key] = plan
        return dataset

    def _bind(self, comp: ir.Comprehension) -> _Bound | list[Any] | None:
        """Evaluate what the driver must, in qualifier order: the lets,
        conditions and group-by keys before the first scan, and every domain
        that reads no row variable.  Stops at an empty domain (None) and at a
        false driver condition (``[]``), so later domains are never
        evaluated -- the interpreter oracle never reaches them either."""
        bound = _Bound()
        driver = bound.driver
        rows: set[str] = set()
        for qualifier in comp.qualifiers:
            names = qualifier.bound_variables()
            if isinstance(qualifier, ir.Generator):
                free = self._free(qualifier.domain)
                if bound.rows and free & rows:
                    rows.update(names)  # a per-row domain: planned, not bound
                    continue
                pattern, domain = qualifier.pattern, qualifier.domain
                dataset = self._domain_dataset(domain, free, driver)
                if dataset is None:
                    # The domain is a local (driver) bag.
                    bag = codegen.local_bag(self.evaluate_local(domain, driver))
                    if not bound.rows and len(bag) == 1:
                        driver.update(_bind_pattern(pattern, bag[0]))
                        bound.shape.append(None)
                        continue
                    if bound.rows:
                        if not bag:
                            return None
                        for element in bag:
                            _bind_pattern(pattern, element)  # an element that does not fit raises here
                        bound.shape.append(None)
                        bound.inputs.append(bag)
                        rows.update(names)
                        continue
                    dataset = self.env.context.parallelize(bag)
                if dataset.is_empty():
                    return None
                bound.shape.append(dataset.partitioner is not None)
                bound.inputs.append(dataset)
                bound.rows = True
                rows.update(names)
            elif bound.rows:
                rows.update(names)
            elif isinstance(qualifier, ir.LetBinding):
                term = qualifier.term
                if isinstance(term, _BAG_TERMS) and not self._free(term) & driver.keys():
                    value = self.evaluate(term)  # may be a Dataset
                else:
                    value = self.evaluate_local(term, driver)
                driver.update(_bind_pattern(qualifier.pattern, value))
            elif isinstance(qualifier, ir.Condition):
                if not self.evaluate_local(qualifier.term, driver):
                    return []
            elif isinstance(qualifier, ir.GroupBy):
                # With no generators the group-by degenerates to a let of the
                # key; every "lifted" variable is already a single value.
                key = self.evaluate_local(qualifier.key_term(), driver)
                driver.update(_bind_pattern(qualifier.pattern, key))
            else:
                raise CompilationError(f"unknown qualifier {qualifier!r}")
        return bound

    def _build(self, comp: ir.Comprehension, shape: list[bool | None]) -> StoredPlan:
        """Build ``comp``'s plan for a bind of ``shape`` (annotated by its
        first lowering): the qualifier walk, join keys, invariance, the head.
        Structure only -- scans and local bags are slots each bind fills."""
        scalars = self._scalars
        if scalars is None:
            values = self.env.values.items()
            scalars = frozenset(name for name, value in values if not isinstance(value, Dataset))
        build = _CompBuild(iter(shape), scalars)
        consumed: set[int] = set()
        qualifiers = list(comp.qualifiers)
        for position, qualifier in enumerate(qualifiers):
            if position in consumed:
                continue
            if isinstance(qualifier, ir.Generator):
                self._generator(qualifier, qualifiers, position, consumed, build)
            elif isinstance(qualifier, ir.LetBinding):
                self._let(qualifier, build)
            elif isinstance(qualifier, ir.GroupBy):
                self._group_by(qualifier, qualifiers[position + 1 :], comp.head, build)
            elif build.rows is not None:
                self._condition(qualifier, build)
        head = comp.head
        head_key_term = None
        if isinstance(head, ir.CTuple) and len(head.elements) == 2:
            head_key_term = head.elements[0]
        node = NarrowNode(
            kind=plan_mod.MAP,
            kernel=functools.partial(vectorize.head_map, head, frozenset(build.bound_order)),
            child=build.rows,
            describe="head",
            head_key_term=head_key_term,
        )
        node.sig = ("head", head)
        node.invariant = self._node_invariant(build, build.rows.invariant, head)
        return StoredPlan(comp, node, tuple(build.trace))

    # -- generators -----------------------------------------------------------

    def _generator(
        self,
        qualifier: ir.Generator,
        qualifiers: list[ir.Qualifier],
        position: int,
        consumed: set[int],
        build: _CompBuild,
    ) -> None:
        pattern = qualifier.pattern
        domain = qualifier.domain
        if build.rows is not None and self._free(domain) & set(build.bound_order):
            # The domain depends on per-row values: a loop over it per row.
            build.trace.append(f"per-row expansion of generator over {domain}")
            self._expand(build, ("expand", pattern, domain), f"expand {domain}")
            return

        placed = next(build.shape)
        domain_invariant = build.driver_invariant and self._term_is_invariant(
            domain, frozenset(build.driver)
        )
        if placed is None:
            # The domain is a local (driver) bag: one element binds at the
            # driver before the first scan, after it the bag is a slot that
            # each row loops over.
            if build.rows is None:
                build.driver.update(pattern.variables())
                build.driver_invariant = domain_invariant
            else:
                self._expand(build, ("local-expand", pattern, domain), f"expand local {domain}", build.slot())
            return

        scan = ScanNode(term=domain, name=str(domain), placed=placed, slot=build.slot())
        scan.sig = ("scan", domain)
        scan.invariant = domain_invariant

        if build.rows is None:
            node = NarrowNode(
                kind=plan_mod.MAP,
                kernel=functools.partial(vectorize.bind_map, pattern),
                child=scan,
                describe=f"bind {pattern}",
            )
            node.sig = ("bind", pattern)
            node.rows = _row_names((), pattern)
            node.invariant = scan.invariant
            build.trace.append(f"scan {domain}")
            build.rows = node
            build.bound_order.extend(pattern.variables())
            return

        # Try to find equi-join conditions linking the new pattern to the rows
        # built so far.
        join_conditions = facts.join_keys(
            qualifiers, position, set(build.bound_order), build.scalars(), consumed
        )
        if join_conditions:
            node = self._hash_join_node(build, scan, pattern, join_conditions, domain)
            for condition_position, _left, _right in join_conditions:
                consumed.add(condition_position)
            build.trace.append(f"hash join on {len(join_conditions)} key(s) with {domain}")
        else:
            node = self._product_node(build, scan, pattern, domain)
            build.trace.append(f"broadcast nested-loop join with {domain} (no join key)")
        build.rows = node
        build.bound_order.extend(pattern.variables())

    def _expand(self, build: _CompBuild, sig: tuple, describe: str, slot: int | None = None) -> None:
        """Extend the rows by a generator over a per-row domain or the
        driver-local bag in ``slot``: a nested loop of the generated function."""
        _, pattern, domain = sig
        node = NarrowNode(child=build.rows, describe=describe, slot=slot)
        node.sig = sig
        node.rows = _row_names(build.rows.rows, pattern)
        node.invariant = self._node_invariant(build, build.rows.invariant, domain)
        build.rows = node
        build.bound_order.extend(pattern.variables())

    def _domain_dataset(
        self, domain: ir.Term, free: frozenset[str], driver_bindings: dict[str, Any]
    ) -> Dataset | None:
        """Return the domain (whose free variables are ``free``) as a Dataset
        when it is naturally one, else None.

        Datasets are memoized per statement by the domain *term* (common
        sub-expression elimination) and, when the term only mentions
        loop-invariant variables, per while loop -- so a sub-term scanned by
        several generators (or re-scanned every iteration) is computed once.
        """
        cacheable = not (free & driver_bindings.keys())
        invariant = cacheable and self._invariants is not None and free <= self._invariants
        if cacheable:
            cache_key = ("bag", domain)
            hit = self._term_dataset_cache.get(cache_key)
            if hit is not None:
                self.trace.append(f"CSE: reused sub-term dataset for {domain}")
                return hit
            if invariant:
                loop_hit = self.loop_cache.get(cache_key)
                if loop_hit is not None:
                    self.env.context.metrics.record_loop_invariant_reuse()
                    self.trace.append(f"loop-invariant sub-term reused: {domain}")
                    self._term_dataset_cache[cache_key] = loop_hit
                    return loop_hit
        dataset = self._build_domain_dataset(domain, driver_bindings)
        if dataset is not None and cacheable:
            self._term_dataset_cache[cache_key] = dataset
            if invariant and not isinstance(domain, ir.CVar):
                # Environment variables are already shared objects; derived
                # datasets (ranges, nested comprehensions) are worth hoisting.
                self.loop_cache.put(cache_key, dataset, free)
                self.trace.append(f"loop-invariant sub-term cached: {domain}")
        return dataset

    def _build_domain_dataset(
        self, domain: ir.Term, driver_bindings: dict[str, Any]
    ) -> Dataset | None:
        if isinstance(domain, ir.CVar):
            return self._collection(self._lookup(domain.name, driver_bindings))
        if isinstance(domain, ir.RangeTerm):
            lower = self.evaluate_local(domain.lower, dict(driver_bindings))
            upper = self.evaluate_local(domain.upper, dict(driver_bindings))
            return self.env.context.range_dataset(int(lower), int(upper))
        if isinstance(domain, (ir.Comprehension, ir.Merge, ir.MergeWith)):
            value = self.evaluate(domain)
            if isinstance(value, Dataset):
                return value
            if isinstance(value, list):
                return None if len(value) <= 1 else self.env.context.parallelize(value)
        return None

    def _hash_join_node(
        self,
        build: _CompBuild,
        scan: ScanNode,
        pattern: ir.Pattern,
        join_conditions: list[facts.JoinKey],
        domain: ir.Term,
    ) -> HashJoinNode:
        left_terms = tuple(left for _, left, _ in join_conditions)
        right_terms = tuple(right for _, _, right in join_conditions)
        node = HashJoinNode(
            left=build.rows,
            right=scan,
            left_key_terms=left_terms,
            right_key_terms=right_terms,
            pattern=pattern,
            domain_label=str(domain),
        )
        node.sig = ("hash-join", left_terms, right_terms, pattern)
        node.rows = _row_names(build.rows.rows, pattern)
        node.scalars = build.scalars()
        node.invariant = self._node_invariant(
            build,
            build.rows.invariant and scan.invariant,
            *left_terms,
            *right_terms,
            binds=pattern,
        )
        return node

    def _product_node(
        self, build: _CompBuild, scan: ScanNode, pattern: ir.Pattern, domain: ir.Term
    ) -> ProductNode:
        """Cartesian combination, broadcasting the smaller side when possible.

        The strategy itself (broadcast vs. cartesian, which side) is chosen
        by the planner at lowering time with the runtime's shared
        ``broadcast_join_threshold`` heuristic.
        """
        node = ProductNode(left=build.rows, right=scan, pattern=pattern, domain_label=str(domain))
        node.sig = ("product", pattern, domain)
        node.rows = _row_names(build.rows.rows, pattern)
        node.invariant = self._node_invariant(
            build, build.rows.invariant and scan.invariant
        )
        return node

    # -- let bindings and conditions ----------------------------------------------

    def _let(self, qualifier: ir.LetBinding, build: _CompBuild) -> None:
        pattern = qualifier.pattern
        term = qualifier.term
        if build.rows is None:
            build.driver.update(pattern.variables())
            build.driver_invariant = build.driver_invariant and self._term_is_invariant(
                term, frozenset(build.driver)
            )
            return
        node = NarrowNode(
            kind=plan_mod.MAP,
            kernel=functools.partial(vectorize.let_map, pattern, term, frozenset(build.bound_order)),
            child=build.rows,
            describe=f"let {pattern}",
            key_transparent=True,
            binds=tuple(pattern.variables()),
        )
        node.sig = ("let", pattern, term)
        node.rows = _row_names(build.rows.rows, pattern)
        node.invariant = self._node_invariant(build, build.rows.invariant, term)
        build.rows = node
        build.bound_order.extend(pattern.variables())

    def _condition(self, qualifier: ir.Condition, build: _CompBuild) -> None:
        term = qualifier.term
        node = NarrowNode(
            kind=plan_mod.FILTER,
            kernel=functools.partial(vectorize.row_filter, term, frozenset(build.bound_order)),
            child=build.rows,
            describe=f"filter {term}",
            key_transparent=True,
        )
        node.sig = ("filter", term)
        node.rows = build.rows.rows
        node.invariant = self._node_invariant(build, build.rows.invariant, term)
        build.rows = node

    # -- group-by -------------------------------------------------------------------

    def _group_by(
        self,
        qualifier: ir.GroupBy,
        post_qualifiers: list[ir.Qualifier],
        head: ir.Term,
        build: _CompBuild,
    ) -> None:
        key_term = qualifier.key_term()
        pattern = qualifier.pattern
        if build.rows is None:
            build.driver.update(pattern.variables())
            build.driver_invariant = build.driver_invariant and self._term_is_invariant(
                key_term, frozenset(build.driver)
            )
            return
        pattern_variables = list(pattern.variables())
        lifted = [name for name in build.bound_order if name not in pattern_variables]
        pattern_term = ir.pattern_to_term(pattern)

        aggregation = facts.reduce_shape(head, post_qualifiers, pattern_variables, lifted)
        if aggregation is not None:
            op, value_name = aggregation
            build.trace.append(f"group-by on {key_term} compiled to reduceByKey({op})")
            # Rows are keyed (key, row[value]); a reduced pair is rebuilt into
            # a row binding the pattern to the key and the lifted variable to
            # its already-reduced aggregate, which local evaluation of
            # Aggregate(op, var) returns unchanged.
            node = ReduceByKeyNode(
                child=build.rows,
                key_term=key_term,
                pattern=pattern,
                value_name=value_name,
                pattern_term=pattern_term,
                monoid_op=op,
                key_kernel=functools.partial(
                    vectorize.key_value_map, key_term, value_name, frozenset(build.bound_order)
                ),
            )
            node.sig = ("reduce-by-key", op, key_term, pattern)
            node.rows = _row_names((), pattern, f"__aggregate_{value_name}", value_name)
            node.invariant = self._node_invariant(build, build.rows.invariant, key_term)
            build.rows = node
            build.bound_order[:] = pattern_variables + lifted
            return

        build.trace.append(f"group-by on {key_term} compiled to groupByKey")
        node = GroupByKeyNode(
            child=build.rows,
            key_term=key_term,
            pattern=pattern,
            lifted=tuple(lifted),
            pattern_term=pattern_term,
        )
        node.sig = ("group-by-key", key_term, pattern, tuple(lifted))
        node.rows = _row_names((), pattern, *lifted)
        node.invariant = self._node_invariant(build, build.rows.invariant, key_term)
        build.rows = node
        build.bound_order[:] = pattern_variables + lifted

    # ------------------------------------------------------------------
    # local (per-task) evaluation
    # ------------------------------------------------------------------

    def evaluate_local(self, term: ir.Term, bindings: dict[str, Any]) -> Any:
        """Evaluate a scalar (or local-bag) term under per-row bindings."""
        if isinstance(term, ir.CVar):
            return self._lookup(term.name, bindings)
        if isinstance(term, ir.CConst):
            return term.value
        if isinstance(term, ir.CTuple):
            return tuple(self.evaluate_local(e, bindings) for e in term.elements)
        if isinstance(term, ir.CRecord):
            return {name: self.evaluate_local(e, bindings) for name, e in term.fields}
        if isinstance(term, ir.CProject):
            return operators.project_value(self.evaluate_local(term.base, bindings), term.attribute)
        if isinstance(term, ir.CBinOp):
            if term.op == "&&":
                return bool(self.evaluate_local(term.left, bindings)) and bool(
                    self.evaluate_local(term.right, bindings)
                )
            if term.op == "||":
                return bool(self.evaluate_local(term.left, bindings)) or bool(
                    self.evaluate_local(term.right, bindings)
                )
            left = self.evaluate_local(term.left, bindings)
            right = self.evaluate_local(term.right, bindings)
            return operators.apply_binary(term.op, left, right, self.env.monoids)
        if isinstance(term, ir.CUnaryOp):
            return operators.apply_unary(term.op, self.evaluate_local(term.operand, bindings))
        if isinstance(term, ir.CCall):
            if term.function == "_update_field":
                record = self.evaluate_local(term.arguments[0], bindings)
                attribute = self.evaluate_local(term.arguments[1], bindings)
                value = self.evaluate_local(term.arguments[2], bindings)
                return operators.update_field(record, str(attribute), value)
            if term.function not in self.env.functions:
                raise ExecutionError(f"unknown function {term.function!r}")
            function = self.env.functions.get(term.function)
            arguments = [self.evaluate_local(a, bindings) for a in term.arguments]
            return function(*arguments)
        if isinstance(term, ir.Aggregate):
            operand = self.evaluate_local(term.operand, bindings)
            return self._aggregate(term.op, operand)
        if isinstance(term, ir.InRange):
            value = self.evaluate_local(term.value, bindings)
            lower = self.evaluate_local(term.lower, bindings)
            upper = self.evaluate_local(term.upper, bindings)
            return lower <= value <= upper
        if isinstance(term, ir.RangeTerm):
            lower = int(self.evaluate_local(term.lower, bindings))
            upper = int(self.evaluate_local(term.upper, bindings))
            return list(range(lower, upper + 1))
        if isinstance(term, ir.Comprehension):
            return self._local_comprehension(term, bindings)
        if isinstance(term, ir.EmptyBag):
            return []
        raise ExecutionError(f"cannot evaluate term {term!r} locally")

    def _aggregate(self, op: str, operand: Any) -> Any:
        def fuse(function: Any) -> Any:
            # A dataset's fold runs inside the generated loop where it can.
            twin = folding_twin(function, op, self.env.monoids)
            if twin is not None:
                self.trace.append(f"{ir.op_text(op)}/ folded inside the generated loop: {twin.label}")
            return twin

        return codegen.aggregate(op, operand, self.env.monoids, fuse)

    def _local_comprehension(self, comp: ir.Comprehension, bindings: dict[str, Any]) -> list[Any]:
        """Evaluate a comprehension entirely locally (no dataset operations),
        one qualifier at a time over the list of its rows."""
        if any(isinstance(qualifier, ir.GroupBy) for qualifier in comp.qualifiers):
            raise CompilationError(f"group-by inside a locally evaluated comprehension: {comp}")
        rows: list[dict[str, Any]] = [dict(bindings)]
        for qualifier in comp.qualifiers:
            if isinstance(qualifier, ir.Generator):
                rows = [
                    {**row, **_bind_pattern(qualifier.pattern, element)}
                    for row in rows
                    for element in codegen.local_bag(self.evaluate_local(qualifier.domain, row))
                ]
            elif isinstance(qualifier, ir.LetBinding):
                rows = [
                    {**row, **_bind_pattern(qualifier.pattern, self.evaluate_local(qualifier.term, row))}
                    for row in rows
                ]
            elif isinstance(qualifier, ir.Condition):
                rows = [row for row in rows if bool(self.evaluate_local(qualifier.term, row))]
            else:
                raise ExecutionError(f"unknown qualifier {qualifier!r}")
        return [self.evaluate_local(comp.head, row) for row in rows]

    def _lookup(self, name: str, bindings: dict[str, Any]) -> Any:
        if name in bindings:
            return bindings[name]
        if name in self.env.values:
            return self.env.values[name]
        raise ExecutionError(f"undefined variable {name!r}")


def _row_names(names: tuple[str, ...], pattern: ir.Pattern, *more: str) -> tuple[str, ...]:
    """Row keys after extending ``names`` by ``pattern``'s variables and ``more``
    (dict semantics: a rebound name keeps its position)."""
    return tuple(dict.fromkeys((*names, *pattern.variables(), *more)))


def _bind_pattern(pattern: ir.Pattern, value: Any) -> dict[str, Any]:
    """Destructure ``value`` according to ``pattern``, producing bindings."""
    if isinstance(pattern, ir.PVar):
        return {pattern.name: value}
    if isinstance(pattern, ir.PWildcard):
        return {}
    if isinstance(pattern, ir.PTuple):
        codegen.check_bind(pattern, value)
        bindings: dict[str, Any] = {}
        for sub_pattern, sub_value in zip(pattern.elements, value, strict=False):
            bindings.update(_bind_pattern(sub_pattern, sub_value))
        return bindings
    raise ExecutionError(f"unknown pattern {pattern!r}")
