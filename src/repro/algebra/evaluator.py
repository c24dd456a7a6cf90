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

from dataclasses import dataclass, field
from typing import Any

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


@dataclass
class _CompBuild:
    """Mutable state of one comprehension's plan construction.

    ``driver_invariant`` tracks whether every driver-level binding so far was
    computed from loop-invariant data -- a prerequisite for marking plan
    nodes (whose closures capture those bindings) loop-invariant.
    """

    rows: PlanNode | None = None
    bound_order: list[str] = field(default_factory=list)
    driver_bindings: dict[str, Any] = field(default_factory=dict)
    driver_invariant: bool = True
    driver_alive: bool = True
    #: Set when a generator's domain is empty: the comprehension denotes the
    #: empty bag and the remaining qualifiers are neither built nor
    #: evaluated (matching the sequential interpreter, which never reaches
    #: inner loops of an empty outer loop).
    dead: bool = False
    #: Whether the finished plan tree may enter the per-loop
    #: :class:`~repro.algebra.planner.LoopInvariantCache` as a skeleton.
    #: Cleared whenever a build-time snapshot (a local bag held by an expand
    #: node, a driver-evaluated condition, a derived scan dataset) captured a
    #: value that could change across iterations; everything else in the tree's
    #: closures resolves late through ``env.values`` or is rebound on reuse.
    skeleton_safe: bool = True
    #: Scan leaves over mutable bare program variables, with the variable
    #: name: a reused skeleton rebinds each to the variable's current value.
    rebind_scans: list[tuple[ScanNode, str]] = field(default_factory=list)
    #: What the comprehension's generated functions close over; created with
    #: the first row node, when the driver bindings are final.
    bindings: codegen.Bindings | None = None

    def bound_names(self) -> frozenset[str]:
        return frozenset(self.bound_order) | frozenset(self.driver_bindings)


class TermEvaluator:
    """Evaluates comprehension terms against an :class:`EvaluationEnvironment`."""

    def __init__(
        self,
        environment: EvaluationEnvironment,
        trace: list[str] | None = None,
        loop_cache: LoopInvariantCache | None = None,
        segments: dict[Any, Any] | None = None,
    ):
        self.env = environment
        #: Compiled row-segment factories (see :func:`codegen.generate`);
        #: the runner passes the program's memo, so they compile once.
        self.segments: dict[Any, Any] = segments if segments is not None else {}
        #: Per-statement CSE memo: comprehension sub-term -> lowered Dataset.
        self._term_dataset_cache: dict[Any, Dataset] = {}
        #: While-loop cache shared across iterations (None outside loops).
        #: It holds loop-invariant datasets when the context's
        #: ``plan_optimize`` knob is on and plan skeletons when its
        #: ``plan_cache`` knob is.
        self.loop_cache = loop_cache
        hoist = loop_cache is not None and environment.context.plan_optimize
        self._invariants = loop_cache.invariants if hoist else None
        self._skeletons = loop_cache is not None and environment.context.plan_cache
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
            self.loop_cache.put(key, placed, ir.free_variables(term))
            self.trace.append(f"loop-invariant merge side cached (hash-partitioned): {term}")
            return placed
        return self.as_dataset(self.evaluate(term))

    # ------------------------------------------------------------------
    # loop-invariance helpers
    # ------------------------------------------------------------------

    def _term_is_invariant(self, term: ir.Term, bound: frozenset[str] = frozenset()) -> bool:
        """Whether ``term``'s free variables are loop-invariant (or locally bound)."""
        invariants = self._invariants
        if invariants is None:
            return False
        return all(
            name in invariants or name in bound for name in ir.free_variables(term)
        )

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
    # comprehension evaluation
    # ------------------------------------------------------------------

    def evaluate_comprehension(self, comp: ir.Comprehension) -> Dataset | list[Any]:
        """Build and lower the logical plan for one comprehension.

        Returns a Dataset when the comprehension ranges over at least one
        dataset generator, or a plain list for purely local comprehensions
        (e.g. singleton bags).
        """
        if self._skeletons:
            reused = self._reuse_plan_skeleton(comp)
            if reused is not None:
                return reused
        build = _CompBuild()
        consumed: set[int] = set()
        qualifiers = list(comp.qualifiers)

        for position, qualifier in enumerate(qualifiers):
            if position in consumed:
                continue
            if not build.driver_alive or build.dead:
                break
            if isinstance(qualifier, ir.Generator):
                self._generator(qualifier, qualifiers, position, consumed, build)
            elif isinstance(qualifier, ir.LetBinding):
                self._let(qualifier, build)
            elif isinstance(qualifier, ir.Condition):
                self._condition(qualifier, build)
            elif isinstance(qualifier, ir.GroupBy):
                self._group_by(qualifier, qualifiers[position + 1 :], comp.head, build)
            else:
                raise CompilationError(f"unknown qualifier {qualifier!r}")

        if build.dead:
            # Nothing left to do; the result is empty regardless of the
            # remaining qualifiers.
            return self.env.context.empty()
        if not build.driver_alive:
            return []
        if build.rows is None:
            return [self.evaluate_local(comp.head, dict(build.driver_bindings))]
        head = comp.head
        head_key_term = None
        if isinstance(head, ir.CTuple) and len(head.elements) == 2:
            head_key_term = head.elements[0]
        node = NarrowNode(
            kind=plan_mod.MAP,
            kernel=vectorize.head_map(head, frozenset(build.bound_order), build.bindings),
            child=build.rows,
            describe="head",
            head_key_term=head_key_term,
        )
        node.sig = ("head", head)
        node.bindings = build.bindings
        node.invariant = self._node_invariant(build, build.rows.invariant, head)
        lowered = self._lower_plan(node)
        if self._skeletons and build.skeleton_safe and build.driver_invariant:
            depends = frozenset(ir.free_variables(comp)) & (self._invariants or frozenset())
            try:
                skeleton = (node, tuple(build.rebind_scans))
                self.loop_cache.put(("skeleton", comp), skeleton, depends)
            except TypeError:
                # A term holding an unhashable constant cannot key the cache.
                pass
            else:
                self.trace.append(
                    f"plan skeleton cached ({len(build.rebind_scans)} rebindable scan(s))"
                )
        return lowered

    def _planner(self) -> Planner:
        return Planner(self.env.context, self.trace, self.loop_cache, self.segments)

    def _reuse_plan_skeleton(self, comp: ir.Comprehension) -> Dataset | None:
        """Rebind and re-lower a cached plan skeleton for ``comp``, if any.

        Returns None (build from scratch) when there is no cached skeleton, a
        mutated scan variable no longer holds a collection, or its placement
        differs from what the skeleton was annotated over (the annotate pass
        reads each scan's partitioner)."""
        try:
            entry = self.loop_cache.get(("skeleton", comp))
        except TypeError:
            return None
        if entry is None:
            return None
        root, rebinds = entry
        datasets: dict[str, Dataset] = {}
        for _scan, name in rebinds:
            if name not in datasets:
                dataset = self._collection(self.env.values.get(name))
                if dataset is None:
                    return None
                datasets[name] = dataset
        for scan, name in rebinds:
            if datasets[name].partitioner != scan.dataset.partitioner:
                self.trace.append(f"plan skeleton rebuilt: {name} changed placement")
                return None
        for scan, name in rebinds:
            scan.dataset = datasets[name]
        self.env.context.metrics.record_plan_cache_hit()
        self.trace.append(f"plan skeleton reused ({len(rebinds)} scan(s) rebound)")
        self.last_plan = root
        return self._planner().relower(root)

    def _lower_plan(self, root: PlanNode) -> Dataset:
        self.last_plan = root
        return self._planner().lower(root)

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
        domain_variables = ir.free_variables(domain)
        row_dependent = build.rows is not None and any(
            name in build.bound_order for name in domain_variables
        )

        if row_dependent:
            # The domain depends on per-row values: a loop over it per row.
            self.trace.append(f"per-row expansion of generator over {domain}")
            self._expand(build, ("expand", pattern, domain), f"expand {domain}")
            return

        dataset = self._domain_dataset(domain, build.driver_bindings)
        from_environment = dataset is not None
        domain_invariant = build.driver_invariant and self._term_is_invariant(
            domain, frozenset(build.driver_bindings)
        )
        if dataset is None:
            # The domain is a local (driver) bag: bind it per element.
            bag = codegen.local_bag(self.evaluate_local(domain, dict(build.driver_bindings)))
            if build.rows is None:
                if len(bag) == 1:
                    binding = _bind_pattern(pattern, bag[0])
                    build.driver_bindings.update(binding)
                    build.driver_invariant = build.driver_invariant and domain_invariant
                    return
                dataset = self.env.context.parallelize(bag)
            else:
                if not bag:
                    build.dead = True
                    return
                for element in bag:
                    _bind_pattern(pattern, element)  # an element that does not fit raises here
                sig = ("local-expand", pattern, domain)
                self._expand(build, sig, f"expand local {domain}", bag)
                if not domain_invariant:
                    # The node snapshots the bag; a variant domain would
                    # serve iteration 1's elements forever.
                    build.skeleton_safe = False
                return

        if dataset.is_empty():
            # A generator over an empty bag empties the whole comprehension:
            # stop here so the remaining qualifiers' domains are never
            # evaluated (the interpreter oracle never reaches them either).
            build.dead = True
            return

        scan = ScanNode(dataset=dataset, term=domain, name=str(domain))
        scan.sig = ("scan", domain)
        scan.invariant = domain_invariant
        if not domain_invariant:
            if (
                from_environment
                and isinstance(domain, ir.CVar)
                and domain.name not in build.driver_bindings
            ):
                # A mutable bare program variable: a reused skeleton rebinds
                # this leaf to the variable's current dataset.
                build.rebind_scans.append((scan, domain.name))
            else:
                # A variant derived dataset (range over a mutated bound, a
                # nested comprehension, a parallelized local bag) is baked in
                # at build time and cannot be refreshed structurally.
                build.skeleton_safe = False

        if build.rows is None:
            # Driver-level qualifiers cannot follow a row node, so the driver
            # bindings are final here.  Other scalars resolve late, through
            # the live ``env.values``: plan nodes are CSE/loop-cached, so a
            # function built in one loop iteration may run in a later one.
            build.bindings = codegen.Bindings(
                dict(build.driver_bindings), self.env.values, self.env.functions, self.env.monoids
            )
            node = NarrowNode(
                kind=plan_mod.MAP,
                kernel=vectorize.bind_map(pattern),
                child=scan,
                describe=f"bind {pattern}",
            )
            node.sig = ("bind", pattern)
            node.rows = _row_names((), pattern)
            node.bindings = build.bindings
            node.invariant = scan.invariant
            self.trace.append(f"scan {domain}")
            build.rows = node
            build.bound_order.extend(pattern.variables())
            return

        # Try to find equi-join conditions linking the new pattern to the rows
        # built so far.
        scalars = set(build.driver_bindings)
        scalars.update(
            name for name, value in self.env.values.items() if not isinstance(value, Dataset)
        )
        join_conditions = facts.join_keys(
            qualifiers, position, set(build.bound_order), scalars, consumed
        )
        if join_conditions:
            node = self._hash_join_node(build, scan, pattern, join_conditions, domain)
            for condition_position, _left, _right in join_conditions:
                consumed.add(condition_position)
            self.trace.append(
                f"hash join on {len(join_conditions)} key(s) with {domain}"
            )
        else:
            node = self._product_node(build, scan, pattern, domain)
            self.trace.append(f"broadcast nested-loop join with {domain} (no join key)")
        build.rows = node
        build.bound_order.extend(pattern.variables())

    def _expand(self, build: _CompBuild, sig: tuple, describe: str, bag: list[Any] | None = None) -> None:
        """Extend the rows by a generator over a per-row domain or a
        driver-local ``bag``: a nested loop of the generated function."""
        _, pattern, domain = sig
        node = NarrowNode(child=build.rows, describe=describe, bag=bag)
        node.sig = sig
        node.rows = _row_names(build.rows.rows, pattern)
        node.bindings = build.bindings
        node.invariant = self._node_invariant(build, build.rows.invariant, domain)
        build.rows = node
        build.bound_order.extend(pattern.variables())

    def _domain_dataset(self, domain: ir.Term, driver_bindings: dict[str, Any]) -> Dataset | None:
        """Return the domain as a Dataset when it is naturally one, else None.

        Datasets are memoized per statement by the domain *term* (common
        sub-expression elimination) and, when the term only mentions
        loop-invariant variables, per while loop -- so a sub-term scanned by
        several generators (or re-scanned every iteration) is computed once.
        """
        cacheable = not (ir.free_variables(domain) & set(driver_bindings))
        cache_key = ("bag", domain)
        if cacheable:
            hit = self._term_dataset_cache.get(cache_key)
            if hit is not None:
                self.trace.append(f"CSE: reused sub-term dataset for {domain}")
                return hit
            if self._term_is_invariant(domain):
                loop_hit = self.loop_cache.get(cache_key)
                if loop_hit is not None:
                    self.env.context.metrics.record_loop_invariant_reuse()
                    self.trace.append(f"loop-invariant sub-term reused: {domain}")
                    self._term_dataset_cache[cache_key] = loop_hit
                    return loop_hit
        dataset = self._build_domain_dataset(domain, driver_bindings)
        if dataset is not None and cacheable:
            self._term_dataset_cache[cache_key] = dataset
            if self._term_is_invariant(domain) and not isinstance(domain, ir.CVar):
                # Environment variables are already shared objects; derived
                # datasets (ranges, nested comprehensions) are worth hoisting.
                self.loop_cache.put(cache_key, dataset, ir.free_variables(domain))
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
        node.bindings = build.bindings
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
        node.bindings = build.bindings
        node.invariant = self._node_invariant(
            build, build.rows.invariant and scan.invariant
        )
        return node

    # -- let bindings and conditions ----------------------------------------------

    def _let(self, qualifier: ir.LetBinding, build: _CompBuild) -> None:
        pattern = qualifier.pattern
        term = qualifier.term
        if build.rows is None:
            bag = isinstance(term, (ir.Comprehension, ir.Merge, ir.MergeWith, ir.RangeTerm))
            if bag and not ir.free_variables(term) & build.driver_bindings.keys():
                value = self.evaluate(term)  # may be a Dataset
            else:
                value = self.evaluate_local(term, dict(build.driver_bindings))
            binding = _bind_pattern(pattern, value)
            build.driver_bindings.update(binding)
            build.driver_invariant = build.driver_invariant and self._term_is_invariant(
                term, frozenset(build.driver_bindings)
            )
            return
        node = NarrowNode(
            kind=plan_mod.MAP,
            kernel=vectorize.let_map(pattern, term, frozenset(build.bound_order), build.bindings),
            child=build.rows,
            describe=f"let {pattern}",
            key_transparent=True,
            binds=tuple(pattern.variables()),
        )
        node.sig = ("let", pattern, term)
        node.rows = _row_names(build.rows.rows, pattern)
        node.bindings = build.bindings
        node.invariant = self._node_invariant(build, build.rows.invariant, term)
        build.rows = node
        build.bound_order.extend(pattern.variables())

    def _condition(self, qualifier: ir.Condition, build: _CompBuild) -> None:
        if build.rows is None:
            value = self.evaluate_local(qualifier.term, dict(build.driver_bindings))
            build.driver_alive = build.driver_alive and bool(value)
            if not self._term_is_invariant(
                qualifier.term, frozenset(build.driver_bindings)
            ):
                # The plan's shape depends on this driver-evaluated truth
                # value; a variant condition could flip on a later iteration.
                build.skeleton_safe = False
            return
        term = qualifier.term
        node = NarrowNode(
            kind=plan_mod.FILTER,
            kernel=vectorize.row_filter(term, frozenset(build.bound_order), build.bindings),
            child=build.rows,
            describe=f"filter {term}",
            key_transparent=True,
        )
        node.sig = ("filter", term)
        node.rows = build.rows.rows
        node.bindings = build.bindings
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
        if build.rows is None:
            # With no generators the group-by degenerates to a let of the key;
            # every "lifted" variable is already a single value.
            key_value = self.evaluate_local(qualifier.key_term(), dict(build.driver_bindings))
            build.driver_bindings.update(_bind_pattern(qualifier.pattern, key_value))
            build.driver_invariant = build.driver_invariant and self._term_is_invariant(
                qualifier.key_term(), frozenset(build.driver_bindings)
            )
            return
        key_term = qualifier.key_term()
        pattern = qualifier.pattern
        pattern_variables = list(pattern.variables())
        lifted = [name for name in build.bound_order if name not in pattern_variables]
        pattern_term = ir.pattern_to_term(pattern)

        aggregation = facts.reduce_shape(head, post_qualifiers, pattern_variables, lifted)
        if aggregation is not None:
            op, value_name = aggregation
            monoid = self.env.monoids.get(op)
            self.trace.append(f"group-by on {key_term} compiled to reduceByKey({op})")
            # Rows are keyed (key, row[value]); a reduced pair is rebuilt into
            # a row binding the pattern to the key and the lifted variable to
            # its already-reduced aggregate, which local evaluation of
            # Aggregate(op, var) returns unchanged.
            node = ReduceByKeyNode(
                child=build.rows,
                combine_fn=vectorize.vector_combine(op, monoid.combine),
                key_term=key_term,
                pattern=pattern,
                value_name=value_name,
                pattern_term=pattern_term,
                monoid_op=op,
                key_kernel=vectorize.key_value_map(
                    key_term, value_name, frozenset(build.bound_order), build.bindings
                ),
            )
            node.sig = ("reduce-by-key", op, key_term, pattern)
            node.rows = _row_names((), pattern, f"__aggregate_{value_name}", value_name)
            node.bindings = build.bindings
            node.invariant = self._node_invariant(build, build.rows.invariant, key_term)
            build.rows = node
            build.bound_order[:] = pattern_variables + lifted
            return

        self.trace.append(f"group-by on {key_term} compiled to groupByKey")
        node = GroupByKeyNode(
            child=build.rows,
            key_term=key_term,
            pattern=pattern,
            lifted=tuple(lifted),
            pattern_term=pattern_term,
        )
        node.sig = ("group-by-key", key_term, pattern, tuple(lifted))
        node.rows = _row_names((), pattern, *lifted)
        node.bindings = build.bindings
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
