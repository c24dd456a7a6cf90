"""Compilation of monoid comprehensions to DISC dataflow and execution.

* :mod:`repro.algebra.evaluator` -- walks comprehension terms and builds the
  logical plan: equi-joins discovered from generator/condition patterns,
  group-bys turned into groupByKey or reduceByKey, array merges ⊳ / ⊳⊕ into
  coGroups.
* :mod:`repro.algebra.plan` -- the logical plan nodes the evaluator builds
  (scan / narrow / hash-join / product / reduce- and group-by-key), carrying
  the IR terms and invariance metadata the planner optimizes with.
* :mod:`repro.algebra.planner` -- annotates plans (partitioner propagation)
  and lowers them to runtime Datasets, eliminating shuffles over
  co-partitioned inputs and caching loop-invariant sub-plans.
* :mod:`repro.algebra.runner` -- executes whole target programs (the output of
  the translator) over caller-supplied inputs, with while-loop invariant
  hoisting and per-iteration shuffle accounting.
* :mod:`repro.algebra.explain` -- renders the dataflow decisions taken for a
  term (which joins, which shuffles, which eliminations) for docs and tests.
"""

from repro._lazy import lazy_surface

_EXPORTS = {
    "TermEvaluator": "repro.algebra.evaluator",
    "EvaluationEnvironment": "repro.algebra.evaluator",
    "LoopInvariantCache": "repro.algebra.planner",
    "Planner": "repro.algebra.planner",
    "ProgramRunner": "repro.algebra.runner",
    "ProgramResult": "repro.algebra.runner",
    "explain_plan": "repro.algebra.explain",
    "explain_term": "repro.algebra.explain",
}
__all__ = list(_EXPORTS)
__getattr__, __dir__ = lazy_surface(__name__, _EXPORTS)
