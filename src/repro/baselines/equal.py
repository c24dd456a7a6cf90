"""Hand-written Equal (Figure 3.B).

The paper's hand-written Spark program compares every element with the
first one.  The DIABLO program compares against an explicit input value
``x``; this baseline does the same, mapping each element of ``words`` to
``word == x`` and folding with logical and, so the two are directly
comparable.
"""

from __future__ import annotations

from typing import Any

from repro.runtime.context import DistributedContext


def distributed(context: DistributedContext, inputs: dict[str, Any]) -> dict[str, Any]:
    """Map to booleans and reduce with logical and."""
    words = context.parallelize(inputs["words"])
    target = inputs["x"]
    all_equal = words.map(lambda word: word == target).fold(True, lambda a, b: a and b)
    return {"eq": all_equal}


def sequential(inputs: dict[str, Any]) -> dict[str, Any]:
    """Plain-Python reference implementation."""
    target = inputs["x"]
    return {"eq": all(word == target for word in inputs["words"])}
