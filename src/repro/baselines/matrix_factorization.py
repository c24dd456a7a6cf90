"""Hand-written Matrix Factorization gradient-descent step (Figure 3.L).

Spark original (Appendix B): element-wise operations expressed as joins and
matrix products expressed as join + reduceByKey::

    E = R - P x Q
    P = P + a * (2 * E x Qᵀ - b * P)
    Q = Q + a * (2 * (Eᵀ x P)ᵀ - b * Q)

The error matrix ``E`` only has entries where ``R`` does (the element-wise
operations are inner joins), exactly like the DIABLO program, which evaluates
the update only on the provided ratings.  Like the loop program, the factor
updates add one term ``a * (2 * e * q - b * p)`` per rating and rank index:
an entry is regularized once per rating in its row (P) or column (Q), and an
entry with no rating keeps its value.
"""

from __future__ import annotations

from collections import defaultdict
from typing import Any

from repro.arrays.sparse import SparseMatrix
from repro.runtime.context import DistributedContext


def distributed(context: DistributedContext, inputs: dict[str, Any]) -> dict[str, Any]:
    """One gradient-descent step with join-based matrix algebra."""
    learning_rate = inputs["a"]
    regularization = inputs["b"]
    ratings = SparseMatrix.from_dict(context, inputs["R"])
    factors_p = SparseMatrix.from_dict(context, inputs["Pp"])
    factors_q = SparseMatrix.from_dict(context, inputs["Qp"])

    predicted = factors_p.multiply(factors_q)
    # E = R - P x Q on the support of R (inner join).
    error = SparseMatrix(
        ratings.data.join(predicted.data).map_values(lambda pair: pair[0] - pair[1])
    )

    # Every (rating (i, j), rank index k) with its error, Q[k, j] and P[i, k]:
    # join E and Q on j, then P on (i, k).
    errors_by_column = error.data.map(lambda record: (record[0][1], (record[0][0], record[1])))
    q_by_column = factors_q.data.map(lambda record: (record[0][1], (record[0][0], record[1])))
    terms = (
        errors_by_column.join(q_by_column)
        .map(
            lambda record: (
                (record[1][0][0], record[1][1][0]),
                (record[0], record[1][0][1], record[1][1][1]),
            )
        )
        .join(factors_p.data)
    )

    def p_term(record: Any) -> Any:
        (i, k), ((_j, err, q_value), p_value) = record
        return (i, k), learning_rate * (2 * err * q_value - regularization * p_value)

    def q_term(record: Any) -> Any:
        (i, k), ((j, err, q_value), p_value) = record
        return (k, j), learning_rate * (2 * err * p_value - regularization * q_value)

    def add(a_value: Any, b_value: Any) -> Any:
        return a_value + b_value

    step_p = SparseMatrix(terms.map(p_term).reduce_by_key(add))
    step_q = SparseMatrix(terms.map(q_term).reduce_by_key(add))
    new_p = factors_p.merge_with(step_p, add)
    new_q = factors_q.merge_with(step_q, add)
    return {"P": new_p.to_dict(), "Q": new_q.to_dict(), "E": error.to_dict()}


def sequential(inputs: dict[str, Any]) -> dict[str, Any]:
    """Plain-Python reference implementation of the same step."""
    learning_rate = inputs["a"]
    regularization = inputs["b"]
    ratings = inputs["R"]
    factors_p = dict(inputs["Pp"])
    factors_q = dict(inputs["Qp"])
    rank = inputs["l"]

    error: dict[tuple[int, int], float] = {}
    for (i, j), rating in ratings.items():
        predicted = sum(
            factors_p.get((i, k), 0.0) * factors_q.get((k, j), 0.0) for k in range(rank)
        )
        error[(i, j)] = rating - predicted

    step_p: dict[tuple[int, int], float] = defaultdict(float)
    step_q: dict[tuple[int, int], float] = defaultdict(float)
    for (i, j), err in error.items():
        for k in range(rank):
            if (i, k) not in factors_p or (k, j) not in factors_q:
                continue
            p_value = factors_p[(i, k)]
            q_value = factors_q[(k, j)]
            step_p[(i, k)] += learning_rate * (2 * err * q_value - regularization * p_value)
            step_q[(k, j)] += learning_rate * (2 * err * p_value - regularization * q_value)

    new_p = {key: value + step_p[key] if key in step_p else value for key, value in factors_p.items()}
    new_q = {key: value + step_q[key] if key in step_q else value for key, value in factors_q.items()}
    return {"P": new_p, "Q": new_q, "E": error}
