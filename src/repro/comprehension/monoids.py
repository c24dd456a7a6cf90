"""Commutative monoids used by incremental updates and aggregations.

Section 3.5 of the paper restricts incremental updates to the form
``d ⊕= e`` where ⊕ is a *commutative* operation: the translation groups the
``e`` values by the destination index and reduces each group with ⊕, and a
DISC group-by does not preserve the original order of the data, so a
non-commutative ⊕ could change the result.

A :class:`Monoid` bundles the operator symbol used in the source program, the
identity element (used when an incremental update targets an array entry that
does not exist yet -- the paper assumes zero-initialized arrays), and the
binary combine function.  The :class:`MonoidRegistry` maps operator symbols to
monoids; programs such as KMeans register custom monoids (``^`` for the
arg-min record, ``^^`` for the running average).
"""

from __future__ import annotations

import itertools
import operator
from dataclasses import dataclass
from typing import Any, Callable


@dataclass(frozen=True)
class Monoid:
    """A commutative monoid ``(combine, zero)`` named by an operator symbol.

    Attributes:
        symbol: the operator spelling in the loop language (``+``, ``*``, ...).
        zero: the identity element, or a zero-argument callable producing it
            (use a callable for mutable identities).
        combine: the associative, commutative binary operation.
        commutative: monoids must be commutative to be used in incremental
            updates; the flag exists so tests can construct counter-examples.
        samples: example elements of the monoid's domain, used by the
            registration-time law verifier
            (:mod:`repro.analysis.monoid_laws`) to probe associativity /
            identity / commutativity.  Required in practice for custom record
            types (``ArgMin``, ``Avg``, ...) whose values cannot be derived
            from the identity element alone.
    """

    symbol: str
    zero: Any
    combine: Callable[[Any, Any], Any]
    commutative: bool = True
    samples: tuple[Any, ...] = ()

    def identity(self) -> Any:
        """Return a fresh identity element."""
        if callable(self.zero):
            return self.zero()
        return self.zero

    def reduce(self, values: Any) -> Any:
        """Fold ``values`` with the combine function, starting from identity."""
        result = self.identity()
        for value in values:
            result = self.combine(result, value)
        return result


def _logical_and(a: Any, b: Any) -> Any:
    return bool(a) and bool(b)


def _logical_or(a: Any, b: Any) -> Any:
    return bool(a) or bool(b)


def builtin_monoids() -> dict[str, Monoid]:
    """The monoids that every compiler / interpreter instance knows about."""
    return {
        "+": Monoid("+", 0, operator.add),
        "*": Monoid("*", 1, operator.mul),
        "min": Monoid("min", float("inf"), min),
        "max": Monoid("max", float("-inf"), max),
        "&&": Monoid("&&", True, _logical_and),
        "||": Monoid("||", False, _logical_or),
    }


#: Monotonic source of registry identities for compilation-cache keys.
_REGISTRY_COUNTER = itertools.count()


class MonoidRegistry:
    """A mutable mapping from operator symbols to :class:`Monoid` instances."""

    def __init__(self, extra: dict[str, Monoid] | None = None):
        self._monoids: dict[str, Monoid] = builtin_monoids()
        if extra:
            self._monoids.update(extra)
        self._uid = next(_REGISTRY_COUNTER)
        self._version = 0

    def register(self, monoid: Monoid, *, verify: bool = True) -> None:
        """Register (or replace) a monoid under its symbol.

        By default the monoid's laws (associativity, identity, claimed
        commutativity) are probed over sample elements first, and a
        counter-example raises
        :class:`~repro.errors.MonoidLawError` -- a broken monoid produces
        silently wrong distributed results, so registration is the last
        place to catch it.  Pass ``verify=False`` to skip (e.g. when
        deliberately constructing counter-examples in tests).
        """
        if verify:
            # Imported lazily: repro.analysis imports this module.
            from repro.analysis.monoid_laws import require_lawful

            require_lawful(monoid)
        self._monoids[monoid.symbol] = monoid
        self._version += 1

    def fingerprint(self) -> tuple[int, int]:
        """An identity that changes whenever the registry's contents change.

        Used in compilation-cache keys: registering (or replacing) a monoid
        must invalidate translations made under the old registry state, and
        distinct registries never share cache entries.
        """
        return (self._uid, self._version)

    def get(self, symbol: str) -> Monoid:
        """Look up the monoid for ``symbol``; raises ``KeyError`` if unknown."""
        return self._monoids[symbol]

    def __contains__(self, symbol: str) -> bool:
        return symbol in self._monoids

    def is_commutative(self, symbol: str) -> bool:
        """True when ``symbol`` names a registered commutative monoid."""
        monoid = self._monoids.get(symbol)
        return monoid is not None and monoid.commutative

    def symbols(self) -> list[str]:
        """All registered operator symbols."""
        return sorted(self._monoids)

    def copy(self) -> "MonoidRegistry":
        """A shallow copy that can be extended without affecting the original."""
        clone = MonoidRegistry()
        clone._monoids = dict(self._monoids)
        return clone


# A process-wide default registry used when callers do not supply their own.
DEFAULT_MONOIDS = MonoidRegistry()


@dataclass
class ArgMin:
    """The arg-min record used by the KMeans programs (Appendix B).

    ``ArgMin(index, distance)`` combines with another arg-min by keeping the
    record with the smaller distance -- the ``^`` operator of the paper.
    """

    index: int
    distance: float

    def combine(self, other: "ArgMin") -> "ArgMin":
        return self if self.distance <= other.distance else other


@dataclass
class Avg:
    """The running-average record used by the KMeans programs (Appendix B).

    ``Avg(total, count)`` combines with another by component-wise sum -- the
    ``^^`` operator of the paper.  ``value()`` returns the mean.
    """

    sum: Any
    count: int

    def combine(self, other: "Avg") -> "Avg":
        if isinstance(self.sum, tuple):
            merged = tuple(a + b for a, b in zip(self.sum, other.sum, strict=False))
        else:
            merged = self.sum + other.sum
        return Avg(merged, self.count + other.count)

    def value(self) -> Any:
        if self.count == 0:
            return self.sum
        if isinstance(self.sum, tuple):
            return tuple(component / self.count for component in self.sum)
        return self.sum / self.count


def argmin_monoid(large_distance: float = 1e12) -> Monoid:
    """The ``^`` monoid: pick the :class:`ArgMin` with the smaller distance.

    The law-probing samples use *distinct* distances: on a distance tie the
    combine keeps its left argument, so ``^`` is only commutative up to
    tie-breaking -- exactly like ``min`` over incomparable records.  Ties pick
    an arbitrary-but-valid arg-min, which the KMeans programs accept.
    """
    return Monoid(
        "^",
        lambda: ArgMin(0, large_distance),
        lambda a, b: a.combine(b) if isinstance(a, ArgMin) else b,
        samples=(ArgMin(1, 4.0), ArgMin(2, 1.5), ArgMin(3, 9.0), ArgMin(4, 0.25)),
    )


def avg_monoid() -> Monoid:
    """The ``^^`` monoid: merge :class:`Avg` accumulators."""
    return Monoid(
        "^^",
        lambda: Avg((0.0, 0.0), 0),
        lambda a, b: a.combine(b) if isinstance(a, Avg) and a.count else b,
        samples=(Avg((1.0, 2.0), 1), Avg((3.0, -1.0), 2), Avg((0.5, 0.5), 1)),
    )
