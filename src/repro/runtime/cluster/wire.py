"""Closure-capable serialization for the cluster wire.

Translated plans are full of *local* functions: the planner's generated
row-segment functions (:mod:`repro.algebra.codegen`) are closures, and the
builtin monoid registry holds lambdas.  Plain :mod:`pickle` refuses all of
them, which would defeat the cluster backend: a map-side chain that cannot
ship forces its shuffle payloads through the driver.

:func:`cluster_dumps` therefore extends pickle with two rules:

* **Functions pickle by value when they cannot pickle by reference.**  A
  function that is not importable under its qualified name ships as its
  marshalled code object, its closure cell contents, its defaults, and the
  globals its code actually references.  On the worker the function is rebuilt
  against the live module dictionary when the defining module is importable
  (the worker runs the same code tree), or against an isolated dictionary of
  the shipped globals otherwise (e.g. functions defined in the driver's
  ``__main__``).  Both driver and worker must run the same Python version --
  marshal is version-specific -- which the registration handshake enforces.

* **Driver-only objects ship as inert stubs.**  A
  :class:`~repro.runtime.context.DistributedContext` and the driver-side
  :class:`~repro.runtime.dataset.Dataset` partitions it holds must never be
  *used* inside a worker task, but they can be *reachable* from one (a
  dataset among the scalars a vectorized kernel's scope snapshots).
  They serialize as stubs that raise :class:`DriverOnlyError` on first use, so
  a task that genuinely needs them fails with a clear message instead of
  silently dragging the driver state across the wire.

Anything else that does not pickle raises :class:`UnshippableError`; the
cluster context catches it and runs that task in the driver (counted by
``metrics.cluster_fallbacks``).
"""

from __future__ import annotations

import builtins
import contextlib
import importlib
import io
import marshal
import pickle
import sys
import types
from typing import Any

from repro.errors import ExecutionError


class UnshippableError(ExecutionError):
    """The object graph cannot cross the cluster wire (caller should fall back)."""


class DriverOnlyError(ExecutionError):
    """A worker task touched an object that only exists in the driver."""


class _DriverStub:
    """Inert stand-in for a driver-only object inside a shipped task."""

    __slots__ = ("_kind",)

    def __init__(self, kind: str):
        object.__setattr__(self, "_kind", kind)

    def __getattr__(self, name: str) -> Any:
        kind = object.__getattribute__(self, "_kind")
        raise DriverOnlyError(
            f"{kind} objects are driver-only and cannot be used inside a "
            f"cluster task (attempted to read attribute {name!r})"
        )

    def __call__(self, *_args: Any, **_kwargs: Any) -> Any:
        kind = object.__getattribute__(self, "_kind")
        raise DriverOnlyError(f"{kind} objects are driver-only and cannot be called in a cluster task")

    def __reduce__(self) -> tuple:
        return (_DriverStub, (object.__getattribute__(self, "_kind"),))


#: Key marking a rebuilt function's globals dict as wire-isolated (the
#: defining module was not importable on this side), so phase 2 knows to
#: fill in the shipped global values.
_ISOLATED_GLOBALS_MARKER = "__diablo_wire_isolated__"


class _ModuleRef:
    """A global that is a module: ship its name, re-import on the worker."""

    __slots__ = ("name",)

    def __init__(self, name: str):
        self.name = name

    def __reduce__(self) -> tuple:
        return (_ModuleRef, (self.name,))


def _global_names(code: types.CodeType) -> set[str]:
    """Every name ``code`` (or a code object nested in it) loads as a global."""
    names = set(code.co_names)
    for const in code.co_consts:
        if isinstance(const, types.CodeType):
            names |= _global_names(const)
    return names


def _importable(fn: types.FunctionType) -> bool:
    """Whether plain pickle could serialize ``fn`` by reference."""
    module = sys.modules.get(fn.__module__ or "")
    if module is None:
        return False
    obj: Any = module
    for part in fn.__qualname__.split("."):
        obj = getattr(obj, part, None)
        if obj is None:
            return False
    return obj is fn


def _ship_by_reference(fn: types.FunctionType) -> bool:
    """Whether ``fn`` should cross the wire as a module-qualified name.

    Importability *in the driver* is not enough: the driver may have extra
    ``sys.path`` entries a worker does not (a pytest run makes the test
    modules importable, for example).  Only the codebase itself and the
    standard library are guaranteed identical on both sides; every other
    function ships by value.
    """
    if not _importable(fn):
        return False
    top_level = (fn.__module__ or "").split(".", 1)[0]
    return top_level == "repro" or top_level in sys.stdlib_module_names


def _function_reduce(fn: types.FunctionType) -> tuple:
    """The by-value reduction of a non-importable function.

    Uses the six-element reduce form: the *shell* (code + empty closure
    cells) is built and memoized first, and the cell contents / defaults /
    globals arrive as *state* applied afterwards.  Recursive closures --
    a local function whose cells reach back to itself -- would otherwise
    recurse forever through the reduce arguments.
    """
    code = fn.__code__
    try:
        code_bytes = marshal.dumps(code)
    except ValueError as error:  # pragma: no cover - marshal rejects exotica
        raise UnshippableError(f"cannot marshal code of {fn.__qualname__}: {error}") from error
    try:
        cells = tuple(cell.cell_contents for cell in fn.__closure__ or ())
    except ValueError as error:
        raise UnshippableError(
            f"{fn.__qualname__} captures an unassigned closure cell"
        ) from error
    shipped_globals = []
    fn_globals = fn.__globals__
    for name in sorted(_global_names(code)):
        if name not in fn_globals:
            continue
        value = fn_globals[name]
        if isinstance(value, types.ModuleType):
            value = _ModuleRef(value.__name__)
        shipped_globals.append((name, value))
    state = (fn.__defaults__, fn.__kwdefaults__, cells, tuple(shipped_globals))
    return (
        _build_function_shell,
        (code_bytes, fn.__module__ or "", fn.__qualname__),
        state,
        None,
        None,
        _set_function_state,
    )


def _build_function_shell(code_bytes: bytes, module_name: str, qualname: str) -> types.FunctionType:
    """Worker-side phase 1: the function with empty closure cells."""
    code = marshal.loads(code_bytes)
    module = None
    if module_name and module_name != "__main__":
        module = sys.modules.get(module_name)
        if module is None:
            try:
                module = importlib.import_module(module_name)
            except Exception:
                module = None
    if module is not None:
        # The worker runs the same code tree: the live module dictionary is
        # authoritative for every global the function reads.
        fn_globals = module.__dict__
    else:
        # Functions from the driver's __main__ (or an unimportable module)
        # get an isolated globals dict; phase 2 fills in what they referenced.
        fn_globals = {
            "__builtins__": builtins,
            "__name__": module_name or "__wire__",
            _ISOLATED_GLOBALS_MARKER: True,
        }
    closure = tuple(types.CellType() for _ in code.co_freevars)
    fn = types.FunctionType(code, fn_globals, code.co_name, None, closure or None)
    fn.__qualname__ = qualname
    return fn


def _set_function_state(fn: types.FunctionType, state: tuple) -> None:
    """Worker-side phase 2: fill cells, defaults and shipped globals."""
    defaults, kwdefaults, cells, shipped_globals = state
    fn.__defaults__ = defaults
    if kwdefaults:
        fn.__kwdefaults__ = dict(kwdefaults)
    for cell, value in zip(fn.__closure__ or (), cells):
        cell.cell_contents = value
    if _ISOLATED_GLOBALS_MARKER in fn.__globals__:
        for name, value in shipped_globals:
            if isinstance(value, _ModuleRef):
                value = importlib.import_module(value.name)
            fn.__globals__[name] = value


class _ClusterPickler(pickle.Pickler):
    """Pickler with the two cluster-wire rules (functions by value, stubs)."""

    def reducer_override(self, obj: Any) -> Any:
        if isinstance(obj, types.FunctionType):
            # Never serialize this module's own rebuild helpers by value:
            # their reduction references themselves, which would regress
            # forever if this module were ever not importable by name.
            if obj.__module__ == __name__ or _ship_by_reference(obj):
                return NotImplemented
            return _function_reduce(obj)
        kind = _driver_only_kind(obj)
        if kind is not None:
            return (_DriverStub, (kind,))
        return NotImplemented


#: ``(type, stub label)`` of every driver-only class; resolved on first use
#: to keep the wire module free of runtime-layer import cycles.
_DRIVER_ONLY: tuple[tuple[type, str], ...] = ()


def _driver_only_kind(obj: Any) -> str | None:
    """The stub label for ``obj`` when it must not cross the wire, else None."""
    global _DRIVER_ONLY
    if not _DRIVER_ONLY:
        from repro.runtime.context import DistributedContext
        from repro.runtime.dataset import Dataset
        from repro.runtime.spill import ShuffleStore

        _DRIVER_ONLY = (
            (DistributedContext, "DistributedContext"),
            (Dataset, "Dataset"),
            (ShuffleStore, "ShuffleStore"),
        )
    for cls, kind in _DRIVER_ONLY:
        if isinstance(obj, cls):
            return kind
    return None


#: Translated plans nest closures inside closures (each loop-body statement
#: layers record functions over the previous ones), so pickling a shipped
#: chain recurses far deeper than the default interpreter limit.
_RECURSION_LIMIT = 20_000


@contextlib.contextmanager
def _deep_recursion() -> Any:
    previous = sys.getrecursionlimit()
    sys.setrecursionlimit(max(previous, _RECURSION_LIMIT))
    try:
        yield
    finally:
        sys.setrecursionlimit(previous)


def cluster_dumps(obj: Any) -> bytes:
    """Serialize ``obj`` for the cluster wire.

    Raises :class:`UnshippableError` when the graph cannot cross the wire
    even with the extended rules.
    """
    buffer = io.BytesIO()
    try:
        with _deep_recursion():
            _ClusterPickler(buffer, protocol=pickle.HIGHEST_PROTOCOL).dump(obj)
    except UnshippableError:
        raise
    except (pickle.PicklingError, TypeError, AttributeError, ValueError, RecursionError) as error:
        raise UnshippableError(f"cannot ship over the cluster wire: {error}") from error
    return buffer.getvalue()


def cluster_loads(data: bytes) -> Any:
    """Deserialize a :func:`cluster_dumps` body (plain pickle load)."""
    with _deep_recursion():
        return pickle.loads(data)
