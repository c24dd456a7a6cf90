"""Type/shape inference over translated comprehension terms.

After the Figure 2 translation every assignment's right-hand side is a monoid
comprehension term over the program's variables; this pass walks those terms
with the declared input/``var`` types flowing in and reports shape and type
disagreements that would otherwise surface mid-execution (or, worse, produce
empty joins silently):

* ``D301`` -- the two sides of an equality condition (the planner's join
  keys) have incompatible scalar types, e.g. a string key matched against a
  numeric index: the equi-join can never find partners;
* ``D302`` -- the element type reduced by an aggregation / incremental merge
  disagrees with the monoid's element type (``&&`` over doubles, ``+`` over
  strings vs. numbers);
* ``D303`` -- a generator pattern destructures elements with the wrong
  arity, e.g. a pair pattern over a bag of triples;
* ``D304`` -- the two sides of an array merge (``X ⊳ Y`` / ``X ⊳⊕ Y``) are
  keyed by different types, so the per-key alignment is vacuous.

The pass is deliberately **conservative**: unknown types propagate silently
and only *confident* disagreements are reported -- a diagnostic here is a
real defect, never noise.  Type information comes from declared parameter
annotations and ``var`` declarations (``vector[t]`` keys by ``long``,
``matrix[t]`` by ``(long, long)``, ``map[k, v]`` by ``k``); programs with no
declarations simply get no D3xx findings.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.analysis.diagnostics import Diagnostic, location_of, make_diagnostic
from repro.comprehension import ir
from repro.comprehension.monoids import DEFAULT_MONOIDS, MonoidRegistry
from repro.errors import SourceLocation
from repro.loop_lang import ast
from repro.translate.target import TargetAssign, TargetProgram


@dataclass(frozen=True)
class BagType:
    """Internal shape: a bag of ``element`` values (None = unknown element)."""

    element: ast.Type | None

    def __str__(self) -> str:
        return f"bag[{self.element if self.element is not None else '?'}]"


#: A type lattice value: a loop-language type, a BagType, or None (unknown).
InferredType = "ast.Type | BagType | None"

_NUMERIC = {"int", "long", "double"}


def _family(typ: "ast.Type | BagType | None") -> object | None:
    """Collapse a type to a comparability family; None = unknown/opaque."""
    if typ is None:
        return None
    if isinstance(typ, BagType):
        return "bag"
    if isinstance(typ, ast.BasicType):
        if typ.name in _NUMERIC:
            return "numeric"
        if typ.name == "bool":
            return "bool"
        if typ.name == "string":
            return "string"
        return None
    if isinstance(typ, ast.TupleType):
        return ("tuple", len(typ.elements))
    return None


def _compatible(left: "ast.Type | BagType | None", right: "ast.Type | BagType | None") -> bool:
    """True unless the two types *confidently* disagree."""
    lf, rf = _family(left), _family(right)
    if lf is None or rf is None:
        return True
    if lf == rf:
        if isinstance(lf, tuple) and lf[0] == "tuple":
            assert isinstance(left, ast.TupleType) and isinstance(right, ast.TupleType)
            return all(_compatible(a, b) for a, b in zip(left.elements, right.elements, strict=False))
        return True
    # ints double as booleans throughout the language; don't flag the mix.
    if {lf, rf} == {"numeric", "bool"}:
        return True
    return False


def monoid_element_type(monoids: MonoidRegistry, op: str | tuple[str, ...]) -> ast.Type | None:
    """The element type a monoid combines, derived from its identity value;
    a product monoid combines the tuple of its components' types."""
    if isinstance(op, tuple):
        parts = (monoid_element_type(monoids, part) for part in op)
        return ast.TupleType(tuple(part if part is not None else _UNKNOWN for part in parts))
    if op not in monoids:
        return None
    zero = monoids.get(op).identity()
    if isinstance(zero, bool):
        return ast.BOOL
    if isinstance(zero, (int, float)):
        return ast.DOUBLE
    if isinstance(zero, str):
        return ast.STRING
    return None


def _pair_type(key: "ast.Type | None", value: "ast.Type | None") -> ast.TupleType:
    return ast.TupleType((key if key is not None else _UNKNOWN, value if value is not None else _UNKNOWN))


#: Placeholder inside tuple types for unknown components (opaque family).
_UNKNOWN = ast.BasicType("?")


def variable_types(target: TargetProgram) -> dict[str, "ast.Type | BagType | None"]:
    """The initial environment: every program variable's inferred shape."""
    env: dict[str, ast.Type | BagType | None] = {}
    for name, info in target.variables.items():
        declared = info.declared_type
        if info.kind == "scalar":
            env[name] = declared if isinstance(declared, ast.BasicType) else declared
            continue
        element: ast.Type | None = None
        if isinstance(declared, ast.ParametricType):
            constructor = declared.constructor
            if constructor == "vector" and declared.parameters:
                element = _pair_type(ast.LONG, declared.parameters[0])
            elif constructor == "matrix" and declared.parameters:
                element = _pair_type(ast.TupleType((ast.LONG, ast.LONG)), declared.parameters[0])
            elif constructor == "map" and len(declared.parameters) == 2:
                element = _pair_type(declared.parameters[0], declared.parameters[1])
            elif constructor in ("bag", "array") and declared.parameters:
                element = declared.parameters[0]
        elif info.kind == "array":
            element = _pair_type(None, None)
        env[name] = BagType(element)
    return env


class TypeChecker:
    """Infers comprehension term shapes and collects D3xx diagnostics."""

    def __init__(self, monoids: MonoidRegistry | None = None) -> None:
        self.monoids = monoids or DEFAULT_MONOIDS
        self.diagnostics: list[Diagnostic] = []
        self._location: SourceLocation | None = None
        self._statement: object = None

    # -- entry points ---------------------------------------------------------

    def check_target(self, target: TargetProgram) -> list[Diagnostic]:
        """Check every assignment of a translated program."""
        env = variable_types(target)
        for assignment in target.assignments():
            self.check_assignment(assignment, env)
        return self.diagnostics

    def check_assignment(
        self, assignment: TargetAssign, env: dict[str, "ast.Type | BagType | None"]
    ) -> None:
        self._location = location_of(assignment.origin)
        self._statement = assignment.origin if assignment.origin is not None else str(assignment)
        self.infer(assignment.term, dict(env))

    # -- reporting ------------------------------------------------------------

    def _report(self, code: str, message: str, hint: str | None = None) -> None:
        self.diagnostics.append(
            make_diagnostic(
                code,
                message,
                hint=hint,
                location=self._location,
                statement=self._statement,
                source="typecheck",
            )
        )

    # -- inference ------------------------------------------------------------

    def infer(
        self, term: ir.Term, env: dict[str, "ast.Type | BagType | None"]
    ) -> "ast.Type | BagType | None":
        if isinstance(term, ir.CVar):
            return env.get(term.name)
        if isinstance(term, ir.CConst):
            value = term.value
            if isinstance(value, bool):
                return ast.BOOL
            if isinstance(value, int):
                return ast.LONG
            if isinstance(value, float):
                return ast.DOUBLE
            if isinstance(value, str):
                return ast.STRING
            return None
        if isinstance(term, ir.CTuple):
            elements = tuple(self.infer(e, env) for e in term.elements)
            return ast.TupleType(tuple(e if e is not None else _UNKNOWN for e in elements))
        if isinstance(term, ir.CRecord):
            for _, value in term.fields:
                self.infer(value, env)
            return None
        if isinstance(term, ir.CProject):
            base = self.infer(term.base, env)
            if isinstance(base, ast.TupleType) and term.attribute.startswith("_"):
                try:
                    index = int(term.attribute[1:]) - 1
                except ValueError:
                    return None
                if 0 <= index < len(base.elements):
                    element = base.elements[index]
                    return None if element == _UNKNOWN else element
            return None
        if isinstance(term, ir.CBinOp):
            return self._infer_binop(term, env)
        if isinstance(term, ir.CUnaryOp):
            self.infer(term.operand, env)
            return ast.BOOL if term.op == "!" else None
        if isinstance(term, ir.CCall):
            for argument in term.arguments:
                self.infer(argument, env)
            return None
        if isinstance(term, ir.Aggregate):
            return self._infer_aggregate(term, env)
        if isinstance(term, (ir.Merge, ir.MergeWith)):
            return self._infer_merge(term, env)
        if isinstance(term, ir.RangeTerm):
            self.infer(term.lower, env)
            self.infer(term.upper, env)
            return BagType(ast.LONG)
        if isinstance(term, ir.InRange):
            for child in term.children():
                self.infer(child, env)
            return ast.BOOL
        if isinstance(term, ir.Comprehension):
            return self._infer_comprehension(term, env)
        if isinstance(term, ir.EmptyBag):
            return BagType(None)
        return None

    def _infer_binop(
        self, term: ir.CBinOp, env: dict[str, "ast.Type | BagType | None"]
    ) -> "ast.Type | BagType | None":
        left = self.infer(term.left, env)
        right = self.infer(term.right, env)
        if term.op in ("==", "!="):
            if not _compatible(left, right):
                self._report(
                    "D301",
                    f"equality {term} compares incompatible types {left} and {right}; "
                    "as a join/filter key this never matches",
                    hint="align the key types (e.g. index maps by the declared key type, "
                    "vectors/matrices by long indexes)",
                )
            return ast.BOOL
        if term.op in ("<", "<=", ">", ">="):
            return ast.BOOL
        if term.op in ("&&", "||"):
            return ast.BOOL
        if term.op in ("+", "-", "*", "/", "%", "**"):
            lf, rf = _family(left), _family(right)
            if lf == "string" and rf == "string" and term.op == "+":
                return ast.STRING
            if lf == "numeric" and rf == "numeric":
                if isinstance(left, ast.BasicType) and isinstance(right, ast.BasicType):
                    if "double" in (left.name, right.name) or term.op == "/":
                        return ast.DOUBLE
                    return ast.LONG
            return None
        # User-registered operators (^, ^^, ...) combine opaque records.
        return None

    def _infer_aggregate(
        self, term: ir.Aggregate, env: dict[str, "ast.Type | BagType | None"]
    ) -> "ast.Type | BagType | None":
        operand = self.infer(term.operand, env)
        element = operand.element if isinstance(operand, BagType) else operand
        expected = monoid_element_type(self.monoids, term.op)
        op = ir.op_text(term.op)
        if expected is not None and element is not None and not _compatible(expected, element):
            self._report(
                "D302",
                f"aggregation {op}/ reduces {element} values but the {op!r} monoid "
                f"combines {expected} values",
                hint="use a monoid whose element type matches the aggregated expression",
            )
        if expected is not None and _family(expected) == "bool":
            return ast.BOOL
        return element if element is not None else expected

    def _infer_merge(
        self, term: "ir.Merge | ir.MergeWith", env: dict[str, "ast.Type | BagType | None"]
    ) -> "ast.Type | BagType | None":
        left = self.infer(term.left, env)
        right = self.infer(term.right, env)
        left_pair = left.element if isinstance(left, BagType) else None
        right_pair = right.element if isinstance(right, BagType) else None
        left_key = left_pair.elements[0] if isinstance(left_pair, ast.TupleType) and len(left_pair.elements) == 2 else None
        right_key = right_pair.elements[0] if isinstance(right_pair, ast.TupleType) and len(right_pair.elements) == 2 else None
        if left_key is not None and right_key is not None and not _compatible(left_key, right_key):
            self._report(
                "D304",
                f"merge {term} aligns arrays keyed by {left_key} and {right_key}; "
                "no key can appear on both sides",
                hint="merge arrays of the same index type (the destination and the update "
                "delta must agree)",
            )
        if isinstance(term, ir.MergeWith):
            expected = monoid_element_type(self.monoids, term.op)
            for pair, side in ((left_pair, "left"), (right_pair, "right")):
                value = (
                    pair.elements[1]
                    if isinstance(pair, ast.TupleType) and len(pair.elements) == 2
                    else None
                )
                if (
                    expected is not None
                    and value is not None
                    and value != _UNKNOWN
                    and not _compatible(expected, value)
                ):
                    self._report(
                        "D302",
                        f"merge {term} combines {side}-side {value} values with the "
                        f"{term.op!r} monoid, which expects {expected} values",
                        hint="the incremental-update operator must match the array's "
                        "element type",
                    )
        return left if isinstance(left, BagType) else right

    def _infer_comprehension(
        self, comp: ir.Comprehension, outer: dict[str, "ast.Type | BagType | None"]
    ) -> BagType:
        env = dict(outer)
        bound_here: list[str] = []
        for qualifier in comp.qualifiers:
            if isinstance(qualifier, ir.Generator):
                domain = self.infer(qualifier.domain, env)
                element = domain.element if isinstance(domain, BagType) else None
                self._bind_pattern(qualifier.pattern, element, env, qualifier)
                bound_here.extend(qualifier.pattern.variables())
            elif isinstance(qualifier, ir.LetBinding):
                value = self.infer(qualifier.term, env)
                self._bind_pattern(qualifier.pattern, value, env, qualifier, arity_check=False)
                bound_here.extend(qualifier.pattern.variables())
            elif isinstance(qualifier, ir.Condition):
                self.infer(qualifier.term, env)
            elif isinstance(qualifier, ir.GroupBy):
                key_type = self.infer(qualifier.key_term(), env)
                key_names = set(qualifier.pattern.variables())
                # Previously bound variables (other than the keys) lift to bags.
                for name in bound_here:
                    if name not in key_names:
                        env[name] = BagType(
                            env.get(name) if not isinstance(env.get(name), BagType) else None
                        )
                self._bind_pattern(qualifier.pattern, key_type, env, qualifier, arity_check=False)
                bound_here.extend(key_names)
        head = self.infer(comp.head, env)
        return BagType(head if not isinstance(head, BagType) else None)

    def _bind_pattern(
        self,
        pattern: ir.Pattern,
        value: "ast.Type | BagType | None",
        env: dict[str, "ast.Type | BagType | None"],
        qualifier: ir.Qualifier,
        arity_check: bool = True,
    ) -> None:
        if isinstance(pattern, ir.PVar):
            env[pattern.name] = None if value == _UNKNOWN else value
            return
        if isinstance(pattern, ir.PWildcard):
            return
        if isinstance(pattern, ir.PTuple):
            if isinstance(value, ast.TupleType):
                if len(value.elements) != len(pattern.elements):
                    if arity_check:
                        self._report(
                            "D303",
                            f"pattern {pattern} has {len(pattern.elements)} element(s) but "
                            f"the generated values are {value} "
                            f"({len(value.elements)} element(s)) in {qualifier}",
                            hint="destructure exactly the element shape the domain produces",
                        )
                    for name in pattern.variables():
                        env[name] = None
                    return
                for sub, sub_type in zip(pattern.elements, value.elements, strict=False):
                    self._bind_pattern(sub, sub_type, env, qualifier, arity_check)
                return
            if arity_check and isinstance(value, ast.BasicType) and value != _UNKNOWN:
                self._report(
                    "D303",
                    f"pattern {pattern} destructures a tuple but the domain produces "
                    f"{value} scalars in {qualifier}",
                    hint="bind a single variable instead of a tuple pattern",
                )
            for name in pattern.variables():
                env[name] = None


def check_types(
    target: TargetProgram, monoids: MonoidRegistry | None = None
) -> list[Diagnostic]:
    """Type-check a translated program; returns the (possibly empty) findings."""
    return TypeChecker(monoids).check_target(target)
