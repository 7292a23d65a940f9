"""Symbolic expressions over 64-bit machine words.

A symbolic snapshot (paper §2.3) is "a mix of known, concrete values and
currently unknown, symbolic values"; these expressions are the symbolic
half.  Semantics mirror the concrete VM bit-for-bit (wraparound, signed
ops), which property tests in ``tests/symex`` enforce: evaluating an
expression under a model must equal running the same ops on the VM.

Constructors go through :func:`bin_expr`, which constant-folds and
applies algebraic identities so expressions stay small enough for the
solver's pattern rules to fire.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, FrozenSet, Optional, Tuple, Union

from repro.ir.instructions import (
    BINARY_OPS,
    COMPARE_OPS,
    to_signed,
    to_unsigned,
)

ALL_OPS = tuple(BINARY_OPS) + tuple(COMPARE_OPS)

_COMMUTATIVE = {"add", "mul", "and", "or", "xor", "eq", "ne"}

#: Complement of each comparison (used to negate branch conditions).
NEGATED_CMP = {
    "eq": "ne", "ne": "eq",
    "ult": "uge", "ule": "ugt", "ugt": "ule", "uge": "ult",
    "slt": "sge", "sle": "sgt", "sgt": "sle", "sge": "slt",
}

#: Swapped-operand equivalent (a op b == b swap(op) a).
SWAPPED_CMP = {
    "eq": "eq", "ne": "ne",
    "ult": "ugt", "ule": "uge", "ugt": "ult", "uge": "ule",
    "slt": "sgt", "sle": "sge", "sgt": "slt", "sge": "sle",
}


class Expr:
    """Base class; all subclasses are immutable and hashable."""

    __slots__ = ()


# ---------------------------------------------------------------------------
# Hash-consing (interning) tables
#
# Leaves intern through ``__new__``; interior nodes intern through
# :func:`bin_expr` (the only simplifying constructor), keyed by child
# *identity* — sound because interned children are themselves canonical.
# Tables are append-only and stop interning when full: clearing them
# would free nodes whose ``id()`` keys identity-keyed caches elsewhere
# (the solver's range memo), and a recycled id must never alias a
# different expression.  Directly constructed ``BinExpr(...)`` nodes
# (deserialization, tests) stay valid: equality and hashing remain
# structural, identity is only a fast path.
# ---------------------------------------------------------------------------

_CONST_CACHE: Dict[int, "Const"] = {}
_SYM_CACHE: Dict[str, "Sym"] = {}
_BIN_CACHE: Dict[Tuple[str, int, int], "BinExpr"] = {}
_CONST_CACHE_CAP = 1 << 16
_SYM_CACHE_CAP = 1 << 16
_BIN_CACHE_CAP = 1 << 18


@dataclass(frozen=True, init=False)
class Const(Expr):
    value: int

    def __new__(cls, value=None):
        # ``value is None`` is the pickle/deepcopy reconstruction path
        # (``cls.__new__(cls)`` with state applied afterwards).
        if value is None or cls is not Const:
            return object.__new__(cls)
        value = value & _WORD_MASK_LOCAL
        cached = _CONST_CACHE.get(value)
        if cached is not None:
            return cached
        self = object.__new__(cls)
        object.__setattr__(self, "value", value)
        if len(_CONST_CACHE) < _CONST_CACHE_CAP:
            _CONST_CACHE[value] = self
        return self

    def __repr__(self):
        return str(self.value)


@dataclass(frozen=True, init=False)
class Sym(Expr):
    """An unconstrained 64-bit unknown, identified by name."""

    name: str

    def __new__(cls, name=None):
        if name is None or cls is not Sym:
            return object.__new__(cls)
        cached = _SYM_CACHE.get(name)
        if cached is not None:
            return cached
        self = object.__new__(cls)
        object.__setattr__(self, "name", name)
        if len(_SYM_CACHE) < _SYM_CACHE_CAP:
            _SYM_CACHE[name] = self
        return self

    def __repr__(self):
        return f"${self.name}"


_WORD_MASK_LOCAL = to_unsigned(-1)


@dataclass(frozen=True)
class BinExpr(Expr):
    op: str
    a: Expr
    b: Expr

    def __post_init__(self):
        if self.op not in ALL_OPS:
            raise ValueError(f"unknown op {self.op!r}")

    def __repr__(self):
        return f"({self.op} {self.a!r} {self.b!r})"


def _binexpr_hash(self: "BinExpr") -> int:
    """Structural hash memoized on the node (same value the generated
    dataclass hash produces).  Constraint fingerprinting hashes whole
    expression DAGs repeatedly; without the memo every lookup re-walks
    the tree."""
    cached = self.__dict__.get("_h")
    if cached is None:
        cached = hash((self.op, self.a, self.b))
        object.__setattr__(self, "_h", cached)
    return cached


def _binexpr_eq(self: "BinExpr", other) -> bool:
    """Structural equality with an identity fast path.  Interned nodes
    make ``self is other`` the common case, so deep comparisons of
    shared sub-DAGs short-circuit without walking them."""
    if self is other:
        return True
    if other.__class__ is not BinExpr:
        return NotImplemented
    return (self.op == other.op and self.a == other.a
            and self.b == other.b)


BinExpr.__hash__ = _binexpr_hash  # type: ignore[method-assign]
BinExpr.__eq__ = _binexpr_eq  # type: ignore[method-assign]


def _make_bin(op: str, a: Expr, b: Expr) -> BinExpr:
    """Interning BinExpr constructor (used only by :func:`bin_expr`,
    *after* simplification, so the table holds canonical shapes).  The
    cached node holds strong references to its children, which pins
    their ids — an identity key can never go stale."""
    key = (op, id(a), id(b))
    cached = _BIN_CACHE.get(key)
    if cached is not None:
        return cached
    node = BinExpr(op, a, b)
    if len(_BIN_CACHE) < _BIN_CACHE_CAP:
        _BIN_CACHE[key] = node
    return node


TRUE = Const(1)
FALSE = Const(0)


def apply_op(op: str, a: int, b: int) -> Optional[int]:
    """Concrete semantics of every op; None on division by zero.

    This is the single source of truth shared by expression folding and
    model evaluation; it matches the concrete VM exactly.
    """
    if op == "add":
        return to_unsigned(a + b)
    if op == "sub":
        return to_unsigned(a - b)
    if op == "mul":
        return to_unsigned(a * b)
    if op == "udiv":
        return None if b == 0 else to_unsigned(a // b)
    if op == "urem":
        return None if b == 0 else to_unsigned(a % b)
    if op in ("sdiv", "srem"):
        if b == 0:
            return None
        sa, sb = to_signed(a), to_signed(b)
        quotient = abs(sa) // abs(sb)
        if (sa < 0) != (sb < 0):
            quotient = -quotient
        return to_unsigned(quotient if op == "sdiv" else sa - quotient * sb)
    if op == "and":
        return a & b
    if op == "or":
        return a | b
    if op == "xor":
        return a ^ b
    if op == "shl":
        return to_unsigned(a << (b % 64))
    if op == "lshr":
        return a >> (b % 64)
    if op == "ashr":
        return to_unsigned(to_signed(a) >> (b % 64))
    if op in ("slt", "sle", "sgt", "sge"):
        sa, sb = to_signed(a), to_signed(b)
        return 1 if {"slt": sa < sb, "sle": sa <= sb,
                     "sgt": sa > sb, "sge": sa >= sb}[op] else 0
    return 1 if {"eq": a == b, "ne": a != b,
                 "ult": a < b, "ule": a <= b,
                 "ugt": a > b, "uge": a >= b}[op] else 0


def bin_expr(op: str, a: Expr, b: Expr) -> Expr:
    """Build ``a op b`` with folding and identity simplification."""
    if isinstance(a, Const) and isinstance(b, Const):
        folded = apply_op(op, a.value, b.value)
        if folded is not None:
            return Const(folded)
        return _make_bin(op, a, b)  # division by zero: keep symbolic shape

    # Canonicalize: constants on the right for commutative ops,
    # comparisons with a constant left operand get swapped.
    if isinstance(a, Const) and not isinstance(b, Const):
        if op in _COMMUTATIVE:
            a, b = b, a
        elif op in SWAPPED_CMP:
            a, b = b, a
            op = SWAPPED_CMP[op]

    # sub-by-const → add of negation, so constant chains merge.
    if op == "sub" and isinstance(b, Const):
        return bin_expr("add", a, Const(-b.value))

    # Cancellation (exact in modular arithmetic): (a - b) + b → a and
    # (a + b) - b → a.  Substitution chains build these shapes — e.g. a
    # loop round-trip resolving to (c - x) + x — and an unfolded
    # tautology sent to the bit-fixing layer makes every residue
    # survive every level, the worst case of its enumeration.
    if op == "add":
        if isinstance(a, BinExpr) and a.op == "sub" and a.b == b:
            return a.a
        if isinstance(b, BinExpr) and b.op == "sub" and b.b == a:
            return b.a
    if op == "sub" and isinstance(a, BinExpr) and a.op == "add":
        if a.b == b:
            return a.a
        if a.a == b:
            return a.b

    # Distribute mul-by-const over add-by-const so affine chains
    # normalize to a single (mul x c) + d:  (x + c1) * c2 → x*c2 + c1*c2.
    if op == "mul" and isinstance(b, Const) and isinstance(a, BinExpr) \
            and a.op == "add" and isinstance(a.b, Const):
        return bin_expr("add", bin_expr("mul", a.a, b),
                        Const(a.b.value * b.value))

    # Reassociate constants outward so chains merge and same-symbol
    # operands meet:  x + (y + c) → (x + y) + c, likewise for xor.
    for assoc_op in ("add", "xor"):
        if op == assoc_op:
            if isinstance(b, BinExpr) and b.op == assoc_op \
                    and isinstance(b.b, Const):
                return bin_expr(assoc_op,
                                bin_expr(assoc_op, a, b.a), b.b)
            if isinstance(a, BinExpr) and a.op == assoc_op \
                    and isinstance(a.b, Const) and not isinstance(b, Const):
                return bin_expr(assoc_op,
                                bin_expr(assoc_op, a.a, b), a.b)

    if isinstance(b, Const):
        c = b.value
        if c == 0:
            if op in ("add", "or", "xor", "shl", "lshr", "ashr"):
                return a
            if op in ("mul", "and"):
                return FALSE
            if op == "sub":
                return a
        if c == 1 and op in ("mul", "udiv", "sdiv"):
            return a
        # Merge constant chains: (add (add x c1) c2) → (add x c1+c2)
        if op == "add" and isinstance(a, BinExpr) and a.op == "add" \
                and isinstance(a.b, Const):
            return bin_expr("add", a.a, Const(a.b.value + c))
        if op == "xor" and isinstance(a, BinExpr) and a.op == "xor" \
                and isinstance(a.b, Const):
            return bin_expr("xor", a.a, Const(a.b.value ^ c))
        # Compare of (add x c1) with c2 → compare x with c2-c1 (exact for
        # eq/ne thanks to modular arithmetic; NOT exact for inequalities).
        if op in ("eq", "ne") and isinstance(a, BinExpr) and a.op == "add" \
                and isinstance(a.b, Const):
            return bin_expr(op, a.a, Const(c - a.b.value))
        if op in ("eq", "ne") and isinstance(a, BinExpr) and a.op == "xor" \
                and isinstance(a.b, Const):
            return bin_expr(op, a.a, Const(c ^ a.b.value))

    # x == x + c (c ≢ 0 mod 2^64) is a modular-arithmetic contradiction
    # (exact for eq/ne only — inequalities can wrap).  Substitution
    # chains through loop counters build exactly this shape (i+1 == i
    # after a round of bindings), and leaving it as a residual made the
    # verdict depend on which engine's propagation order met it: the
    # chained incremental context refuted it while the from-scratch
    # solve returned UNKNOWN (differential-fuzzer finding, seed 7059).
    if op in ("eq", "ne"):
        for x, y in ((a, b), (b, a)):
            if isinstance(y, BinExpr) and y.op == "add" \
                    and isinstance(y.b, Const) and y.a == x:
                if to_unsigned(y.b.value) != 0:
                    return FALSE if op == "eq" else TRUE
                return TRUE if op == "eq" else FALSE

    if a == b:
        if op == "add":
            # x + x → x * 2, which the interval/search layers know how
            # to invert (a raw self-add they do not).
            return bin_expr("mul", a, Const(2))
        if op in ("sub", "xor"):
            return FALSE
        if op in ("and", "or"):
            return a
        if op in ("eq", "ule", "uge", "sle", "sge"):
            return TRUE
        if op in ("ne", "ult", "ugt", "slt", "sgt"):
            return FALSE

    # Boolean-result simplifications: cmp of a cmp against 0/1.
    if op in ("eq", "ne") and isinstance(b, Const) and _is_boolean(a):
        if b.value == 0:
            return negate_bool(a) if op == "eq" else a
        if b.value == 1:
            return a if op == "eq" else negate_bool(a)
        # A boolean can never equal any other constant.
        return FALSE if op == "eq" else TRUE

    return _make_bin(op, a, b)


def _is_boolean(expr: Expr) -> bool:
    return isinstance(expr, BinExpr) and expr.op in COMPARE_OPS


def negate_bool(expr: Expr) -> Expr:
    """Logical negation of a truth-valued expression."""
    if isinstance(expr, Const):
        return FALSE if expr.value != 0 else TRUE
    if isinstance(expr, BinExpr) and expr.op in COMPARE_OPS:
        return bin_expr(NEGATED_CMP[expr.op], expr.a, expr.b)
    return bin_expr("eq", expr, FALSE)


def truth_of(expr: Expr) -> Expr:
    """Coerce a word-valued expression to a truth-valued one (≠ 0).

    Memoized on the node: solver recheck and bit-fixing loops coerce
    the same constraints over and over."""
    cached = expr.__dict__.get("_truth")
    if cached is not None:
        return cached
    if isinstance(expr, Const):
        return TRUE if expr.value != 0 else FALSE
    if _is_boolean(expr):
        result = expr
    else:
        result = bin_expr("ne", expr, FALSE)
    object.__setattr__(expr, "_truth", result)
    return result


_EMPTY_SYMS: FrozenSet[str] = frozenset()


def free_syms(expr: Expr) -> FrozenSet[str]:
    """Names of all symbolic variables occurring in ``expr``.

    Memoized on the node: expressions are immutable and heavily shared
    (DAG-shaped after substitution), so the naive tree walk is
    exponential in practice while this is amortized O(1).
    """
    cached = expr.__dict__.get("_syms")
    if cached is not None:
        return cached
    if isinstance(expr, Sym):
        result = frozenset((expr.name,))
    elif isinstance(expr, BinExpr):
        result = free_syms(expr.a) | free_syms(expr.b)
    else:
        result = _EMPTY_SYMS
    object.__setattr__(expr, "_syms", result)
    return result


def substitute(expr: Expr, bindings: Dict[str, Expr]) -> Expr:
    """Replace symbols by expressions, re-simplifying along the way."""
    if free_syms(expr).isdisjoint(bindings.keys()):
        return expr  # nothing to replace anywhere below: share the node
    if isinstance(expr, Sym):
        return bindings.get(expr.name, expr)
    if isinstance(expr, BinExpr):
        a = substitute(expr.a, bindings)
        b = substitute(expr.b, bindings)
        if a is expr.a and b is expr.b:
            return expr
        return bin_expr(expr.op, a, b)
    return expr


def evaluate(expr: Expr, model: Dict[str, int]) -> Optional[int]:
    """Evaluate under a full model; None on division by zero or a
    symbol missing from the model."""
    if isinstance(expr, Const):
        return expr.value
    if isinstance(expr, Sym):
        value = model.get(expr.name)
        return to_unsigned(value) if value is not None else None
    if isinstance(expr, BinExpr):
        a = evaluate(expr.a, model)
        b = evaluate(expr.b, model)
        if a is None or b is None:
            return None
        return apply_op(expr.op, a, b)
    raise TypeError(f"not an expression: {expr!r}")


def expr_size(expr: Expr) -> int:
    """Node count, used for search heuristics and complexity caps.

    Memoized like :func:`free_syms` — shared sub-DAGs are counted once
    per node, never re-walked.
    """
    cached = expr.__dict__.get("_size")
    if cached is not None:
        return cached
    if isinstance(expr, BinExpr):
        result = 1 + expr_size(expr.a) + expr_size(expr.b)
    else:
        result = 1
    object.__setattr__(expr, "_size", result)
    return result


# ---------------------------------------------------------------------------
# Compiled evaluation
#
# ``evaluate`` is the hottest solver primitive: bit-fixing, rechecking
# and model completion all call it thousands of times per query on the
# *same* expression with different models.  ``compiled_evaluator``
# flattens the DAG once into straight-line Python (shared sub-nodes
# become single temporaries) and caches the generated function on the
# node, turning every later evaluation into one cheap call.  Semantics
# are exactly :func:`evaluate`: None on division by zero or a missing
# symbol.
# ---------------------------------------------------------------------------

_COMPILE_MAX_NODES = 4096

_CMP_PY = {"eq": "==", "ne": "!=", "ult": "<", "ule": "<=",
           "ugt": ">", "uge": ">=", "slt": "<", "sle": "<=",
           "sgt": ">", "sge": ">="}


def _build_evaluator(expr: "BinExpr"):
    """Generate a ``model -> Optional[int]`` function for ``expr``.
    Returns False when the expression is too large to compile (callers
    fall back to the recursive evaluator)."""
    if expr_size(expr) > _COMPILE_MAX_NODES:
        return False
    names: Dict[int, str] = {}
    lines = []
    counter = 0

    def _signed(atom: str) -> str:
        return f"({atom} - T if {atom} >= S else {atom})"

    def emit(node: Expr) -> str:
        nonlocal counter
        key = id(node)
        name = names.get(key)
        if name is not None:
            return name
        if type(node) is Const:
            name = repr(node.value)
            names[key] = name
            return name
        counter += 1
        name = f"t{counter}"
        if type(node) is Sym:
            lines.append(f" {name} = m.get({node.name!r})")
            lines.append(f" if {name} is None: return None")
            lines.append(f" {name} &= M")
            names[key] = name
            return name
        a = emit(node.a)
        b = emit(node.b)
        op = node.op
        if op in ("add", "sub", "mul"):
            sym = {"add": "+", "sub": "-", "mul": "*"}[op]
            lines.append(f" {name} = ({a} {sym} {b}) & M")
        elif op in ("and", "or", "xor"):
            sym = {"and": "&", "or": "|", "xor": "^"}[op]
            lines.append(f" {name} = {a} {sym} {b}")
        elif op in ("udiv", "urem"):
            sym = "//" if op == "udiv" else "%"
            lines.append(f" if {b} == 0: return None")
            lines.append(f" {name} = {a} {sym} {b}")
        elif op in ("sdiv", "srem"):
            lines.append(f" {name} = _apply({op!r}, {a}, {b})")
            lines.append(f" if {name} is None: return None")
        elif op == "shl":
            lines.append(f" {name} = ({a} << ({b} % 64)) & M")
        elif op == "lshr":
            lines.append(f" {name} = {a} >> ({b} % 64)")
        elif op == "ashr":
            lines.append(f" {name} = ({_signed(a)} >> ({b} % 64)) & M")
        elif op in ("slt", "sle", "sgt", "sge"):
            lines.append(f" {name} = 1 if {_signed(a)} {_CMP_PY[op]}"
                         f" {_signed(b)} else 0")
        else:
            lines.append(f" {name} = 1 if {a} {_CMP_PY[op]} {b} else 0")
        names[key] = name
        return name

    try:
        root = emit(expr)
        source = "def _f(m):\n" + "\n".join(lines) + f"\n return {root}"
        namespace = {"M": to_unsigned(-1), "S": 1 << 63, "T": 1 << 64,
                     "_apply": apply_op}
        exec(source, namespace)  # noqa: S102 - generated from trusted IR
        return namespace["_f"]
    except (RecursionError, SyntaxError, MemoryError):
        return False


def compiled_evaluator(expr: Expr):
    """Return a compiled ``model -> Optional[int]`` callable for
    ``expr``, or None when it is not worth compiling (callers should
    use :func:`evaluate`)."""
    if type(expr) is not BinExpr:
        return None
    fn = expr.__dict__.get("_ceval")
    if fn is None:
        fn = _build_evaluator(expr)
        object.__setattr__(expr, "_ceval", fn)
    return fn if fn is not False else None


def evaluate_compiled(expr: Expr, model: Dict[str, int]) -> Optional[int]:
    """Drop-in for :func:`evaluate` that compiles (and caches) the
    expression on first use."""
    fn = expr.__dict__.get("_ceval")
    if fn is not None:
        if fn is False:
            return evaluate(expr, model)
        return fn(model)
    tp = type(expr)
    if tp is Const:
        return expr.value
    if tp is Sym:
        value = model.get(expr.name)
        return to_unsigned(value) if value is not None else None
    if tp is not BinExpr:
        return evaluate(expr, model)
    fn = _build_evaluator(expr)
    object.__setattr__(expr, "_ceval", fn)
    if fn is False:
        return evaluate(expr, model)
    return fn(model)


ExprLike = Union[Expr, int]


def as_expr(value: ExprLike) -> Expr:
    return Const(value) if isinstance(value, int) else value


# ---------------------------------------------------------------------------
# Canonical JSON-safe serialization (suffix artifacts, cache exports)
# ---------------------------------------------------------------------------

def expr_to_obj(expr: Expr) -> Union[int, str, list]:
    """Expr → JSON-safe object (int / "$name" / ["op", a, b])."""
    if isinstance(expr, Const):
        return expr.value
    if isinstance(expr, Sym):
        return f"${expr.name}"
    if isinstance(expr, BinExpr):
        return [expr.op, expr_to_obj(expr.a), expr_to_obj(expr.b)]
    raise TypeError(f"unserializable expression {expr!r}")


def expr_from_obj(obj: Union[int, str, list]) -> Expr:
    if isinstance(obj, int):
        return Const(obj)
    if isinstance(obj, str):
        if not obj.startswith("$"):
            raise ValueError(f"malformed symbol literal {obj!r}")
        return Sym(obj[1:])
    if isinstance(obj, list) and len(obj) == 3:
        return BinExpr(obj[0], expr_from_obj(obj[1]), expr_from_obj(obj[2]))
    raise ValueError(f"malformed expression object {obj!r}")
