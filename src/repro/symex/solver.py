"""A from-scratch constraint solver for RES's compatibility checks.

The paper's prototype leans on a KLEE-style SMT solver; offline we
build our own, specialized to the constraint fragment RES generates:

* equalities binding block-computed expressions to concrete coredump
  words (``S' ⊇ S_post`` checks, §2.4),
* branch-condition comparisons from the block's terminator, and
* arithmetic chains over havocked symbols and program inputs.

Architecture: (1) rewrite + substitution propagation, (2) exact
interval-domain propagation for single-symbol comparisons, (3)
bounded backtracking search over the remaining finite domains.

Verdicts are three-valued.  ``UNSAT`` is only reported with a proof
(propagation contradiction or exhausted finite domains), so RES can
safely *prune* on UNSAT; ``UNKNOWN`` keeps a candidate alive, and the
final replay-verification step (which the paper also relies on: "any
execution suffix must match the full coredump exactly", §6) weeds out
wrong survivors.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from enum import Enum
from typing import Dict, List, Optional, Sequence, Set, Tuple

from repro.ir.instructions import COMPARE_OPS, WORD_MASK, to_unsigned
from repro.symex.expr import (
    BinExpr,
    Const,
    Expr,
    Sym,
    bin_expr,
    evaluate,
    evaluate_compiled,
    expr_from_obj,
    expr_size,
    expr_to_obj,
    free_syms,
    substitute,
    truth_of,
)
from repro.symex.interval import IntSet, cmp_domain, expr_range


class SolveStatus(Enum):
    SAT = "sat"
    UNSAT = "unsat"
    UNKNOWN = "unknown"


@dataclass
class SolveResult:
    status: SolveStatus
    model: Optional[Dict[str, int]] = None
    #: search statistics, exposed for the benchmarks
    nodes_explored: int = 0

    @property
    def is_sat(self) -> bool:
        return self.status is SolveStatus.SAT

    @property
    def is_unsat(self) -> bool:
        return self.status is SolveStatus.UNSAT


def _mod_inverse(value: int) -> Optional[int]:
    """Multiplicative inverse mod 2^64 (exists iff value is odd)."""
    if value % 2 == 0:
        return None
    return pow(value, -1, 1 << 64)


@dataclass
class _State:
    """Mutable solving state: residual constraints + symbol knowledge."""

    constraints: List[Expr] = field(default_factory=list)
    bindings: Dict[str, Expr] = field(default_factory=dict)
    domains: Dict[str, IntSet] = field(default_factory=dict)
    all_syms: Set[str] = field(default_factory=set)
    #: closed binding map computed by the last search over this state;
    #: read-only once set (children use it to seed their own resolution).
    resolved_cache: Optional[Dict[str, Expr]] = None
    #: per-constraint preamble classifications from the last *completed*
    #: search preamble over this state: ``id(constraint) -> (constraint,
    #: residual_form_or_None, relevant_syms)``.  Rows are pure functions
    #: of (resolved entries, domains) restricted to ``relevant_syms``;
    #: a child search reuses a row when none of those inputs changed.
    #: The dict is replaced wholesale at commit, never mutated — clones
    #: share it by reference.
    preamble_cache: Optional[Dict[int, tuple]] = None
    #: symbols whose domain or binding changed since ``preamble_cache``
    #: was committed (propagation writes accumulate here; clones carry
    #: the set forward so chains of unsearched states stay sound).
    touched: Set[str] = field(default_factory=set)

    def domain(self, name: str) -> IntSet:
        return self.domains.get(name, IntSet.full())

    def clone(self) -> "_State":
        """O(|state|) structural copy — the containers are copied but the
        expressions inside are immutable and shared.  Far cheaper than
        re-propagating the constraints that produced the state."""
        return _State(
            constraints=list(self.constraints),
            bindings=dict(self.bindings),
            domains=dict(self.domains),
            all_syms=set(self.all_syms),
            resolved_cache=self.resolved_cache,
            preamble_cache=self.preamble_cache,
            touched=set(self.touched),
        )


@dataclass
class SolverContext:
    """Persistent solving context for one constraint prefix.

    RES's backward search grows one conjunction per node: a child's
    constraint set is its parent's plus a small delta.  A context keeps
    the *propagated* form of the prefix (bindings + interval domains
    already applied), so deciding the child costs only the delta's
    propagation plus the residual search — instead of re-asserting the
    whole suffix-deep conjunction from scratch at every candidate.
    """

    #: propagated state after asserting every constraint in ``constraints``
    state: _State
    #: the full conjunction this context represents, in assertion order
    constraints: Tuple[Expr, ...]
    #: True when propagation already proved the prefix unsatisfiable
    unsat: bool = False
    #: cache-key namespace for deltas extending this context
    token: int = 0
    #: verdict of solving exactly ``constraints`` (set by solve_extended):
    #: what a flat solve returns too, so suffix replay reuses it as is
    result: Optional[SolveResult] = None
    #: union of free symbols over ``constraints`` — lets a child's
    #: recheck compare models on the prefix instead of re-evaluating it
    syms: frozenset = frozenset()


class Solver:
    """Three-valued solver over 64-bit word constraints.

    Args:
        max_enum: largest finite domain the search will enumerate
            exhaustively (exhaustion ⇒ a sound UNSAT).
        max_nodes: search-node budget before giving up with UNKNOWN.
    """

    def __init__(self, max_enum: int = 4096, max_nodes: int = 200_000):
        self.max_enum = max_enum
        self.max_nodes = max_nodes
        #: verdicts of previously-decided (context, delta) conjunctions.
        #: Keyed by the context's token plus the *structural* delta set,
        #: so sibling candidates that raise identical compatibility
        #: checks against the same parent never re-solve.
        self._delta_cache: Dict[Tuple[int, frozenset], SolveResult] = {}
        self._delta_cache_cap = 65536
        #: partial models for symbol-connected residual components.
        #: A component search is a pure function of the *ordered*
        #: component constraints, its symbols' domains, and the solver
        #: caps, so identical components recurring across search nodes
        #: (the parent's residual re-surfacing in every child) are
        #: answered without re-searching.  Exact keys — never fuzzy.
        self._component_cache: Dict[tuple, SolveResult] = {}
        self._component_cache_cap = 65536
        #: interval over-approximations per (expr identity, relevant
        #: domains).  Values are ``(expr, range)`` — the pinned expr
        #: keeps the id key from being recycled.
        self._range_cache: Dict[tuple, tuple] = {}
        self._range_cache_cap = 65536
        #: point-range folding results, same key discipline as
        #: ``_range_cache`` (id + relevant domains, expr-pinning values)
        self._fold_cache: Dict[tuple, tuple] = {}
        self._next_token = itertools.count(1)
        #: counters exposed to SynthesisStats
        self.stat_calls = 0
        self.stat_cache_hits = 0
        #: diagnostic only (never folded into SynthesisStats): range
        #: queries answered from a memo instead of re-walking the tree
        self.stat_range_hits = 0

    # ------------------------------------------------------------------
    # Public API
    # ------------------------------------------------------------------

    def solve(self, constraints: Sequence[Expr]) -> SolveResult:
        """Decide satisfiability of the conjunction of ``constraints``."""
        self.stat_calls += 1
        state = _State()
        status = self._assert_all(state, constraints)
        if status is SolveStatus.UNSAT:
            return SolveResult(SolveStatus.UNSAT)
        result = self._search(state)
        return self._recheck(result, constraints)

    def _recheck(self, result: SolveResult,
                 constraints: Sequence[Expr]) -> SolveResult:
        """SAT must be trustworthy: re-check the original constraints
        under the model and downgrade to UNKNOWN on any miss."""
        if result.is_sat and result.model is not None:
            for constraint in constraints:
                value = evaluate_compiled(truth_of(constraint), result.model)
                if value is None or value == 0:
                    return SolveResult(SolveStatus.UNKNOWN,
                                       nodes_explored=result.nodes_explored)
        return result

    def _recheck_extended(self, ctx: SolverContext, delta: Sequence[Expr],
                          result: SolveResult,
                          constraints: Sequence[Expr]) -> SolveResult:
        """Incremental form of :meth:`_recheck` for ``ctx + delta``.

        The parent's SAT result already passed a recheck of exactly
        ``ctx.constraints`` under its model.  If the new model assigns
        every prefix symbol the same value, each prefix constraint
        evaluates identically and only the delta needs re-evaluation;
        any difference (or no verified parent) falls back to the full
        recheck.
        """
        if not result.is_sat or result.model is None:
            return result
        prev = ctx.result
        if prev is None or not prev.is_sat or prev.model is None:
            return self._recheck(result, constraints)
        model, parent_model = result.model, prev.model
        for name in ctx.syms:
            if model.get(name) != parent_model.get(name):
                return self._recheck(result, constraints)
        for constraint in delta:
            value = evaluate_compiled(truth_of(constraint), model)
            if value is None or value == 0:
                return SolveResult(SolveStatus.UNKNOWN,
                                   nodes_explored=result.nodes_explored)
        return result

    # ------------------------------------------------------------------
    # Incremental API: contexts + delta solving
    # ------------------------------------------------------------------

    def context_for(self, constraints: Sequence[Expr]) -> SolverContext:
        """Build a context by asserting ``constraints`` from scratch."""
        state = _State()
        status = self._assert_all(state, constraints)
        syms = frozenset().union(*(free_syms(c) for c in constraints)) \
            if constraints else frozenset()
        return SolverContext(state=state, constraints=tuple(constraints),
                             unsat=status is SolveStatus.UNSAT,
                             token=next(self._next_token), syms=syms)

    def extend_context(self, ctx: SolverContext,
                       delta: Sequence[Expr]) -> SolverContext:
        """Child context for ``ctx.constraints + delta``.

        Only the delta is propagated; the parent's bindings and domains
        are cloned, not recomputed — O(|state| copy + |delta| assert)
        instead of O(total conjunction)."""
        constraints = ctx.constraints + tuple(delta)
        if ctx.unsat:
            return SolverContext(state=ctx.state, constraints=constraints,
                                 unsat=True, token=next(self._next_token),
                                 syms=ctx.syms)
        if not delta:
            return SolverContext(state=ctx.state, constraints=constraints,
                                 unsat=False, token=next(self._next_token),
                                 syms=ctx.syms)
        syms = ctx.syms.union(*(free_syms(c) for c in delta))
        state = ctx.state.clone()
        state.resolved_cache = None
        status = self._assert_all(state, delta)
        return SolverContext(state=state, constraints=constraints,
                             unsat=status is SolveStatus.UNSAT,
                             token=next(self._next_token), syms=syms)

    def solve_extended(self, ctx: SolverContext, delta: Sequence[Expr],
                       want_context: bool = True
                       ) -> Tuple[SolveResult, Optional[SolverContext]]:
        """Decide ``ctx.constraints + delta`` incrementally.

        Returns the verdict plus (when ``want_context``) a child context
        for the combined conjunction, ready for further extension.
        Verdicts are cached per (context, ordered delta): sibling
        candidates generating identical checks hit the cache and skip
        the search.  The key keeps the delta's order because a verdict
        depends on assertion order; siblings raising the same
        constraints in another order are decided separately.
        """
        self.stat_calls += 1
        key = (ctx.token, tuple(delta))
        cached = self._delta_cache.get(key)
        if cached is not None:
            self.stat_cache_hits += 1
            if not want_context:
                return cached, None
            child = self.extend_context(ctx, delta)
            child.result = cached
            return cached, child
        child = self.extend_context(ctx, delta)
        if child.unsat:
            result = SolveResult(SolveStatus.UNSAT)
        else:
            seed = ctx.state.resolved_cache
            result = self._recheck_extended(
                ctx, delta,
                self._search(child.state, seed, use_component_cache=True),
                child.constraints)
        if len(self._delta_cache) < self._delta_cache_cap:
            self._delta_cache[key] = result
        child.result = result
        if not want_context:
            return result, None
        return result, child

    def unique_value_extended(self, ctx: SolverContext,
                              delta: Sequence[Expr],
                              expr: Expr) -> Tuple[Optional[int], bool]:
        """Incremental form of :meth:`unique_value` over ``ctx + delta``.

        Both queries are chained solves with no fallback: each returns
        the verdict :meth:`solve` reaches on the flat conjunction, so
        the two engine modes concretize addresses identically.
        """
        first, _ = self.solve_extended(ctx, tuple(delta), want_context=False)
        if not first.is_sat or first.model is None:
            return None, False
        value = evaluate(expr, first.model)
        if value is None:
            return None, False
        exclusion = bin_expr("ne", expr, Const(value))
        second, _ = self.solve_extended(ctx, tuple(delta) + (exclusion,),
                                        want_context=False)
        return value, second.is_unsat

    # ------------------------------------------------------------------
    # Cache export / import (warm-start priming)
    # ------------------------------------------------------------------

    def export_component_cache(self, max_rows: int = 20_000) -> dict:
        """JSON-safe snapshot of the residual-component cache.

        A component verdict is a pure function of the *ordered* component
        constraints, the relevant symbol domains, and the solver caps —
        so a snapshot taken after one search can prime a fresh solver
        (e.g. a warm triage worker) without any risk of changing
        verdicts, **provided the caps match**: the export records them
        and :meth:`import_component_cache` rejects a mismatch outright
        (a bigger-budget verdict is not the same pure function).
        """
        rows: List[list] = []
        for (constraints, domains), result in self._component_cache.items():
            try:
                row = [
                    [expr_to_obj(c) for c in constraints],
                    [[name, [list(r) for r in ranges]]
                     for name, ranges in domains],
                    [result.status.value,
                     None if result.model is None else dict(result.model),
                     result.nodes_explored],
                ]
            except (TypeError, ValueError):
                continue  # never let one odd expr poison the export
            rows.append(row)
            if len(rows) >= max_rows:
                break
        return {"caps": [self.max_enum, self.max_nodes], "rows": rows}

    def import_component_cache(self, payload: dict) -> int:
        """Prime the component cache from an exported snapshot.

        Strict by construction: snapshots from a solver with different
        caps import zero rows (their verdicts are not equivalent), and
        malformed rows are skipped, never guessed at.  Existing entries
        win over imported ones.  Returns the number of rows adopted.
        """
        if not isinstance(payload, dict) \
                or list(payload.get("caps", [])) != [self.max_enum,
                                                     self.max_nodes]:
            return 0
        adopted = 0
        for row in payload.get("rows", []):
            try:
                raw_constraints, raw_domains, raw_result = row
                key = (
                    tuple(expr_from_obj(c) for c in raw_constraints),
                    tuple((name, tuple(tuple(r) for r in ranges))
                          for name, ranges in raw_domains),
                )
                status = SolveStatus(raw_result[0])
                model = raw_result[1]
                if model is not None:
                    model = {str(k): int(v) for k, v in model.items()}
                result = SolveResult(status, model,
                                     nodes_explored=int(raw_result[2]))
            except (TypeError, ValueError, KeyError, IndexError):
                continue
            if key in self._component_cache \
                    or len(self._component_cache) >= self._component_cache_cap:
                continue
            self._component_cache[key] = result
            adopted += 1
        return adopted

    def check_sat(self, constraints: Sequence[Expr]) -> bool:
        """True unless the constraints are *provably* unsatisfiable."""
        return not self.solve(constraints).is_unsat

    def unique_value(self, constraints: Sequence[Expr],
                     expr: Expr) -> Tuple[Optional[int], bool]:
        """Evaluate ``expr`` under the constraints.

        Returns ``(value, unique)``: a feasible value (or None if even
        one model cannot be found) and whether it is provably the only
        one — the pointer-concretization query (paper §2.4 leaves
        symbolic addresses open; we resolve them this way).
        """
        first = self.solve(constraints)
        if not first.is_sat or first.model is None:
            return None, False
        value = evaluate(expr, first.model)
        if value is None:
            return None, False
        exclusion = bin_expr("ne", expr, Const(value))
        second = self.solve(list(constraints) + [exclusion])
        return value, second.is_unsat

    def feasible_values(self, constraints: Sequence[Expr], expr: Expr,
                        limit: int = 4) -> List[int]:
        """Up to ``limit`` distinct feasible values of ``expr`` (fork set)."""
        values: List[int] = []
        extra: List[Expr] = []
        for _ in range(limit):
            result = self.solve(list(constraints) + extra)
            if not result.is_sat or result.model is None:
                break
            value = evaluate(expr, result.model)
            if value is None or value in values:
                break
            values.append(value)
            extra.append(bin_expr("ne", expr, Const(value)))
        return values

    # ------------------------------------------------------------------
    # Phase 1+2: rewriting, substitution, interval propagation
    # ------------------------------------------------------------------

    def _assert_all(self, state: _State, constraints: Sequence[Expr]) -> SolveStatus:
        # Popped first to last (re-queued constraints before the next
        # original), so a flat assert of prefix + delta repeats
        # context_for(prefix) then extend_context(delta) step for step.
        pending = [truth_of(c) for c in reversed(constraints)]
        for constraint in pending:
            state.all_syms |= free_syms(constraint)
        while pending:
            constraint = pending.pop()
            constraint = substitute(constraint, state.bindings)
            # Binding values may themselves mention symbols that were
            # bound *later* (t1 ↦ f(t2) recorded before t2 ↦ 0), so one
            # substitution pass can re-introduce bound symbols.  Iterate
            # to a fixpoint so contradictions fold to Const(0) instead
            # of leaking a stale symbol into the domain/residual paths.
            # The cap guards against cyclic bindings, which _isolate
            # should never produce.
            for _ in range(8):
                if free_syms(constraint).isdisjoint(state.bindings.keys()):
                    break
                constraint = substitute(constraint, state.bindings)
            if isinstance(constraint, Const):
                if constraint.value == 0:
                    return SolveStatus.UNSAT
                continue
            rewritten = self._rewrite_even_mul(constraint)
            if rewritten is not None:
                pending.append(rewritten)
                continue
            binding = self._extract_binding(constraint)
            if binding is not None:
                name, expr = binding
                # Only adopt open (non-constant) bindings while they are
                # small: substituting a large open term into every other
                # constraint mentioning the symbol grows expressions
                # multiplicatively and can stall the whole solve.
                if isinstance(expr, Const) or expr_size(expr) <= 64:
                    if self._bind(state, name, expr, pending) \
                            is SolveStatus.UNSAT:
                        return SolveStatus.UNSAT
                    continue
            refinement = self._extract_domain(constraint)
            if refinement is not None:
                name, dom = refinement
                bound = state.bindings.get(name)
                if isinstance(bound, Const):
                    # Defense in depth: a refinement for an already
                    # const-bound symbol is a membership test, not a
                    # domain update (the fixpoint above should make
                    # this unreachable).
                    if bound.value not in dom:
                        return SolveStatus.UNSAT
                    continue
                new = state.domain(name).intersect(dom)
                if new.is_empty():
                    return SolveStatus.UNSAT
                state.domains[name] = new
                state.touched.add(name)
                if new.size() == 1:
                    # Domain collapsed: promote to a binding.
                    if self._bind(state, name, Const(new.min()), pending) \
                            is SolveStatus.UNSAT:
                        return SolveStatus.UNSAT
                    continue
                # Comparisons fully captured by the domain can be dropped;
                # keep eq/ne-free comparisons out of the residual set.
                continue
            state.constraints.append(constraint)
        return SolveStatus.UNKNOWN  # not yet decided

    def _bind(self, state: _State, name: str, expr: Expr,
              pending: List[Expr]) -> SolveStatus:
        if name in state.bindings:
            pending.append(bin_expr("eq", state.bindings[name], expr))
            return SolveStatus.UNKNOWN
        if isinstance(expr, Const) and expr.value not in state.domain(name):
            return SolveStatus.UNSAT
        state.bindings[name] = expr
        state.touched.add(name)
        # Re-queue every residual constraint mentioning the symbol.
        keep: List[Expr] = []
        for constraint in state.constraints:
            if name in free_syms(constraint):
                pending.append(constraint)
            else:
                keep.append(constraint)
        state.constraints = keep
        return SolveStatus.UNKNOWN

    @classmethod
    def _peel_eq(cls, constraint: Expr) -> Expr:
        """Move symbol-free operands of an equality to the constant side
        (x ∘ k == v → x == v ∘⁻¹ k for the group operations), exposing
        the symbol-bearing core to the other rewriters."""
        if not (isinstance(constraint, BinExpr) and constraint.op == "eq"):
            return constraint
        lhs, rhs = constraint.a, constraint.b
        if not isinstance(rhs, Const):
            if isinstance(lhs, Const):
                lhs, rhs = rhs, lhs
            else:
                return constraint
        while isinstance(lhs, BinExpr) and lhs.op in ("add", "sub", "xor"):
            x, y = lhs.a, lhs.b
            if not free_syms(y):
                rhs = {"add": lambda: bin_expr("sub", rhs, y),
                       "sub": lambda: bin_expr("add", rhs, y),
                       "xor": lambda: bin_expr("xor", rhs, y)}[lhs.op]()
                lhs = x
            elif not free_syms(x):
                rhs = {"add": lambda: bin_expr("sub", rhs, x),
                       "sub": lambda: bin_expr("sub", x, rhs),
                       "xor": lambda: bin_expr("xor", rhs, x)}[lhs.op]()
                lhs = y
            else:
                break
            if not isinstance(rhs, Const):
                return constraint  # peeled into a non-ground rhs: stop
        return bin_expr("eq", lhs, rhs)

    @staticmethod
    def _rewrite_even_mul(constraint: Expr) -> Optional[Expr]:
        """``X * c == v`` with even ``c`` is exactly ``X & mask == x0``.

        With c = odd * 2^k, the equation has solutions iff 2^k divides
        v, and then constrains exactly the low 64-k bits of X:
        X ≡ (v >> k) * inv(odd)  (mod 2^(64-k)).  The rewrite exposes
        that as an ``and``-with-mask equality the rest of the pipeline
        (isolation, guesses, bit-fixing) digests.
        """
        if not (isinstance(constraint, BinExpr) and constraint.op == "eq"):
            return None
        lhs, rhs = constraint.a, constraint.b
        if not isinstance(rhs, Const):
            lhs, rhs = rhs, lhs
        if not (isinstance(rhs, Const) and isinstance(lhs, BinExpr)
                and lhs.op == "mul" and isinstance(lhs.b, Const)):
            return None
        c = lhs.b.value
        if c == 0 or c % 2 == 1:
            return None  # odd multipliers invert exactly via _isolate
        k = (c & -c).bit_length() - 1
        if rhs.value % (1 << k) != 0:
            return Const(0)  # no solutions: provably false
        odd = c >> k
        modulus = 1 << (64 - k)
        x0 = ((rhs.value >> k) * pow(odd, -1, modulus)) % modulus
        return bin_expr("eq", bin_expr("and", lhs.a, Const(modulus - 1)),
                        Const(x0))

    @classmethod
    def _extract_binding(cls, constraint: Expr) -> Optional[Tuple[str, Expr]]:
        """Match ``sym == expr`` patterns the rewriter can solve exactly."""
        if not (isinstance(constraint, BinExpr) and constraint.op == "eq"):
            return None
        a, b = constraint.a, constraint.b
        # Direct sym == expr matches carry no blow-up risk beyond what
        # the constraint itself already contains.
        if isinstance(a, Sym) and a.name not in free_syms(b):
            return a.name, b
        if isinstance(b, Sym) and b.name not in free_syms(a):
            return b.name, a
        found = cls._isolate(a, b) or cls._isolate(b, a)
        if found is None:
            return None
        name, expr = found
        # Isolation *builds* the solved-for expression; adopting a large
        # open term as a binding makes every later substitution rebuild
        # it into every constraint mentioning the symbol — quadratic
        # tree growth.  Only adopt ground or tiny results.
        if isinstance(expr, Const) or expr_size(expr) <= 8:
            return found
        return None

    @classmethod
    def _isolate(cls, lhs: Expr, rhs: Expr) -> Optional[Tuple[str, Expr]]:
        """Solve ``lhs == rhs`` for one symbol, peeling invertible
        operations: add/sub/xor are group operations on 64-bit words,
        and multiplication by an odd constant has a modular inverse."""
        if isinstance(lhs, Sym):
            return (lhs.name, rhs) if lhs.name not in free_syms(rhs) else None
        if not isinstance(lhs, BinExpr):
            return None
        x, y = lhs.a, lhs.b
        if lhs.op in ("add", "sub", "xor"):
            x_syms, y_syms = free_syms(x), free_syms(y)
            if x_syms & y_syms:
                return None  # the symbol occurs on both sides of the op
            if x_syms:
                moved = {
                    "add": lambda: bin_expr("sub", rhs, y),
                    "sub": lambda: bin_expr("add", rhs, y),
                    "xor": lambda: bin_expr("xor", rhs, y),
                }[lhs.op]()
                found = cls._isolate(x, moved)
                if found is not None:
                    return found
            if y_syms:
                moved = {
                    "add": lambda: bin_expr("sub", rhs, x),
                    "sub": lambda: bin_expr("sub", x, rhs),
                    "xor": lambda: bin_expr("xor", rhs, x),
                }[lhs.op]()
                return cls._isolate(y, moved)
            return None
        if lhs.op == "mul" and isinstance(y, Const):
            inverse = _mod_inverse(y.value)
            if inverse is not None:
                return cls._isolate(x, bin_expr("mul", rhs, Const(inverse)))
        return None

    @staticmethod
    def _extract_domain(constraint: Expr) -> Optional[Tuple[str, IntSet]]:
        """Match single-symbol comparisons → exact domain refinement."""
        if not (isinstance(constraint, BinExpr) and constraint.op in COMPARE_OPS):
            return None
        a, b = constraint.a, constraint.b
        if not isinstance(b, Const):
            return None
        if isinstance(a, Sym):
            return a.name, cmp_domain(constraint.op, b.value)
        # (op (add sym c) bound): exact for every comparison via a
        # circular shift of the satisfying set.
        if isinstance(a, BinExpr) and a.op == "add" \
                and isinstance(a.a, Sym) and isinstance(a.b, Const):
            base = cmp_domain(constraint.op, b.value)
            return a.a.name, base.shift(-a.b.value)
        return None

    # ------------------------------------------------------------------
    # Phase 3: bounded search
    def _range_of(self, expr: Expr, state: _State,
                  memo: Optional[dict] = None) -> IntSet:
        """Memoized :func:`expr_range` over the state's domains.

        Two memo layers, both keyed by expr *identity* (hash-consing
        makes structurally-equal exprs the same object, so an id key is
        as good as a structural one and costs no tree walk):

        - ``memo`` — the per-search walk memo, shared across every
          range query of one :meth:`_search` call (domains are fixed
          for its duration).  Passing it into :func:`expr_range` also
          shares *sub*-expression results between queries, so a
          sub-DAG common to two constraints is walked once.
        - ``self._range_cache`` — persistent across searches, keyed by
          (id, relevant domains); covers the naive engine re-solving
          suffix-deep conjunctions whose constraints recur verbatim.
        """
        if memo is not None:
            hit = memo.get(id(expr))
            if hit is not None:
                self.stat_range_hits += 1
                return hit[1]
        key = (id(expr), tuple(sorted(
            (name, state.domain(name).ranges)
            for name in free_syms(expr))))
        cached = self._range_cache.get(key)
        if cached is not None:
            self.stat_range_hits += 1
            result = cached[1]
            if memo is not None:
                memo[id(expr)] = (expr, result)
            return result
        result = expr_range(expr, state.domain, memo=memo)
        if len(self._range_cache) < self._range_cache_cap:
            self._range_cache[key] = (expr, result)
        return result

    def _fold_point_ranges(self, expr: Expr, state: _State,
                           memo: Optional[dict] = None) -> Expr:
        """Replace subexpressions whose interval image under the current
        domains is a single value with that constant.

        Sound by the conservatism of :func:`expr_range`: an
        over-approximation containing exactly one value means the
        subexpression evaluates to it under *every* model of the
        domains.  This closes an assertion-order hole the differential
        fuzzer found (seed 11870): a symbol bound early to an open
        boolean term — ``t1 ↦ (ne t2 0)`` with ``t2 ≠ 0`` already
        known — keeps a second symbol alive inside a residual that is
        really single-symbol, blocking the exact bit-fixing layer; the
        incremental chain, which happened to assert ``t1 == 1`` first,
        proved SAT where the from-scratch solve stayed UNKNOWN.
        """
        if not free_syms(expr):
            return expr
        if memo is not None:
            # Per-search fold memo (separate key space from the range
            # memo: values are folded *exprs*, not ranges).  Shared
            # sub-DAGs across a search's residual constraints fold once.
            hit = memo.get(("fold", id(expr)))
            if hit is not None:
                return hit[1]
        key = (id(expr), tuple(sorted(
            (name, state.domain(name).ranges)
            for name in free_syms(expr))))
        cached = self._fold_cache.get(key)
        if cached is not None:
            self.stat_range_hits += 1
            result = cached[1]
            if memo is not None:
                memo[("fold", id(expr))] = (expr, result)
            return result
        image = self._range_of(expr, state, memo)
        if image.size() == 1:
            result = Const(image.min())
        elif isinstance(expr, BinExpr):
            a = self._fold_point_ranges(expr.a, state, memo)
            b = self._fold_point_ranges(expr.b, state, memo)
            if a is not expr.a or b is not expr.b:
                result = bin_expr(expr.op, a, b)
            else:
                result = expr
        else:
            result = expr
        if memo is not None:
            memo[("fold", id(expr))] = (expr, result)
        if len(self._fold_cache) < self._range_cache_cap:
            self._fold_cache[key] = (expr, result)
        return result

    # ------------------------------------------------------------------

    def _search(self, state: _State,
                resolved_seed: Optional[Dict[str, Expr]] = None,
                use_component_cache: bool = False) -> SolveResult:
        # Bindings may map symbols to expressions over *other* symbols
        # (x == y + 1 binds x to an open term), so residual constraints
        # can still mention bound symbols after one substitution pass.
        # Resolve the binding map once, in dependency order and with a
        # size cap (deep chains grow multiplicatively), then substitute
        # each constraint a single time.  A residual the search never
        # grounds would otherwise read as an exhausted (empty) search
        # space and produce a false UNSAT.
        resolved = self._resolve_bindings(state.bindings, seed=resolved_seed)
        # Walk memo for every range query of this search: domains are
        # fixed until the residual is collected, so one memo serves all
        # constraints (and their shared sub-DAGs).
        range_memo: dict = {}
        # Incremental preamble: a parent search already classified most
        # of these constraints (dropped / residual form) under the same
        # resolved entries and domains.  A cached row is reusable when
        # none of its relevant symbols changed — ``state.touched``
        # tracks domain/binding writes since the cache was committed,
        # and the resolved map is diffed against the seed (identical
        # entries are carried by reference, so ``is`` is exact).  The
        # naive path (``solve()``/fresh states) never has a cache and is
        # untouched — it stays the independent oracle.
        cache = state.preamble_cache
        affected: Optional[Set[str]] = None
        if cache is not None and resolved_seed is not None:
            affected = set(state.touched)
            for name, expr in resolved.items():
                if resolved_seed.get(name) is not expr:
                    affected.add(name)
            for name in resolved_seed:
                if name not in resolved:
                    affected.add(name)
        # A symbol can acquire a domain refinement (x ≠ 0) and *then* an
        # open binding (x ↦ f(y)); the domain knowledge is not folded
        # into the binding at assert time, so once the binding resolves
        # it must be checked against the domain or the contradiction is
        # silently dropped (another order-dependent UNKNOWN the
        # differential fuzzer surfaced).  Iterate the (small) domain
        # map, not the (large) binding map — and with a valid preamble
        # cache, only the symbols whose domain or resolution changed
        # (the parent ran the identical check for the rest).
        check_names = state.domains.keys() if affected is None else affected
        for name in check_names:
            dom = state.domains.get(name)
            if dom is None or dom.is_full():
                continue
            expr = resolved.get(name)
            if expr is None:
                continue
            image = self._range_of(expr, state, range_memo)
            if image.intersect(dom).is_empty():
                return SolveResult(SolveStatus.UNSAT)
        residual: List[Expr] = []
        new_rows: Dict[int, tuple] = {}
        for constraint in state.constraints:
            if affected is not None:
                row = cache.get(id(constraint))
                if row is not None and row[0] is constraint \
                        and affected.isdisjoint(row[2]):
                    new_rows[id(constraint)] = row
                    if row[1] is not None:
                        residual.append(row[1])
                    continue
            original = constraint
            relevant = free_syms(constraint)
            if not relevant.isdisjoint(resolved.keys()):
                constraint = substitute(constraint, resolved)
                relevant = relevant | free_syms(constraint)
            if not isinstance(constraint, Const):
                constraint = self._fold_point_ranges(constraint, state,
                                                     range_memo)
            if isinstance(constraint, Const):
                if constraint.value == 0:
                    return SolveResult(SolveStatus.UNSAT)
                new_rows[id(original)] = (original, None, relevant)
                continue
            # Interval refutation: an over-approximation of the
            # constraint's value decides it when the bounded search
            # cannot (e.g. ((n & 3) + 1) > 5000 over a full 2^64
            # domain).
            truth = self._range_of(constraint, state, range_memo)
            if truth.is_empty() or truth.max() == 0:
                return SolveResult(SolveStatus.UNSAT)
            if 0 not in truth:
                # tautological under the domains: drop
                new_rows[id(original)] = (original, None, relevant)
                continue
            residual.append(constraint)
            new_rows[id(original)] = (original, constraint, relevant)
        # Commit: rows, the resolved map they were computed under, and
        # the touched-set epoch move together.  Early-UNSAT returns
        # above leave all three untouched (children of an UNSAT context
        # fall back to the uncached path).
        state.preamble_cache = new_rows
        state.resolved_cache = resolved
        state.touched.clear()
        unbound: Set[str] = set()
        for constraint in residual:
            unbound |= free_syms(constraint)
        unbound = {n for n in unbound if n not in state.bindings}
        if any(not free_syms(c).isdisjoint(state.bindings.keys())
               for c in residual):
            # Unresolvable chain (cycle or size cap): don't let the
            # search claim exhaustion over symbols it never assigned.
            return SolveResult(SolveStatus.UNKNOWN)

        if not residual:
            model = self._complete_model(state, {}, resolved)
            if model is None:
                return SolveResult(SolveStatus.UNKNOWN)
            return SolveResult(SolveStatus.SAT, model)

        # Constraints sharing no symbols are independent subproblems;
        # solving them separately lets the exact single-symbol machinery
        # apply per component instead of only when the whole residual
        # mentions one symbol.
        total_nodes = 0
        unknown = False
        combined: Dict[str, int] = {}
        for comp_constraints, comp_syms in self._components(residual,
                                                            unbound):
            key = None
            if use_component_cache:
                key = (tuple(comp_constraints),
                       tuple(sorted((name, state.domain(name).ranges)
                                    for name in comp_syms)))
                cached = self._component_cache.get(key)
                if cached is not None:
                    result = cached
                    key = None  # already stored
                else:
                    result = self._search_component(state, comp_constraints,
                                                    comp_syms)
            else:
                result = self._search_component(state, comp_constraints,
                                                comp_syms)
            if key is not None \
                    and len(self._component_cache) < self._component_cache_cap:
                self._component_cache[key] = result
            total_nodes += result.nodes_explored
            if result.status is SolveStatus.UNSAT:
                return SolveResult(SolveStatus.UNSAT,
                                   nodes_explored=total_nodes)
            if result.status is SolveStatus.UNKNOWN or result.model is None:
                unknown = True
                continue
            combined.update(result.model)
        if unknown:
            return SolveResult(SolveStatus.UNKNOWN,
                               nodes_explored=total_nodes)
        model = self._complete_model(state, combined, resolved)
        if model is None:
            return SolveResult(SolveStatus.UNKNOWN,
                               nodes_explored=total_nodes)
        return SolveResult(SolveStatus.SAT, model,
                           nodes_explored=total_nodes)

    @staticmethod
    def _resolve_bindings(bindings: Dict[str, Expr],
                          size_cap: int = 256,
                          seed: Optional[Dict[str, Expr]] = None
                          ) -> Dict[str, Expr]:
        """Close the binding map under itself, dependency-first.

        Only bindings whose dependencies are already resolved are
        expanded, and any expansion beyond ``size_cap`` nodes is left
        open (the caller treats constraints still mentioning bound
        symbols as UNKNOWN rather than risking exponential growth).

        ``seed`` carries already-closed entries from a parent context.
        Bindings are append-only across context extension, so a parent
        expansion is still the fixpoint answer for the child — *unless*
        it mentions a symbol the child has since bound (the expansion is
        no longer closed); those entries are dropped and recomputed."""
        resolved: Dict[str, Expr] = {}
        pending: List[Tuple[str, Expr]] = []
        if seed:
            # A seed entry is closed w.r.t. the parent map, so only the
            # names added since (bindings − seed) can re-open it.
            new_names = bindings.keys() - seed.keys()
            for name, expr in bindings.items():
                prev = seed.get(name)
                if prev is not None \
                        and free_syms(prev).isdisjoint(new_names):
                    resolved[name] = prev
                elif free_syms(expr) & bindings.keys():
                    pending.append((name, expr))
                else:
                    resolved[name] = expr
        else:
            for name, expr in bindings.items():
                if free_syms(expr) & bindings.keys():
                    pending.append((name, expr))
                else:
                    resolved[name] = expr
        blocked: Set[str] = set()
        for __ in range(len(bindings)):
            progressed = False
            still: List[Tuple[str, Expr]] = []
            for name, expr in pending:
                deps = free_syms(expr) & bindings.keys()
                if deps & blocked or not deps <= resolved.keys():
                    if deps & blocked:
                        blocked.add(name)
                    else:
                        still.append((name, expr))
                    continue
                expansion = substitute(expr, resolved)
                if expr_size(expansion) <= size_cap:
                    resolved[name] = expansion
                else:
                    blocked.add(name)
                progressed = True
            pending = still
            if not progressed or not pending:
                break
        return resolved

    @staticmethod
    def _components(residual: List[Expr],
                    unbound: Set[str]) -> List[Tuple[List[Expr], Set[str]]]:
        """Partition constraints into symbol-connected components."""
        groups: List[Tuple[List[Expr], Set[str]]] = []
        for constraint in residual:
            syms = free_syms(constraint) & unbound
            merged_constraints = [constraint]
            merged_syms = set(syms)
            keep: List[Tuple[List[Expr], Set[str]]] = []
            for other_constraints, other_syms in groups:
                if merged_syms & other_syms:
                    merged_constraints.extend(other_constraints)
                    merged_syms |= other_syms
                else:
                    keep.append((other_constraints, other_syms))
            keep.append((merged_constraints, merged_syms))
            groups = keep
        return groups

    def _search_component(self, state: _State, residual: List[Expr],
                          unbound: Set[str]) -> SolveResult:
        """Decide one symbol-connected component of the residual.

        A SAT result carries a *partial* model covering the component's
        symbols only; the caller merges components and completes."""
        if len(unbound) == 1:
            name = next(iter(unbound))
            verdict = self._bitfix_single_sym(residual, name,
                                              state.domain(name))
            if verdict is not None:
                found, exact = verdict
                if found is not None:
                    return SolveResult(SolveStatus.SAT, {name: found})
                if exact:
                    return SolveResult(SolveStatus.UNSAT)

        candidates: Dict[str, List[int]] = {}
        exhaustive: Dict[str, bool] = {}
        constants = self._constants_in(residual)
        derived = self._derived_guesses(residual)
        for name in unbound:
            domain = state.domain(name)
            if domain.size() <= self.max_enum:
                candidates[name] = list(domain.iter_values())
                exhaustive[name] = True
            else:
                guesses: List[int] = []
                for value in itertools.chain(
                    derived.get(name, []),
                    [0, 1, domain.min(), domain.max()],
                    constants,
                    (to_unsigned(c + d) for c in constants for d in (-1, 1)),
                ):
                    if value is not None and value in domain and value not in guesses:
                        guesses.append(value)
                candidates[name] = guesses
                exhaustive[name] = False

        # Fewest candidates, then highest degree (propagation binds a
        # symbol of one linear equation), then name: never set order.
        degree = {n: sum(n in free_syms(c) for c in residual) for n in unbound}
        order = sorted(unbound,
                       key=lambda n: (len(candidates[n]), -degree[n], n))
        nodes = [0]
        assignment: Dict[str, int] = {}

        found = self._dfs(residual, order, 0, candidates, assignment, nodes,
                          {name: state.domain(name) for name in unbound})
        if found is not None:
            return SolveResult(SolveStatus.SAT, found,
                               nodes_explored=nodes[0])
        if all(exhaustive.get(n, False) for n in order) and nodes[0] < self.max_nodes:
            return SolveResult(SolveStatus.UNSAT, nodes_explored=nodes[0])
        return SolveResult(SolveStatus.UNKNOWN, nodes_explored=nodes[0])

    def _dfs(self, constraints: List[Expr], order: List[str], depth: int,
             candidates: Dict[str, List[int]], assignment: Dict[str, int],
             nodes: List[int],
             domains: Dict[str, IntSet],
             fresh: Optional[Set[str]] = None) -> Optional[Dict[str, int]]:
        if nodes[0] >= self.max_nodes:
            return None
        # Evaluate/simplify all constraints under the partial assignment,
        # then propagate: a partial choice often linearizes a constraint
        # into a shape the isolation rules solve outright (assigning a
        # in `2 - a*c == v` leaves a one-symbol linear equation in c).
        local = dict(assignment)
        live = list(constraints)
        # Propagation pays off on small residuals (it solves them
        # outright); on large ones the per-iteration rewriting dominates.
        propagate = len(live) <= 32
        # ``constraints`` arrived already reduced under the caller's
        # assignment except for ``fresh`` (the names bound since that
        # reduction), so each round only needs to substitute the names
        # bound since the previous round — substituting the rest is an
        # identity (they no longer occur in ``live``).
        if fresh is None:
            pending_bindings = {name: Const(v) for name, v in local.items()}
        else:
            pending_bindings = {name: Const(local[name]) for name in fresh}
        progressed = True
        while progressed:
            progressed = False
            bindings = pending_bindings
            pending_bindings = {}
            reduced_live: List[Expr] = []
            for constraint in live:
                reduced = substitute(constraint, bindings) \
                    if bindings else constraint
                if isinstance(reduced, Const):
                    if reduced.value == 0:
                        return None
                    continue
                if not propagate:
                    reduced_live.append(reduced)
                    continue
                rewritten = self._rewrite_even_mul(self._peel_eq(reduced))
                if rewritten is not None:
                    reduced = rewritten
                    if isinstance(reduced, Const):
                        if reduced.value == 0:
                            return None
                        continue
                binding = self._extract_binding(reduced)
                if binding is not None:
                    name, expr = binding
                    value = evaluate(expr, local)
                    if value is not None and name not in local:
                        if value not in domains.get(name, IntSet.full()):
                            return None  # forced value outside its domain
                        local[name] = value
                        pending_bindings[name] = Const(value)
                        progressed = True
                        continue
                reduced_live.append(reduced)
            live = reduced_live
        if not live:
            return local
        while depth < len(order) and order[depth] in local:
            depth += 1  # already fixed by propagation
        if depth >= len(order):
            return None
        name = order[depth]
        # Partial assignments expose new exact solutions (an earlier
        # choice may linearize a product); re-derive guesses from the
        # reduced constraints and try them first.
        domain = domains.get(name, IntSet.full())
        values = list(candidates[name])
        for extra in self._derived_guesses(live).get(name, []):
            if extra in domain and extra not in values:
                values.insert(0, extra)
        for constant in self._constants_in(live):
            if constant in domain and constant not in values:
                values.append(constant)
        for value in values:
            nodes[0] += 1
            if nodes[0] >= self.max_nodes:
                return None
            local[name] = value
            result = self._dfs(live, order, depth + 1, candidates,
                               local, nodes, domains, fresh={name})
            if result is not None:
                return result
            del local[name]
        return None

    # ------------------------------------------------------------------
    # Helpers
    # ------------------------------------------------------------------

    #: operators whose low k output bits depend only on the low k input
    #: bits — the fragment the bit-fixing solver is exact on.  (Right
    #: shifts, division, and comparisons move high bits downward.)
    _LOW_BITS_OPS = frozenset(("add", "sub", "mul", "and", "or", "xor",
                               "shl"))

    @classmethod
    def _low_bits_expr(cls, expr: Expr) -> bool:
        if isinstance(expr, (Const, Sym)):
            return True
        if isinstance(expr, BinExpr) and expr.op in cls._LOW_BITS_OPS:
            if expr.op == "shl" and not isinstance(expr.b, Const):
                # A symbolic shift amount lets *high* bits of the amount
                # change low result bits (shl(1, x) is 0 or 1 depending
                # on all of x): outside the fragment.
                return False
            return cls._low_bits_expr(expr.a) and cls._low_bits_expr(expr.b)
        return False

    def _bitfix_single_sym(self, residual: List[Expr], name: str,
                           domain: IntSet):
        """Exact bit-by-bit solving for one symbol (§6's hash chains).

        Every ``e1 == e2`` constraint whose operators keep low bits
        low-bit-determined becomes ``(e1 - e2) ≡ 0 (mod 2^k)`` for
        k = 1..64; viable residues double or die at each bit.  Returns
        ``(value, exact)`` — value None when no residue survives, with
        ``exact`` True iff the residue set never overflowed the cap (so
        a miss is a *proof* of UNSAT for the eq-part) and no non-eq
        constraints were deferred; returns None when the fragment does
        not apply.
        """
        deltas: List[Expr] = []
        deferred: List[Expr] = []
        for constraint in residual:
            if isinstance(constraint, BinExpr) and constraint.op == "eq" \
                    and self._low_bits_expr(constraint.a) \
                    and self._low_bits_expr(constraint.b):
                deltas.append(bin_expr("sub", constraint.a, constraint.b))
            else:
                deferred.append(constraint)
        if not deltas:
            return None

        cap = 128
        capped = False
        residues = [0]
        for k in range(1, 65):
            mask = (1 << k) - 1
            survivors: List[Tuple[int, int]] = []
            for residue in residues:
                for candidate in (residue, residue | (1 << (k - 1))):
                    values = [evaluate_compiled(delta, {name: candidate})
                              for delta in deltas]
                    if all(v is not None and v & mask == 0 for v in values):
                        # Rank by how far beyond the required k bits the
                        # deltas already vanish (min across deltas).
                        rank = min(64 if v == 0
                                   else (v & -v).bit_length() - 1
                                   for v in values)
                        survivors.append((rank, candidate))
            if len(survivors) > cap:
                # Keep the highest-ranked survivors (stable order).
                # Hensel's lemma makes delta valuation the right merit:
                # a prefix of a true root has delta ≡ 0 to roughly
                # k + v₂(derivative) bits, while a generic spurious
                # survivor sits at exactly k — so true-root families
                # outrank the chaff that merely doubles along (x^8 == c
                # has hundreds of thousands of residues mod 2^64, far
                # beyond any cap, but its root prefixes rank on top).
                survivors.sort(key=lambda ranked: -ranked[0])
                survivors = survivors[:cap]
                capped = True
            residues = [candidate for _, candidate in survivors]
            if not residues:
                if capped:
                    # Truncation may have dropped viable residues:
                    # emptiness proves nothing, but a depth-first pass
                    # can still recover a witness.
                    found = self._bitfix_dfs(deltas, name, domain, deferred)
                    return found, False
                # When never capped, `residues` was the complete solution
                # set of the eq-part, so emptiness proves UNSAT even if
                # other constraints were deferred (they only restrict).
                return None, True
        for value in residues:
            if value not in domain:
                continue
            if all(evaluate_compiled(truth_of(c), {name: value}) == 1
                   for c in deferred):
                return value, not capped
        if capped:
            # The kept prefix produced no witness, but the dropped
            # residues might: solution sets of low-bits equalities can
            # legitimately exceed any level cap (x^8 == c has hundreds
            # of thousands of roots mod 2^64).  A bounded depth-first
            # walk of the residue tree visits one branch at a time —
            # O(64) memory — and in the solution-rich cases that
            # overflow the cap it reaches a leaf almost immediately.
            return self._bitfix_dfs(deltas, name, domain, deferred), False
        # Every complete solution of the eq-part fails the domain or a
        # deferred constraint: UNSAT, provided the set really is complete.
        return None, True

    def _bitfix_dfs(self, deltas: List[Expr], name: str, domain: IntSet,
                    deferred: List[Expr],
                    budget: int = 20_000) -> Optional[int]:
        """Depth-first witness search over the bit-fixing residue tree.

        Explores ``value mod 2^k`` prefixes low-bit first, extending a
        prefix only while every delta stays ≡ 0 mod 2^k, and accepts the
        first full word inside the domain that satisfies the deferred
        constraints.  Completeness fallback only — never used to prove
        UNSAT (the budget makes exhaustion unprovable)."""
        stack: List[Tuple[int, int]] = [(0, 1)]
        nodes = 0
        while stack and nodes < budget:
            residue, k = stack.pop()
            if k == 65:
                if residue in domain \
                        and all(evaluate_compiled(truth_of(c),
                                                  {name: residue}) == 1
                                for c in deferred):
                    return residue
                continue
            mask = (1 << k) - 1
            # Pushed high-bit-set first so the plain prefix pops first:
            # matches the breadth-first candidate order.
            for candidate in (residue | (1 << (k - 1)), residue):
                nodes += 1
                values = (evaluate_compiled(delta, {name: candidate})
                          for delta in deltas)
                if all(v is not None and v & mask == 0 for v in values):
                    stack.append((candidate, k + 1))
        return None

    @staticmethod
    def _derived_guesses(constraints: Sequence[Expr]) -> Dict[str, List[int]]:
        """Exact solutions for shapes the rewriter cannot bind uniquely.

        ``sym * c == v`` with even ``c`` has 2^k solutions (k = trailing
        zero bits of c); binding would lose all but one, but the search
        can try the canonical one: x0 = (v >> k) * inv(c >> k) modulo
        2^(64-k).  Division-free and exact when it applies.
        """
        out: Dict[str, List[int]] = {}
        for constraint in constraints:
            if not (isinstance(constraint, BinExpr) and constraint.op == "eq"):
                continue
            lhs, rhs = constraint.a, constraint.b
            if not isinstance(rhs, Const):
                lhs, rhs = rhs, lhs
            if not (isinstance(rhs, Const) and isinstance(lhs, BinExpr)
                    and lhs.op == "mul" and isinstance(lhs.a, Sym)
                    and isinstance(lhs.b, Const)):
                continue
            c, v = lhs.b.value, rhs.value
            if c == 0:
                continue
            k = (c & -c).bit_length() - 1  # trailing zero bits
            if v % (1 << k) != 0:
                continue  # provably no solution; propagation will prune
            odd = c >> k
            modulus = 1 << (64 - k)
            x0 = ((v >> k) * pow(odd, -1, modulus)) % modulus
            bucket = out.setdefault(lhs.a.name, [])
            for candidate in (x0, x0 + modulus if k else None):
                if candidate is not None and candidate < (1 << 64) \
                        and candidate not in bucket:
                    bucket.append(candidate)
        return out

    @staticmethod
    def _constants_in(constraints: Sequence[Expr]) -> List[int]:
        seen: List[int] = []

        def walk(expr: Expr) -> None:
            if isinstance(expr, Const) and expr.value not in seen:
                seen.append(expr.value)
            elif isinstance(expr, BinExpr):
                walk(expr.a)
                walk(expr.b)

        for constraint in constraints:
            walk(constraint)
        return seen

    def _complete_model(self, state: _State,
                        search_values: Dict[str, int],
                        resolved: Optional[Dict[str, Expr]] = None
                        ) -> Optional[Dict[str, int]]:
        """Fold bindings + domains + search results into a full model.

        ``resolved`` (the search's closed binding map) short-circuits
        the chain-evaluation fixpoint: a closed entry mentions no bound
        symbols, so one compiled evaluation gives the same value the
        fixpoint would reach by evaluating the chain link by link
        (substitution lemma; division-by-zero propagates identically).
        Unresolved (blocked) entries still go through the fixpoint.
        """
        model: Dict[str, int] = dict(search_values)
        for name in state.all_syms.difference(model).difference(state.bindings):
            sample = state.domain(name).sample()
            if sample is None:
                return None
            model[name] = sample
        # Bindings may reference each other; iterate to a fixpoint.
        if resolved:
            remaining = {}
            for name, expr in state.bindings.items():
                closed = resolved.get(name)
                if closed is None:
                    remaining[name] = expr
                    continue
                tp = type(closed)
                if tp is Const:
                    model[name] = closed.value
                    continue
                if tp is Sym:
                    value = model.get(closed.name)
                    if value is not None:
                        value &= WORD_MASK
                    else:
                        value = evaluate_compiled(closed, model)
                else:
                    value = evaluate_compiled(closed, model)
                if value is None:
                    return None
                model[name] = value
        else:
            remaining = dict(state.bindings)
        for _ in range(len(remaining) + 1):
            progressed = False
            for name, expr in list(remaining.items()):
                value = evaluate_compiled(expr, model)
                if value is not None:
                    model[name] = value
                    del remaining[name]
                    progressed = True
            if not remaining:
                break
            if not progressed:
                # Cyclic or under-determined bindings: give the free
                # symbols a default and retry once more.
                for free in set().union(*(free_syms(e) for e in remaining.values())):
                    model.setdefault(free, 0)
        for name, expr in remaining.items():
            value = evaluate_compiled(expr, model)
            if value is None:
                return None
            model[name] = value
        return model
