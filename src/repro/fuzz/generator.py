"""Seeded, grammar-driven MiniC program generator.

Every program this module emits is correct by construction in three
ways that matter to a differential campaign:

* it **typechecks** — variables are declared before use, calls match
  arity, array sizes are positive;
* it **terminates** — every loop is counter-bounded and every call
  chain is acyclic (helper ``i`` may only call helpers ``j < i``);
* it **traps deterministically** — the skeleton performs only safe
  operations (array indices are masked to the array size, divisors are
  masked away from zero, worker threads touch only their own globals
  and are joined before the probe), so a calibration run can observe
  the concrete value of a probe expression, and the armed variant then
  plants a failure site that is guaranteed to fire on that value.

The two-phase generate → calibrate → arm scheme is what lets the
campaign promise "every generated program reaches a trap" without ever
solving for inputs: the generator controls both the program *and* its
inputs, so it simply asks the VM what the probe works out to.

Determinism: all decisions come from one ``random.Random(seed)``; the
same ``(seed, GenConfig)`` pair always yields the same program, inputs,
and scheduler seed — which is what makes divergence artifacts
reproducible from their seed alone.
"""

from __future__ import annotations

import random
from dataclasses import asdict, dataclass, field
from typing import List, Optional, Tuple

from repro.errors import ReproError
from repro.ir.module import Module
from repro.minic import compile_source
from repro.vm.coredump import TrapKind
from repro.vm.interpreter import RunStatus, VM
from repro.vm.scheduler import RandomPreemptScheduler

#: the global array every program declares for the out-of-bounds arming;
#: the armed store lands this many words past the globals region, which
#: is always inside the unmapped gap below HEAP_BASE.
_OOB_SKEW = 5000

#: arming kinds, pre-weighted (assert twice: it is the kind the WP
#: oracle can cross-check, so it deserves the most coverage)
_ARM_KINDS = ("assert", "assert", "oob", "div", "abort")

_ARM_TRAPS = {
    "assert": TrapKind.ASSERT_FAIL,
    "oob": TrapKind.OUT_OF_BOUNDS,
    "div": TrapKind.DIV_BY_ZERO,
    "abort": TrapKind.ABORT,
}

_ARRAY_SIZES = (4, 8, 16)

_CMP_OPS = ("==", "!=", "<", "<=", ">", ">=")
_ARITH_OPS = ("+", "-", "*", "&", "|", "^")


class GeneratorError(ReproError):
    """The generator violated one of its own guarantees (a fuzz finding
    in its own right: campaign runs record it as a divergence)."""


@dataclass(frozen=True)
class GenConfig:
    """Grammar weights and size bounds (all decisions still seeded)."""

    threads_prob: float = 0.25
    heap_prob: float = 0.3
    output_prob: float = 0.3
    lock_prob: float = 0.6
    max_helpers: int = 3
    max_workers: int = 2
    min_main_stmts: int = 4
    max_main_stmts: int = 9
    max_helper_stmts: int = 4
    max_block_depth: int = 2
    max_expr_depth: int = 3
    #: VM step budget for the calibration run (loops are bounded, so
    #: hitting this means the generator is broken, not the program)
    calibration_budget: int = 300_000
    preempt_prob: float = 0.3


@dataclass
class GeneratedProgram:
    """One armed program plus everything needed to reproduce its trap."""

    seed: int
    name: str
    source: str            #: armed variant (guaranteed to trap)
    skeleton: str          #: trap-free probe variant (for debugging)
    inputs: List[int]
    expected_trap: TrapKind
    arm_kind: str
    probe_value: int
    uses_threads: bool
    sched_seed: int
    #: crash function of the ``assert`` arming (WP oracle target)
    gate_function: Optional[str] = None
    gen_config: dict = field(default_factory=dict)
    _module: Optional[Module] = None

    @property
    def module(self) -> Module:
        if self._module is None:
            self._module = compile_source(self.source, name=self.name)
        return self._module

    def make_scheduler(self) -> RandomPreemptScheduler:
        preempt = self.gen_config.get("preempt_prob", 0.3)
        return RandomPreemptScheduler(seed=self.sched_seed,
                                      preempt_prob=preempt)


# ---------------------------------------------------------------------------
# The emitter
# ---------------------------------------------------------------------------

@dataclass
class _Scope:
    """Readable scalar names, writable scalar names, and live arrays."""

    readable: List[str]
    writable: List[str]
    arrays: List[Tuple[str, int]]   # (name, size); includes live pointers
    helpers: List[str]              # callable from this context


class _Emitter:
    def __init__(self, seed: int, config: GenConfig):
        self.rng = random.Random(seed)
        self.config = config
        self.tmp_counter = 0
        self.lines: List[str] = []

    def fresh(self, prefix: str) -> str:
        self.tmp_counter += 1
        return f"{prefix}{self.tmp_counter}"

    # -- expressions -------------------------------------------------------

    def expr(self, scope: _Scope, depth: Optional[int] = None) -> str:
        rng = self.rng
        if depth is None:
            depth = self.config.max_expr_depth
        if depth <= 0 or rng.random() < 0.3:
            return self._leaf(scope)
        roll = rng.random()
        if roll < 0.45:
            op = rng.choice(_ARITH_OPS)
            return f"({self.expr(scope, depth - 1)} {op} " \
                   f"{self.expr(scope, depth - 1)})"
        if roll < 0.55:
            op = rng.choice(_CMP_OPS)
            return f"({self.expr(scope, depth - 1)} {op} " \
                   f"{self.expr(scope, depth - 1)})"
        if roll < 0.63:
            op = rng.choice(("/", "%"))
            return f"({self.expr(scope, depth - 1)} {op} " \
                   f"(({self.expr(scope, depth - 1)} & 7) + 1))"
        if roll < 0.71:
            if rng.random() < 0.5:
                return f"({self.expr(scope, depth - 1)} << " \
                       f"({self._leaf(scope)} & 7))"
            return f"({self.expr(scope, depth - 1)} >> " \
                   f"({self._leaf(scope)} & 15))"
        if roll < 0.79:
            op = rng.choice(("-", "~", "!"))
            return f"({op}{self.expr(scope, depth - 1)})"
        if roll < 0.87 and scope.arrays:
            return self._array_read(scope, depth)
        if roll < 0.93 and scope.helpers:
            callee = rng.choice(scope.helpers)
            return f"{callee}({self.expr(scope, depth - 1)}, " \
                   f"{self.expr(scope, depth - 1)})"
        op = rng.choice(("&&", "||"))
        return f"({self.expr(scope, depth - 1)} {op} " \
               f"{self.expr(scope, depth - 1)})"

    def _leaf(self, scope: _Scope) -> str:
        rng = self.rng
        if scope.readable and rng.random() < 0.65:
            return rng.choice(scope.readable)
        value = rng.randint(-8, 16)
        return f"({value})" if value < 0 else str(value)

    def _array_read(self, scope: _Scope, depth: int) -> str:
        name, size = self.rng.choice(scope.arrays)
        return f"{name}[({self.expr(scope, depth - 1)}) & {size - 1}]"

    def _array_index(self, scope: _Scope) -> Tuple[str, str]:
        name, size = self.rng.choice(scope.arrays)
        return name, f"({self.expr(scope, 1)}) & {size - 1}"

    # -- statements --------------------------------------------------------

    def body(self, out: List[str], indent: str, scope: _Scope,
             n_stmts: int, block_depth: int) -> None:
        """Emit ``n_stmts`` statements into ``out``; declarations extend
        ``scope`` for the remainder of this block only."""
        scope = _Scope(list(scope.readable), list(scope.writable),
                       list(scope.arrays), list(scope.helpers))
        for _ in range(n_stmts):
            self._statement(out, indent, scope, block_depth)

    def _statement(self, out: List[str], indent: str, scope: _Scope,
                   block_depth: int) -> None:
        rng = self.rng
        roll = rng.random()
        if roll < 0.22:
            name = self.fresh("t")
            out.append(f"{indent}int {name} = {self.expr(scope)};")
            scope.readable.append(name)
            scope.writable.append(name)
        elif roll < 0.42 and scope.writable:
            target = rng.choice(scope.writable)
            out.append(f"{indent}{target} = {self.expr(scope)};")
        elif roll < 0.56 and scope.arrays:
            name, index = self._array_index(scope)
            out.append(f"{indent}{name}[{index}] = {self.expr(scope)};")
        elif roll < 0.70 and block_depth < self.config.max_block_depth:
            self._if_stmt(out, indent, scope, block_depth)
        elif roll < 0.84 and block_depth < self.config.max_block_depth:
            self._loop_stmt(out, indent, scope, block_depth)
        elif roll < 0.84 + self.config.output_prob * 0.5:
            out.append(f"{indent}output({self.expr(scope, 2)});")
        elif scope.helpers:
            name = self.fresh("t")
            callee = rng.choice(scope.helpers)
            out.append(f"{indent}int {name} = {callee}("
                       f"{self.expr(scope, 2)}, {self.expr(scope, 2)});")
            scope.readable.append(name)
            scope.writable.append(name)
        elif scope.writable:
            target = rng.choice(scope.writable)
            out.append(f"{indent}{target} = {self.expr(scope)};")
        else:
            out.append(f"{indent}output({self.expr(scope, 2)});")

    def _if_stmt(self, out: List[str], indent: str, scope: _Scope,
                 block_depth: int) -> None:
        out.append(f"{indent}if ({self.expr(scope, 2)}) {{")
        self.body(out, indent + "    ", scope,
                  self.rng.randint(1, 3), block_depth + 1)
        if self.rng.random() < 0.5:
            out.append(f"{indent}}} else {{")
            self.body(out, indent + "    ", scope,
                      self.rng.randint(1, 2), block_depth + 1)
        out.append(f"{indent}}}")

    def _loop_stmt(self, out: List[str], indent: str, scope: _Scope,
                   block_depth: int) -> None:
        bound = self.rng.randint(1, 4)
        var = self.fresh("i")
        inner = _Scope(scope.readable + [var], list(scope.writable),
                       list(scope.arrays), list(scope.helpers))
        if self.rng.random() < 0.6:
            out.append(f"{indent}for (int {var} = 0; {var} < {bound}; "
                       f"{var} = {var} + 1) {{")
            self.body(out, indent + "    ", inner,
                      self.rng.randint(1, 3), block_depth + 1)
            out.append(f"{indent}}}")
        else:
            out.append(f"{indent}int {var} = {bound};")
            out.append(f"{indent}while ({var} > 0) {{")
            self.body(out, indent + "    ", inner,
                      self.rng.randint(1, 2), block_depth + 1)
            out.append(f"{indent}    {var} = {var} - 1;")
            out.append(f"{indent}}}")
            scope.readable.append(var)
            scope.writable.append(var)


# ---------------------------------------------------------------------------
# Program assembly
# ---------------------------------------------------------------------------

def _build_skeleton(seed: int, config: GenConfig):
    """Emit the trap-free skeleton; returns everything arming needs."""
    em = _Emitter(seed, config)
    rng = em.rng

    n_scalars = rng.randint(2, 5)
    scalars = [f"g{i}" for i in range(n_scalars)]
    n_arrays = rng.randint(1, 3)
    arrays = [(f"a{i}", rng.choice(_ARRAY_SIZES)) for i in range(n_arrays)]
    uses_threads = rng.random() < config.threads_prob
    n_workers = rng.randint(1, config.max_workers) if uses_threads else 0
    n_helpers = rng.randint(0, config.max_helpers)
    n_inputs = rng.randint(1, 3)
    inputs = [rng.randint(-4, 12) for _ in range(n_inputs)]
    sched_seed = rng.randrange(1000)

    lines: List[str] = []
    for name in scalars:
        if rng.random() < 0.5:
            lines.append(f"global int {name} = {rng.randint(-3, 9)};")
        else:
            lines.append(f"global int {name};")
    for name, size in arrays:
        lines.append(f"global int {name}[{size}];")
    lines.append("global int trip[4];")
    for j in range(n_workers):
        lines.append(f"global int wg{j};")
        lines.append(f"global int wl{j};")
    lines.append("")

    # Helpers: pure-ish computation over params and shared globals.
    helper_names: List[str] = []
    for i in range(n_helpers):
        name = f"h{i}"
        scope = _Scope(readable=["a", "b"] + scalars,
                       writable=["a", "b"] + scalars,
                       arrays=list(arrays), helpers=list(helper_names))
        lines.append(f"func {name}(int a, int b) {{")
        em.body(lines, "    ", scope,
                rng.randint(1, config.max_helper_stmts), block_depth=1)
        lines.append(f"    return {em.expr(scope, 2)};")
        lines.append("}")
        lines.append("")
        helper_names.append(name)

    # Workers: each owns wg{j} exclusively and is joined before the
    # probe, so the final value is schedule-independent.
    for j in range(n_workers):
        locked = rng.random() < config.lock_prob
        scope = _Scope(readable=["n", "i", f"wg{j}"], writable=[f"wg{j}"],
                       arrays=[], helpers=[])
        lines.append(f"func w{j}(int n) {{")
        lines.append("    int i = 0;")
        lines.append("    while (i < ((n & 3) + 1)) {")
        if locked:
            lines.append(f"        lock(&wl{j});")
        lines.append(f"        wg{j} = wg{j} + {em.expr(scope, 2)};")
        if locked:
            lines.append(f"        unlock(&wl{j});")
        lines.append("        i = i + 1;")
        lines.append("    }")
        lines.append("    return 0;")
        lines.append("}")
        lines.append("")

    # Main.
    input_vars = [f"v{k}" for k in range(n_inputs)]
    main: List[str] = []
    for var in input_vars:
        main.append(f"    int {var} = input();")
    for j in range(n_workers):
        arg = rng.choice(input_vars + [str(rng.randint(0, 7))])
        main.append(f"    int th{j} = spawn w{j}({arg});")

    ptrs: List[Tuple[str, int]] = []
    if rng.random() < config.heap_prob:
        for k in range(rng.randint(1, 2)):
            ptrs.append((f"hp{k}", 4))
            main.append(f"    int hp{k} = malloc(4);")

    scope = _Scope(readable=input_vars + scalars,
                   writable=list(scalars),
                   arrays=arrays + ptrs,
                   helpers=helper_names)
    em.body(main, "    ", scope,
            rng.randint(config.min_main_stmts, config.max_main_stmts),
            block_depth=0)

    for j in range(n_workers):
        main.append(f"    join(th{j});")
    freed = [name for name, _ in ptrs if rng.random() < 0.5]
    for name in freed:
        main.append(f"    free({name});")

    # The probe mixes a random subset of final state (a subset, not
    # everything: statements off the probe's dataflow stay removable by
    # the shrinker).
    sources = list(scalars) + [f"wg{j}" for j in range(n_workers)]
    sources += [f"{name}[{rng.randrange(size)}]" for name, size in arrays]
    sources += [f"{name}[{rng.randrange(size)}]"
                for name, size in ptrs if name not in freed]
    rng.shuffle(sources)
    picked = sources[:rng.randint(2, min(4, len(sources)))]
    mix = picked[0]
    for term in picked[1:]:
        mix = f"({mix} {rng.choice(('+', '^', '-'))} {term})"
    main.append(f"    int probe = {mix};")

    arm_kind = rng.choice(_ARM_KINDS)
    preamble = lines + ["func main() {"] + main
    return (preamble, inputs, arm_kind, uses_threads, sched_seed)


def _armed_tail(arm_kind: str, probe_value: int) -> Tuple[List[str], List[str]]:
    """(extra functions, main tail) for one arming kind."""
    P = probe_value
    if arm_kind == "assert":
        gate = [
            "func fail_gate(int p) {",
            f"    int delta = p - {P};",
            "    if (delta > 0) {",
            "        return delta;",
            "    }",
            "    assert(delta != 0, \"fuzz: armed assert\");",
            "    return 0;",
            "}",
            "",
        ]
        tail = ["    int fz = fail_gate(probe);",
                "    output(fz);",
                "    return 0;",
                "}"]
        return gate, tail
    if arm_kind == "oob":
        tail = [f"    trip[(probe - {P}) + {_OOB_SKEW}] = 1;",
                "    output(probe);",
                "    return 0;",
                "}"]
        return [], tail
    if arm_kind == "div":
        tail = [f"    int boom = (1 / (probe - {P}));",
                "    output(boom);",
                "    return 0;",
                "}"]
        return [], tail
    if arm_kind == "abort":
        tail = [f"    if (probe == {P}) {{",
                "        abort(\"fuzz: armed abort\");",
                "    }",
                "    output(probe);",
                "    return 0;",
                "}"]
        return [], tail
    raise GeneratorError(f"unknown arm kind {arm_kind!r}")


def generate_program(seed: int,
                     config: Optional[GenConfig] = None) -> GeneratedProgram:
    """Generate, calibrate, and arm one program for ``seed``."""
    config = config or GenConfig()
    preamble, inputs, arm_kind, uses_threads, sched_seed = \
        _build_skeleton(seed, config)

    name = f"fuzz_{seed}"
    skeleton = "\n".join(preamble
                         + ["    output(probe);", "    halt(0);", "}"]) + "\n"
    try:
        module = compile_source(skeleton, name=name)
    except ReproError as exc:
        raise GeneratorError(
            f"seed {seed}: skeleton does not compile: {exc}") from exc

    vm = VM(module, inputs=inputs,
            scheduler=RandomPreemptScheduler(seed=sched_seed,
                                             preempt_prob=config.preempt_prob),
            lbr_depth=16)
    result = vm.run(max_steps=config.calibration_budget)
    if result.status is not RunStatus.EXITED or not result.outputs:
        raise GeneratorError(
            f"seed {seed}: calibration run ended {result.status.value} "
            f"instead of exiting through the probe")
    probe_value = result.outputs[-1]

    gate_fns, tail = _armed_tail(arm_kind, probe_value)
    armed = "\n".join(gate_fns + preamble + tail) + "\n"
    try:
        armed_module = compile_source(armed, name=name)
    except ReproError as exc:
        raise GeneratorError(
            f"seed {seed}: armed variant does not compile: {exc}") from exc

    return GeneratedProgram(
        seed=seed,
        name=name,
        source=armed,
        skeleton=skeleton,
        inputs=list(inputs),
        expected_trap=_ARM_TRAPS[arm_kind],
        arm_kind=arm_kind,
        probe_value=probe_value,
        uses_threads=uses_threads,
        sched_seed=sched_seed,
        gate_function="fail_gate" if arm_kind == "assert" else None,
        gen_config=asdict(config),
        _module=armed_module,
    )
