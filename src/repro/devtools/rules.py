"""The repro rule catalog: every invariant the linter machine-checks.

Each rule encodes one way the reproduction's bit-identity contract has
broken (or nearly broken) in a past PR, and names the module scope where
the invariant lives.  The catalog, with the story behind each rule, is
documented in ``docs/static-analysis.md``.

Rules are deliberately syntactic: they flag *definite* hazards (a draw
from the process-global RNG, a set iterated straight into an emission
path, a swallowed exception in a ledger module) and stay silent on
anything they cannot prove, so a finding is always worth reading.
Escape hatch: ``# repro: ignore[rule-name]`` on the flagged line, with a
comment saying why.
"""

from __future__ import annotations

import ast
import re as _re
import struct as _struct
from typing import Dict, Iterator, List, Optional, Sequence, Set, Tuple

from .lint import Finding, Rule, SourceModule

#: Modules whose job is measurement or demonstration, not reconstruction:
#: wall-clock reads and ad-hoc RNG draws are legitimate there.
MEASUREMENT_SCOPES = ("repro.experiments", "benchmarks", "examples", "tests")

#: Modules whose emission order must be deterministic (ROADMAP "Net
#: effect": every execution mode jframe-for-jframe identical).
ORDERED_EMISSION_SCOPES = (
    "repro.core.unify",
    "repro.core.sync",
    "repro.core.passes",
)

#: Modules where a swallowed exception silently degrades a reconstruction
#: instead of being itemized on ``report.health``.
ERROR_POLICY_SCOPES = ("repro.jtrace.io", "repro.core.faults", "repro.core.sync")

#: The contract surfaces held to strict typing (mirrored in mypy.ini).
STRICT_TYPED_MODULES = frozenset(
    {
        "repro.core.passes",
        "repro.core.faults",
        "repro.jtrace.records",
        "repro.core.unify.jframe",
        "repro.core.sync.sharded",
    }
)


def in_scope(mod: SourceModule, prefixes: Sequence[str]) -> bool:
    return any(
        mod.module == p or mod.module.startswith(p + ".") for p in prefixes
    )


def _iter_scopes(
    tree: ast.Module,
) -> Iterator[Tuple[ast.AST, List[ast.stmt]]]:
    """Yield (scope node, its top-level statements) for the module and
    every function, however deeply nested.

    Walk a scope's statements with :func:`_walk_scope` — nested function
    bodies are excluded there and show up as their own scope here, so
    per-scope rules (set-valued locals, one-stream-per-component) reason
    about exactly one body at a time.
    """
    pending: List[Tuple[ast.AST, List[ast.stmt]]] = [(tree, list(tree.body))]
    while pending:
        scope, body = pending.pop()
        stack: List[ast.AST] = list(body)
        while stack:
            node = stack.pop()
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                pending.append((node, list(node.body)))
                continue
            stack.extend(ast.iter_child_nodes(node))
        yield scope, body


def _walk_scope(statements: Sequence[ast.stmt]) -> Iterator[ast.AST]:
    """Walk every node of a scope's statements, skipping nested functions."""
    queue: List[ast.AST] = list(statements)
    while queue:
        node = queue.pop(0)
        yield node
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue  # a nested function is its own scope
        queue.extend(ast.iter_child_nodes(node))


# --- determinism ------------------------------------------------------------


class WallClockRule(Rule):
    """No wall-clock reads in reconstruction code.

    A jframe timeline derived from ``time.time()`` or ``datetime.now()``
    differs run to run, which breaks the parity/golden suites' central
    claim.  ``time.perf_counter``/``monotonic`` stay legal: they measure
    elapsed durations (telemetry), never timeline positions.
    """

    name = "wall-clock"
    summary = (
        "no time.time()/datetime.now() outside experiments/ and benchmarks/"
    )

    BANNED = frozenset(
        {
            "time.time",
            "time.time_ns",
            "time.localtime",
            "time.gmtime",
            "time.ctime",
            "time.asctime",
            "time.strftime",
            "datetime.datetime.now",
            "datetime.datetime.today",
            "datetime.datetime.utcnow",
            "datetime.date.today",
        }
    )

    def check(self, mod: SourceModule) -> Iterator[Finding]:
        if in_scope(mod, MEASUREMENT_SCOPES):
            return
        for node in ast.walk(mod.tree):
            if not isinstance(node, ast.Call):
                continue
            target = mod.resolve(node.func)
            if target in self.BANNED:
                yield self.finding(
                    mod,
                    node,
                    f"wall-clock read {target}() in reconstruction code; "
                    f"output must be a pure function of the input traces "
                    f"(use time.perf_counter for elapsed telemetry)",
                )


class GlobalRngRule(Rule):
    """No draws from the process-global RNG streams.

    A ``random.random()`` or legacy ``np.random.*`` draw depends on
    every draw made before it anywhere in the process — reordering two
    unrelated subsystems then changes simulated traces.  All randomness
    flows from explicitly seeded ``np.random.default_rng``/
    ``SeedSequence`` generators (spawn-keyed per component since PR 4).
    """

    name = "global-rng"
    summary = (
        "no global random.*/np.random.seed/legacy np.random draws outside "
        "experiments/ and benchmarks/"
    )

    _NUMPY_LEGACY = frozenset(
        {
            "seed",
            "random",
            "ranf",
            "sample",
            "random_sample",
            "rand",
            "randn",
            "randint",
            "random_integers",
            "choice",
            "shuffle",
            "permutation",
            "uniform",
            "normal",
            "standard_normal",
            "poisson",
            "exponential",
            "binomial",
            "beta",
            "gamma",
            "lognormal",
            "get_state",
            "set_state",
        }
    )
    _STDLIB_ALLOWED = frozenset({"random.Random", "random.SystemRandom"})

    def check(self, mod: SourceModule) -> Iterator[Finding]:
        if in_scope(mod, MEASUREMENT_SCOPES):
            return
        for node in ast.walk(mod.tree):
            if not isinstance(node, ast.Call):
                continue
            target = mod.resolve(node.func)
            if target is None:
                continue
            if (
                target.startswith("random.")
                and target.count(".") == 1
                and target not in self._STDLIB_ALLOWED
            ):
                yield self.finding(
                    mod,
                    node,
                    f"draw from the process-global stdlib RNG ({target}); "
                    f"use an explicitly seeded np.random.default_rng stream",
                )
            elif (
                target.startswith("numpy.random.")
                and target.rsplit(".", 1)[1] in self._NUMPY_LEGACY
            ):
                yield self.finding(
                    mod,
                    node,
                    f"legacy global numpy RNG call {target}(); seed state is "
                    f"process-wide — use np.random.default_rng/SeedSequence",
                )


class UnorderedIterRule(Rule):
    """No iterating a set into an ordered emission path.

    ``set``/``frozenset`` iteration order depends on hash seeding and
    insertion history; inside ``core/unify``, ``core/sync`` and
    ``core/passes`` every loop feeds (directly or transitively) an
    emission whose order the parity suites pin bit-for-bit.  Wrap the
    iterable in ``sorted(...)`` with an explicit key.
    """

    name = "unordered-iter"
    summary = (
        "no sorted()-less set iteration in core/unify, core/sync, core/passes"
    )

    @staticmethod
    def _is_set_expr(node: ast.AST, mod: SourceModule) -> bool:
        if isinstance(node, (ast.Set, ast.SetComp)):
            return True
        if isinstance(node, ast.Call):
            target = mod.resolve(node.func)
            return target in ("set", "frozenset")
        return False

    def check(self, mod: SourceModule) -> Iterator[Finding]:
        if not in_scope(mod, ORDERED_EMISSION_SCOPES):
            return
        for _scope, statements in _iter_scopes(mod.tree):
            set_named: Set[str] = set()
            for node in _walk_scope(statements):
                value = getattr(node, "value", None)
                if isinstance(node, (ast.Assign, ast.AnnAssign)) and value is not None:
                    targets = (
                        node.targets
                        if isinstance(node, ast.Assign)
                        else [node.target]
                    )
                    if self._is_set_expr(value, mod):
                        for target in targets:
                            if isinstance(target, ast.Name):
                                set_named.add(target.id)
                    else:
                        # Rebinding to a non-set value clears the taint.
                        for target in targets:
                            if isinstance(target, ast.Name):
                                set_named.discard(target.id)
            for node in _walk_scope(statements):
                iters: List[ast.expr] = []
                if isinstance(node, (ast.For, ast.AsyncFor)):
                    iters.append(node.iter)
                elif isinstance(
                    node, (ast.ListComp, ast.SetComp, ast.GeneratorExp, ast.DictComp)
                ):
                    iters.extend(gen.iter for gen in node.generators)
                for candidate in iters:
                    if self._is_set_expr(candidate, mod) or (
                        isinstance(candidate, ast.Name)
                        and candidate.id in set_named
                    ):
                        yield self.finding(
                            mod,
                            candidate,
                            "iteration over a set in an ordered-emission "
                            "module; set order is hash/insertion dependent — "
                            "wrap it in sorted(...) with an explicit key",
                        )


# --- RNG stream discipline --------------------------------------------------


class StreamDisciplineRule(Rule):
    """Scenario components draw only from their own spawn-keyed stream.

    PR 4's composition guarantee — adding a component never perturbs a
    sibling's randomness — holds only while each component draws from
    the ``ScenarioStreams`` stream keyed to it.  The rule requires
    stream names to be literals from the declared ``_STREAM_KEYS`` set
    and at most one stream name per function scope (a component
    implementation has exactly one stream; orchestrators that own
    several split per-stream work into helpers, or suppress with a
    justification).
    """

    name = "stream-discipline"
    summary = (
        "ScenarioStreams draws use a literal, declared key; one stream "
        "per component function"
    )

    _FALLBACK_KEYS = frozenset(
        {
            "geometry",
            "fleet",
            "behavior",
            "workload",
            "impairments",
            "clocks",
            "roam",
            "arrival",
            "faults",
        }
    )

    def __init__(self) -> None:
        self._declared: Optional[Set[str]] = None

    def collect(self, mod: SourceModule) -> None:
        if not mod.module.endswith("sim.scenario"):
            return
        for node in ast.walk(mod.tree):
            if (
                isinstance(node, ast.Assign)
                and len(node.targets) == 1
                and isinstance(node.targets[0], ast.Name)
                and node.targets[0].id == "_STREAM_KEYS"
                and isinstance(node.value, ast.Dict)
            ):
                keys = {
                    key.value
                    for key in node.value.keys
                    if isinstance(key, ast.Constant)
                    and isinstance(key.value, str)
                }
                if keys:
                    self._declared = keys

    @property
    def declared(self) -> Set[str]:
        return set(self._declared or self._FALLBACK_KEYS)

    @staticmethod
    def _is_stream_call(node: ast.Call) -> bool:
        func = node.func
        if not isinstance(func, ast.Attribute):
            return False
        if func.attr not in ("component", "entity"):
            return False
        base = func.value
        if isinstance(base, ast.Name) and "stream" in base.id.lower():
            return True
        if isinstance(base, ast.Attribute) and "stream" in base.attr.lower():
            return True
        if isinstance(base, ast.Call):
            inner = base.func
            if isinstance(inner, ast.Attribute) and inner.attr == "streams":
                return True
            if isinstance(inner, ast.Name) and inner.id == "streams":
                return True
        return False

    def check(self, mod: SourceModule) -> Iterator[Finding]:
        if not in_scope(mod, ("repro.sim",)) or mod.module.endswith(
            "sim.scenario"
        ):
            return
        declared = self.declared
        for _scope, statements in _iter_scopes(mod.tree):
            first_name: Optional[str] = None
            for node in _walk_scope(statements):
                if not (isinstance(node, ast.Call) and self._is_stream_call(node)):
                    continue
                if not node.args or not (
                    isinstance(node.args[0], ast.Constant)
                    and isinstance(node.args[0].value, str)
                ):
                    yield self.finding(
                        mod,
                        node,
                        "stream name must be a string literal so the draw "
                        "is auditable against the spawn-key registry",
                    )
                    continue
                stream = node.args[0].value
                if stream not in declared:
                    yield self.finding(
                        mod,
                        node,
                        f"unknown scenario stream {stream!r}; declared keys: "
                        f"{', '.join(sorted(declared))} "
                        f"(add a _STREAM_KEYS entry, never reuse one)",
                    )
                    continue
                if first_name is None:
                    first_name = stream
                elif stream != first_name:
                    yield self.finding(
                        mod,
                        node,
                        f"function draws from stream {stream!r} after "
                        f"drawing from {first_name!r}; a component uses "
                        f"exactly one spawn-keyed stream — split the work "
                        f"or route the sibling stream through its owner",
                    )


# --- error-policy hygiene ---------------------------------------------------


class ErrorPolicyRule(Rule):
    """Failures are itemized, never silently swallowed.

    PR 6's contract: the pipeline *degrades* on damage and reports every
    degradation on ``report.health``.  A bare ``except:`` (anywhere) or
    an except-and-``pass`` in the ingest/sync/recovery modules hides
    exactly the events that ledger exists to count.
    """

    name = "error-policy"
    summary = (
        "no bare except; no except-and-pass in jtrace/io, core/faults, "
        "core/sync"
    )

    @staticmethod
    def _swallows(handler: ast.ExceptHandler) -> bool:
        return all(
            isinstance(stmt, ast.Pass)
            or (
                isinstance(stmt, ast.Expr)
                and isinstance(stmt.value, ast.Constant)
            )
            for stmt in handler.body
        )

    def check(self, mod: SourceModule) -> Iterator[Finding]:
        critical = in_scope(mod, ERROR_POLICY_SCOPES)
        for node in ast.walk(mod.tree):
            if not isinstance(node, ast.ExceptHandler):
                continue
            if node.type is None:
                yield self.finding(
                    mod,
                    node,
                    "bare except: catches SystemExit/KeyboardInterrupt too; "
                    "name the exceptions this path expects",
                )
            elif critical and self._swallows(node):
                yield self.finding(
                    mod,
                    node,
                    "exception swallowed with no counter or log in a "
                    "health-ledger module; count it on the relevant "
                    "DecodeHealth/SyncHealth (or at least log)",
                )


# --- struct-format consistency ----------------------------------------------


class StructConsistencyRule(Rule):
    """Declared record formats and their uses cannot drift apart.

    ``jtrace/records.py`` declares the on-disk header as one
    ``struct.Struct``; ``io.py`` frames, probes and resynchronizes off
    its width and field positions.  The rule validates every literal
    format string, and cross-checks each known ``Struct``'s ``pack``
    arity, ``unpack``/``unpack_from`` target counts, constant subscript
    indices and ``iter_unpack`` loop-target arity against the declared
    field count — the drift a one-field format change would otherwise
    only reveal as a corrupt trace.

    The batch decoder mirrors the header as a numpy structured dtype.
    A ``NAME_DTYPE`` declaration built from literal ``(field, format)``
    pairs is paired with the ``NAME`` Struct and must agree on both
    field count and total byte width — the two declarations describe
    the same bytes, and a field added to one but not the other shears
    every batched field off its offset.
    """

    name = "struct-consistency"
    summary = (
        "struct formats parse; pack/unpack/iter_unpack arity and paired "
        "structured dtypes match the declared field count (jtrace)"
    )

    _FUNCS = frozenset(
        {
            "struct.Struct",
            "struct.pack",
            "struct.unpack",
            "struct.pack_into",
            "struct.unpack_from",
            "struct.calcsize",
            "struct.iter_unpack",
        }
    )

    #: ``NAME_DTYPE`` pairs with the ``NAME`` Struct declaration.
    _DTYPE_SUFFIX = "_DTYPE"

    #: numpy scalar codes are ``[byteorder]kind width-in-bytes`` for the
    #: fixed-width integer/float kinds the on-disk header uses.
    _DTYPE_FORMAT = _re.compile(r"[<>=|]?[iuf](\d+)")

    def __init__(self) -> None:
        #: simple name -> (format, field count), collected everywhere.
        self.declared: Dict[str, Tuple[str, int]] = {}

    @staticmethod
    def _field_count(fmt: str) -> int:
        return len(_struct.unpack(fmt, b"\x00" * _struct.calcsize(fmt)))

    def collect(self, mod: SourceModule) -> None:
        for node in ast.walk(mod.tree):
            if not (
                isinstance(node, ast.Assign)
                and len(node.targets) == 1
                and isinstance(node.targets[0], ast.Name)
                and isinstance(node.value, ast.Call)
            ):
                continue
            if mod.resolve(node.value.func) != "struct.Struct":
                continue
            args = node.value.args
            if not (
                len(args) == 1
                and isinstance(args[0], ast.Constant)
                and isinstance(args[0].value, str)
            ):
                continue
            fmt = args[0].value
            try:
                count = self._field_count(fmt)
            except _struct.error:
                continue  # flagged as invalid at check time
            self.declared[node.targets[0].id] = (fmt, count)

    def check(self, mod: SourceModule) -> Iterator[Finding]:
        if not in_scope(mod, ("repro.jtrace",)):
            return
        for node in ast.walk(mod.tree):
            if isinstance(node, ast.Call):
                yield from self._check_format_literal(mod, node)
                yield from self._check_pack_arity(mod, node)
            elif isinstance(node, ast.Assign):
                yield from self._check_unpack_targets(mod, node)
                yield from self._check_dtype_pairing(mod, node)
            elif isinstance(node, ast.Subscript):
                yield from self._check_subscript(mod, node)
            elif isinstance(node, ast.For):
                yield from self._check_iter_unpack_target(mod, node)

    def _dtype_fields(
        self, node: ast.Assign
    ) -> Optional[List[Tuple[str, str]]]:
        """Literal ``(name, format)`` pairs of a structured-dtype call.

        Matches ``NAME_DTYPE = <anything>.dtype([("field", "<u2"), ...])``
        regardless of how numpy was imported.  Returns None when the
        assignment is not that shape.
        """
        value = node.value
        if not (
            len(node.targets) == 1
            and isinstance(node.targets[0], ast.Name)
            and node.targets[0].id.endswith(self._DTYPE_SUFFIX)
            and isinstance(value, ast.Call)
            and isinstance(value.func, ast.Attribute)
            and value.func.attr == "dtype"
            and len(value.args) == 1
            and isinstance(value.args[0], (ast.List, ast.Tuple))
        ):
            return None
        fields: List[Tuple[str, str]] = []
        for elt in value.args[0].elts:
            if not (
                isinstance(elt, ast.Tuple)
                and len(elt.elts) == 2
                and all(
                    isinstance(e, ast.Constant) and isinstance(e.value, str)
                    for e in elt.elts
                )
            ):
                return None  # computed entry: nothing checkable statically
            fields.append((elt.elts[0].value, elt.elts[1].value))  # type: ignore[union-attr]
        return fields

    def _check_dtype_pairing(
        self, mod: SourceModule, node: ast.Assign
    ) -> Iterator[Finding]:
        fields = self._dtype_fields(node)
        if fields is None:
            return
        dtype_name = node.targets[0].id  # type: ignore[union-attr]
        base = dtype_name[: -len(self._DTYPE_SUFFIX)]
        if base not in self.declared:
            return
        fmt, count = self.declared[base]
        if len(fields) != count:
            yield self.finding(
                mod,
                node,
                f"{dtype_name} declares {len(fields)} field(s) but its "
                f"paired Struct {base} format {fmt!r} declares {count}; "
                "the scalar and batched decoders would frame different "
                "records",
            )
        widths = [
            self._DTYPE_FORMAT.fullmatch(field_fmt) for _, field_fmt in fields
        ]
        if all(widths):
            itemsize = sum(int(m.group(1)) for m in widths)  # type: ignore[union-attr]
            try:
                size = _struct.calcsize(fmt)
            except _struct.error:
                return
            if itemsize != size:
                yield self.finding(
                    mod,
                    node,
                    f"{dtype_name} spans {itemsize} byte(s) but its paired "
                    f"Struct {base} format {fmt!r} spans {size}; batched "
                    "header views would shear off the scalar layout",
                )

    def _check_iter_unpack_target(
        self, mod: SourceModule, node: ast.For
    ) -> Iterator[Finding]:
        call = node.iter
        if not (
            isinstance(call, ast.Call)
            and isinstance(call.func, ast.Attribute)
            and call.func.attr == "iter_unpack"
        ):
            return
        named = self._named_struct(call.func)
        if named is None:
            return
        name, fmt, count = named
        target = node.target
        if isinstance(target, (ast.Tuple, ast.List)) and not any(
            isinstance(e, ast.Starred) for e in target.elts
        ):
            if len(target.elts) != count:
                yield self.finding(
                    mod,
                    node,
                    f"{name}.iter_unpack() loop unpacks {len(target.elts)} "
                    f"name(s) per row but format {fmt!r} declares {count} "
                    "field(s)",
                )

    def _check_format_literal(
        self, mod: SourceModule, node: ast.Call
    ) -> Iterator[Finding]:
        if mod.resolve(node.func) not in self._FUNCS:
            return
        if not (
            node.args
            and isinstance(node.args[0], ast.Constant)
            and isinstance(node.args[0].value, str)
        ):
            return
        fmt = node.args[0].value
        try:
            _struct.calcsize(fmt)
        except _struct.error as exc:
            yield self.finding(
                mod, node, f"invalid struct format {fmt!r}: {exc}"
            )

    def _named_struct(self, node: ast.expr) -> Optional[Tuple[str, str, int]]:
        if isinstance(node, ast.Attribute) and isinstance(
            node.value, ast.Name
        ):
            name = node.value.id
            if name in self.declared:
                fmt, count = self.declared[name]
                return name, fmt, count
        return None

    def _check_pack_arity(
        self, mod: SourceModule, node: ast.Call
    ) -> Iterator[Finding]:
        if not isinstance(node.func, ast.Attribute) or node.func.attr != "pack":
            return
        named = self._named_struct(node.func)
        if named is None:
            return
        name, fmt, count = named
        if any(isinstance(arg, ast.Starred) for arg in node.args):
            return
        if len(node.args) != count:
            yield self.finding(
                mod,
                node,
                f"{name}.pack() called with {len(node.args)} value(s) but "
                f"format {fmt!r} declares {count} field(s)",
            )

    def _check_unpack_targets(
        self, mod: SourceModule, node: ast.Assign
    ) -> Iterator[Finding]:
        value = node.value
        if not (
            isinstance(value, ast.Call)
            and isinstance(value.func, ast.Attribute)
            and value.func.attr in ("unpack", "unpack_from")
        ):
            return
        named = self._named_struct(value.func)
        if named is None:
            return
        name, fmt, count = named
        for target in node.targets:
            if isinstance(target, (ast.Tuple, ast.List)):
                if len(target.elts) != count:
                    yield self.finding(
                        mod,
                        node,
                        f"{name}.{value.func.attr}() unpacked into "
                        f"{len(target.elts)} name(s) but format {fmt!r} "
                        f"declares {count} field(s)",
                    )

    def _check_subscript(
        self, mod: SourceModule, node: ast.Subscript
    ) -> Iterator[Finding]:
        value = node.value
        if not (
            isinstance(value, ast.Call)
            and isinstance(value.func, ast.Attribute)
            and value.func.attr in ("unpack", "unpack_from")
        ):
            return
        named = self._named_struct(value.func)
        if named is None:
            return
        name, fmt, count = named
        index = node.slice
        if isinstance(index, ast.Constant) and isinstance(index.value, int):
            if not -count <= index.value < count:
                yield self.finding(
                    mod,
                    node,
                    f"{name}.{value.func.attr}()[{index.value}] is out of "
                    f"range for format {fmt!r} with {count} field(s)",
                )


# --- PipelinePass conformance -----------------------------------------------


class PassConformanceRule(Rule):
    """Pass subclasses implement the exact hook surface.

    The pipeline calls ``on_jframe/on_attempt/on_exchange/on_flow``
    with one payload and ``finish`` with one context.  A typo'd hook
    (``on_jframes``) or an extra required parameter doesn't error — the
    pass just silently never runs, which on a streaming analysis looks
    like an empty result, not a bug.
    """

    name = "pass-conformance"
    summary = (
        "PipelinePass subclasses define only the real hooks, with the "
        "exact (self, payload) signatures"
    )

    HOOKS = ("on_jframe", "on_attempt", "on_exchange", "on_flow", "finish")

    def __init__(self) -> None:
        #: class name -> its base names, across every collected module.
        self._bases: Dict[str, List[str]] = {}
        #: (module, ClassDef) pairs to re-examine once the closure is known.
        self._classes: List[Tuple[SourceModule, ast.ClassDef]] = []
        self._closure: Optional[Set[str]] = None

    def collect(self, mod: SourceModule) -> None:
        for node in ast.walk(mod.tree):
            if not isinstance(node, ast.ClassDef):
                continue
            bases = []
            for base in node.bases:
                if isinstance(base, ast.Name):
                    bases.append(base.id)
                elif isinstance(base, ast.Attribute):
                    bases.append(base.attr)
            self._bases[node.name] = bases
            self._classes.append((mod, node))

    def _pass_classes(self) -> Set[str]:
        if self._closure is None:
            closure = {"PipelinePass"}
            changed = True
            while changed:
                changed = False
                for name, bases in self._bases.items():
                    if name not in closure and any(b in closure for b in bases):
                        closure.add(name)
                        changed = True
            self._closure = closure
        return self._closure

    def check(self, mod: SourceModule) -> Iterator[Finding]:
        closure = self._pass_classes()
        for class_mod, node in self._classes:
            if class_mod.path != mod.path:
                continue
            if node.name == "PipelinePass" or node.name not in closure:
                continue
            for item in node.body:
                if not isinstance(
                    item, (ast.FunctionDef, ast.AsyncFunctionDef)
                ):
                    continue
                if item.name in self.HOOKS:
                    yield from self._check_signature(mod, node, item)
                elif item.name.startswith("on_"):
                    yield self.finding(
                        mod,
                        item,
                        f"{node.name}.{item.name} looks like a pipeline "
                        f"hook but is not one of "
                        f"{'/'.join(self.HOOKS)}; the pipeline will never "
                        f"call it",
                    )

    def _check_signature(
        self,
        mod: SourceModule,
        cls: ast.ClassDef,
        fn: ast.FunctionDef,
    ) -> Iterator[Finding]:
        args = fn.args
        positional = list(args.posonlyargs) + list(args.args)
        is_static = any(
            isinstance(d, ast.Name) and d.id == "staticmethod"
            for d in fn.decorator_list
        )
        expected = 1 if is_static else 2
        problems: List[str] = []
        if len(positional) != expected:
            problems.append(
                f"takes {len(positional)} positional parameter(s), "
                f"expected {expected} (self + payload)"
            )
        if args.vararg is not None or args.kwarg is not None:
            problems.append("must not use *args/**kwargs")
        if args.kwonlyargs:
            problems.append("must not declare keyword-only parameters")
        for problem in problems:
            yield self.finding(
                mod,
                fn,
                f"{cls.name}.{fn.name} {problem}; the pipeline calls hooks "
                f"with exactly one payload argument",
            )


# --- generic hygiene --------------------------------------------------------


class MutableDefaultRule(Rule):
    """No mutable default arguments.

    A shared default list/dict/set is cross-call state: the first run
    that appends to one changes every later call's starting point —
    non-determinism by stealth, in any module.
    """

    name = "mutable-default"
    summary = "no list/dict/set literals (or constructors) as parameter defaults"

    _CTORS = frozenset(
        {"list", "dict", "set", "bytearray", "defaultdict", "Counter", "deque"}
    )

    def _is_mutable(self, node: ast.expr, mod: SourceModule) -> bool:
        if isinstance(
            node, (ast.List, ast.Dict, ast.Set, ast.ListComp, ast.SetComp, ast.DictComp)
        ):
            return True
        if isinstance(node, ast.Call):
            target = mod.resolve(node.func)
            if target is not None and target.rsplit(".", 1)[-1] in self._CTORS:
                return True
        return False

    def check(self, mod: SourceModule) -> Iterator[Finding]:
        for node in ast.walk(mod.tree):
            if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
                continue
            defaults = list(node.args.defaults) + [
                d for d in node.args.kw_defaults if d is not None
            ]
            for default in defaults:
                if self._is_mutable(default, mod):
                    name = getattr(node, "name", "<lambda>")
                    yield self.finding(
                        mod,
                        default,
                        f"mutable default argument on {name}(); defaults "
                        f"are evaluated once and shared across calls — "
                        f"default to None and construct inside",
                    )


class TypedApiRule(Rule):
    """The strict-typed contract modules stay fully annotated.

    mypy runs in CI, but the annotation *requirement* is enforced here
    too so a checkout without mypy still refuses an untyped signature on
    the hot contract surfaces (mirrors the strict sections of mypy.ini).
    """

    name = "typed-api"
    summary = (
        "every def in the strict-typed modules annotates all parameters "
        "and the return"
    )

    def check(self, mod: SourceModule) -> Iterator[Finding]:
        if mod.module not in STRICT_TYPED_MODULES:
            return
        yield from self._check_body(mod, mod.tree.body, in_class=False)

    def _check_body(
        self, mod: SourceModule, body: Sequence[ast.stmt], in_class: bool
    ) -> Iterator[Finding]:
        for node in body:
            if isinstance(node, ast.ClassDef):
                yield from self._check_body(mod, node.body, in_class=True)
            elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                yield from self._check_def(mod, node, in_class)
                yield from self._check_body(mod, node.body, in_class=False)
            else:
                for child in ast.walk(node):
                    if isinstance(
                        child, (ast.FunctionDef, ast.AsyncFunctionDef)
                    ):
                        yield from self._check_def(mod, child, in_class=False)

    def _check_def(
        self,
        mod: SourceModule,
        fn: ast.FunctionDef,
        in_class: bool,
    ) -> Iterator[Finding]:
        args = fn.args
        is_static = any(
            isinstance(d, ast.Name) and d.id == "staticmethod"
            for d in fn.decorator_list
        )
        positional = list(args.posonlyargs) + list(args.args)
        skip_first = in_class and not is_static
        missing = [
            arg.arg
            for i, arg in enumerate(positional)
            if arg.annotation is None and not (skip_first and i == 0)
        ]
        missing.extend(
            arg.arg for arg in args.kwonlyargs if arg.annotation is None
        )
        for vararg in (args.vararg, args.kwarg):
            if vararg is not None and vararg.annotation is None:
                missing.append(vararg.arg)
        if missing:
            yield self.finding(
                mod,
                fn,
                f"{fn.name}() leaves parameter(s) "
                f"{', '.join(missing)} unannotated in a strict-typed module",
            )
        if fn.returns is None:
            yield self.finding(
                mod,
                fn,
                f"{fn.name}() has no return annotation in a strict-typed "
                f"module (use -> None for procedures)",
            )


# --- record construction ----------------------------------------------------


class RecordConstructorRule(Rule):
    """``TraceRecord`` is built through its validating constructor.

    The record is a tuple subclass, so ``tuple.__new__(TraceRecord, ...)``,
    ``TraceRecord._make(...)`` and ``object.__new__(TraceRecord)`` all
    skip the snap-length and PHY-error checks in ``TraceRecord.__new__``.
    That is safe in exactly one place — ``FramedRun.decode``, which runs
    behind the vectorized validators that make the same checks on the
    whole batch — so the bypass is legal only in ``repro.jtrace.records``.
    """

    name = "record-constructor"
    summary = (
        "no tuple.__new__(TraceRecord, ...) / TraceRecord._make / "
        "object.__new__(TraceRecord) outside jtrace/records.py"
    )

    HOME = "repro.jtrace.records"
    _RAW_NEW = frozenset({"tuple.__new__", "object.__new__"})

    @staticmethod
    def _is_record(mod: SourceModule, node: ast.expr) -> bool:
        target = mod.resolve(node)
        return target is not None and target.rsplit(".", 1)[-1] == "TraceRecord"

    def check(self, mod: SourceModule) -> Iterator[Finding]:
        if mod.module == self.HOME:
            return
        for node in ast.walk(mod.tree):
            if isinstance(node, ast.Attribute):
                if node.attr != "_make" or not self._is_record(mod, node.value):
                    continue
                how = "TraceRecord._make"
            elif isinstance(node, ast.Call) and node.args:
                raw_new = mod.resolve(node.func)
                if raw_new not in self._RAW_NEW or not self._is_record(
                    mod, node.args[0]
                ):
                    continue
                how = f"{raw_new}(TraceRecord, ...)"
            else:
                continue
            yield self.finding(
                mod,
                node,
                f"{how} builds a record without the constructor's checks; "
                f"call TraceRecord(...) or record._replace(...) — only "
                f"{self.HOME} may bypass them, behind its vectorized "
                f"validators",
            )


# --- process-wide state -----------------------------------------------------


class GcControlRule(Rule):
    """One place per execution mode may change the collector's state.

    ``gc.disable()`` and friends are process-wide: a library call that
    pauses collection and forgets to restore it, or freezes the caller's
    objects for good, changes every later allocation's cost in code the
    library does not own.  Two modules may do it, each in one place:
    ``repro.core.pipeline`` pauses automatic collection for a batch run
    and restores the caller's state on every exit, and
    ``repro.service.daemon`` turns it off in the forked checkpoint
    writer, which never returns into the daemon.
    """

    name = "gc-control"
    summary = (
        "no gc.disable/enable/freeze/unfreeze/set_threshold outside "
        "core/pipeline.py, service/daemon.py and measurement code"
    )

    HOMES = frozenset({"repro.core.pipeline", "repro.service.daemon"})
    BANNED = frozenset(
        {
            "gc.disable",
            "gc.enable",
            "gc.freeze",
            "gc.unfreeze",
            "gc.set_threshold",
        }
    )

    def check(self, mod: SourceModule) -> Iterator[Finding]:
        if mod.module in self.HOMES or in_scope(mod, MEASUREMENT_SCOPES):
            return
        for node in ast.walk(mod.tree):
            if not isinstance(node, ast.Call):
                continue
            target = mod.resolve(node.func)
            if target in self.BANNED:
                yield self.finding(
                    mod,
                    node,
                    f"{target}() changes the collector for the whole "
                    f"process; only the batch run's pause "
                    f"(repro.core.pipeline) and the checkpoint writer "
                    f"(repro.service.daemon) may",
                )


#: The catalog, in reporting order.
ALL_RULES = (
    WallClockRule,
    GlobalRngRule,
    UnorderedIterRule,
    StreamDisciplineRule,
    ErrorPolicyRule,
    StructConsistencyRule,
    PassConformanceRule,
    MutableDefaultRule,
    TypedApiRule,
    RecordConstructorRule,
    GcControlRule,
)
