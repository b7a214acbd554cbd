"""Span tracing of clustercones from outside the package.

`Tracer.install` replaces the public functions and methods of every
clustercones module with timing wrappers, and `Tracer.uninstall` puts
the originals back. Nothing in the package changes on disk.

A function imported by name into another module (`from .linalg import
rank`) is bound in that module's namespace too, so every namespace that
holds it gets the same wrapper. Methods are wrapped on their class, which
covers instances created before or after `install`.

Calls into most layers become spans: layer, name, parent span, op id,
start, end, the time covered by child calls, and an optional tag taken from
the arguments or the result (a verdict, a row count). `laurent`, and a few
other functions called tens of thousands of times per round, are leaves:
their calls are timed and counted per (op, name) instead of recorded one
by one, and the time of the outermost ones still counts as child time of
the enclosing span. A handful of hot accessors (UNTRACED) stay unwrapped.
Spans stay in memory; `dump` writes them out once the run is over.
"""

from __future__ import annotations

import gzip
import importlib
import inspect
import json
import statistics
from collections import defaultdict
from contextlib import contextmanager
from time import perf_counter

LAYERS = (
    "laurent", "seeds", "finite_type", "uvars", "linalg", "cones",
    "grassmannian", "expressions", "cli",
)
LEAF_LAYERS = frozenset({"laurent"})
# called tens of thousands of times a round: timed and counted like leaf
# layers, not kept as spans
LEAF_CALLS = frozenset({("uvars", "ratio_value"), ("uvars", "UVariable.value")})
# accessors called up to a million times a round (a minor per point and
# image on gr48): a wrapper would cost more than they do, so their time
# stays with their caller
UNTRACED = frozenset({
    ("grassmannian", "TotallyPositivePoint.minor"),
    ("finite_type", "BipartiteBelt.step"),
    ("finite_type", "BipartiteBelt.name"),
    ("finite_type", "BipartiteBelt.poly"),
    ("finite_type", "RegistryEntry.__init__"),
})
# dunder methods wrapped besides the public names: constructors and the
# ring operations of LaurentPolynomial
WRAPPED_DUNDERS = frozenset({
    "__init__", "__add__", "__sub__", "__mul__", "__pow__", "__neg__",
    "__eq__",
})


def _dynkin_of(belt) -> str:
    return f"{belt.dynkin.family}{belt.dynkin.rank}"


# tags read at the layer boundary; each gets (args, kwargs, result)
TAGS = {
    ("cones", "membership"): lambda a, k, r: r.verdict,
    ("cones", "verify_certificate"): lambda a, k, r: a[1].verdict,
    ("cones", "subtraction_free_check"): lambda a, k, r: a[0].verdict,
    ("cones", "double_description"): lambda a, k, r: (len(a[0]), len(r)),
    ("uvars", "verify_u_equations"): lambda a, k, r: _dynkin_of(a[0]),
    ("grassmannian", "verify_gr48_table"):
        lambda a, k, r: r.num_images * r.num_points,
    ("laurent", "LaurentPolynomial.__mul__"): lambda a, k, r: r.n_terms,
}


def _read_tag(tag, args, kwargs, result):
    """A tag, or None when the call's shape does not fit the reader (a
    later version may pass an argument by keyword)."""
    try:
        return tag(args, kwargs, result)
    except (AttributeError, IndexError, TypeError):
        return None


def _wrappable(name: str) -> bool:
    return not name.startswith("_") or name in WRAPPED_DUNDERS


class Tracer:
    """Records spans of one benchmark run; see the module docstring."""

    def __init__(self):
        self.spans: list[tuple] = []
        self.leaf: dict[tuple, list] = {}  # (op, layer, name) -> [calls, s, max tag]
        self.leaf_self: dict[tuple, float] = defaultdict(float)  # (op, layer)
        self.kinds: dict[object, str] = {}
        self.op = None
        self._stack = [[0, 0.0]]  # [span id, child time] per open span
        self._next_sid = 1
        self._leaf_depth = 0
        self._patches: list[tuple[object, str, object]] = []
        self._wrappers: dict[object, object] = {}

    # recording

    def _span(self, fn, layer, name, tag):
        tracer = self

        def wrapper(*args, **kwargs):
            stack = tracer._stack
            parent = stack[-1]
            frame = [tracer._next_sid, 0.0]
            tracer._next_sid += 1
            stack.append(frame)
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                tracer._close(frame, parent, layer, name, t0, None)
                raise
            tracer._close(frame, parent, layer, name, t0,
                          _read_tag(tag, args, kwargs, result) if tag else None)
            return result

        return wrapper

    def _close(self, frame, parent, layer, name, t0, tag):
        t1 = perf_counter()
        self._stack.pop()
        parent[1] += t1 - t0
        self.spans.append(
            (frame[0], parent[0], self.op, layer, name, t0, t1, frame[1], tag)
        )

    def _leaf(self, fn, layer, name, tag):
        tracer = self

        def wrapper(*args, **kwargs):
            tracer._leaf_depth += 1
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                dt = perf_counter() - t0
                tracer._leaf_depth -= 1
                tracer._leaf_done(layer, name, dt)
            if tag is not None:
                rec = tracer.leaf[(tracer.op, layer, name)]
                rec[2] = max(rec[2], _read_tag(tag, args, kwargs, result) or 0)
            return result

        return wrapper

    def _leaf_gen(self, fn, layer, name):
        """Generator functions do their work on each resume, so time those."""
        tracer = self

        def wrapper(*args, **kwargs):
            it = fn(*args, **kwargs)
            while True:
                tracer._leaf_depth += 1
                t0 = perf_counter()
                try:
                    item = next(it)
                except StopIteration:
                    return
                finally:
                    tracer._leaf_depth -= 1
                    tracer._leaf_done(layer, name, perf_counter() - t0)
                yield item

        return wrapper

    def _leaf_done(self, layer, name, dt):
        key = (self.op, layer, name)
        rec = self.leaf.get(key)
        if rec is None:
            rec = self.leaf[key] = [0, 0.0, 0]
        rec[0] += 1
        rec[1] += dt
        if self._leaf_depth == 0:
            self._stack[-1][1] += dt
            self.leaf_self[(self.op, layer)] += dt

    @contextmanager
    def span(self, layer: str, name: str):
        """A span opened by the benchmark itself, around work it does on
        behalf of a layer (the JSON rendering the CLI would do)."""
        stack = self._stack
        parent = stack[-1]
        frame = [self._next_sid, 0.0]
        self._next_sid += 1
        stack.append(frame)
        t0 = perf_counter()
        try:
            yield
        finally:
            self._close(frame, parent, layer, name, t0, None)

    @contextmanager
    def op_scope(self, op, kind: str):
        """Attribute everything recorded inside to one benchmark op."""
        self.op = op
        self.kinds[op] = kind
        try:
            with self.span("bench", kind):
                yield
        finally:
            self.op = None

    # installing

    def _wrap(self, fn, layer: str, name: str):
        got = self._wrappers.get(fn)
        if got is not None:
            return got
        tag = TAGS.get((layer, name))
        if layer in LEAF_LAYERS or (layer, name) in LEAF_CALLS:
            if inspect.isgeneratorfunction(fn):
                w = self._leaf_gen(fn, layer, name)
            else:
                w = self._leaf(fn, layer, name, tag)
        else:
            w = self._span(fn, layer, name, tag)
        w.__name__ = getattr(fn, "__name__", name)
        w.__doc__ = fn.__doc__
        w.__wrapped__ = fn
        self._wrappers[fn] = w
        return w

    def _patch(self, owner, attr: str, value) -> None:
        self._patches.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def _wrap_class(self, cls, layer: str) -> None:
        """Wrap methods; properties are accessors and stay as they are
        (what they build goes through wrapped functions)."""
        for attr, value in list(vars(cls).items()):
            name = f"{cls.__name__}.{attr}"
            if not _wrappable(attr) or (layer, name) in UNTRACED:
                continue
            if isinstance(value, (staticmethod, classmethod)):
                self._patch(cls, attr, type(value)(
                    self._wrap(value.__func__, layer, name)))
            elif inspect.isfunction(value):
                self._patch(cls, attr, self._wrap(value, layer, name))

    def install(self) -> None:
        if self._patches:
            raise RuntimeError("tracer is already installed")
        modules = {
            layer: importlib.import_module(f"clustercones.{layer}")
            for layer in LAYERS
        }
        layer_of = {mod.__name__: layer for layer, mod in modules.items()}
        for layer, mod in modules.items():
            for value in list(vars(mod).values()):
                if inspect.isclass(value) and value.__module__ == mod.__name__:
                    self._wrap_class(value, layer)
        namespaces = [*modules.values(), importlib.import_module("clustercones")]
        for mod in namespaces:
            for attr, value in list(vars(mod).items()):
                home = layer_of.get(getattr(value, "__module__", None))
                if (home is not None and inspect.isfunction(value)
                        and not attr.startswith("_")):
                    self._patch(mod, attr, self._wrap(value, home, attr))

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    # reading

    def dump(self, path, meta: dict) -> None:
        """Write every span and leaf aggregate as gzipped JSON."""
        payload = {
            "meta": meta,
            "fields": ["sid", "parent", "op", "layer", "name", "start",
                       "end", "child", "tag"],
            "spans": self.spans,
            "leaf": [[op, layer, name, *rec]
                     for (op, layer, name), rec in self.leaf.items()],
            "kinds": [[op, kind] for op, kind in self.kinds.items()],
        }
        with gzip.open(path, "wt", encoding="utf-8") as fh:
            json.dump(payload, fh)


class Summary:
    """Per-layer figures from one tracer.

    Ops whose id is a string (`setup0`, ...) belong to set-up; integer op
    ids belong to the measured rounds. Every `*_s` figure is seconds per
    set-up plus seconds per round, `*_ms` a median per call in the rounds,
    and counts are per round.
    """

    def __init__(self, tracer: Tracer, setups: int, rounds: int):
        self.t = tracer
        self.setups = max(setups, 1)
        self.rounds = max(rounds, 1)

    @staticmethod
    def _in_rounds(op) -> bool:
        return isinstance(op, int)

    def _select(self, layer, name, tag=None, kind=None):
        for sp in self.t.spans:
            if sp[3] == layer and sp[4] == name and (tag is None or sp[8] == tag):
                if kind is None or self.t.kinds.get(sp[2]) == kind:
                    yield sp

    def seconds(self, layer, name, tag=None) -> float:
        setup = rounds = 0.0
        for sp in self._select(layer, name, tag):
            if self._in_rounds(sp[2]):
                rounds += sp[6] - sp[5]
            else:
                setup += sp[6] - sp[5]
        return setup / self.setups + rounds / self.rounds

    def median_ms(self, layer, name, tag=None, kind=None) -> float:
        durations = [sp[6] - sp[5] for sp in self._select(layer, name, tag, kind)
                     if self._in_rounds(sp[2])]
        return 1000 * statistics.median(durations) if durations else 0.0

    def calls(self, layer, name) -> float:
        n = sum(1 for sp in self._select(layer, name) if self._in_rounds(sp[2]))
        return n / self.rounds

    def last_tag(self, layer, name, kind):
        tags = [sp[8] for sp in self._select(layer, name, kind=kind)]
        return tags[-1] if tags else None

    def tag_total(self, layer, name) -> float:
        total = sum(sp[8] or 0 for sp in self._select(layer, name)
                    if self._in_rounds(sp[2]))
        return total / self.rounds

    def leaf_calls(self, layer, name) -> float:
        return sum(rec[0] for (op, ly, nm), rec in self.t.leaf.items()
                   if ly == layer and nm == name and self._in_rounds(op)) / self.rounds

    def leaf_seconds(self, layer, name) -> float:
        setup = rounds = 0.0
        for (op, ly, nm), rec in self.t.leaf.items():
            if ly == layer and nm == name:
                if self._in_rounds(op):
                    rounds += rec[1]
                else:
                    setup += rec[1]
        return setup / self.setups + rounds / self.rounds

    def leaf_max(self, layer, name) -> int:
        return max((rec[2] for (op, ly, nm), rec in self.t.leaf.items()
                    if ly == layer and nm == name and self._in_rounds(op)),
                   default=0)

    def self_seconds(self) -> dict[str, float]:
        """Self time per layer: span time not covered by child calls."""
        setup: dict[str, float] = defaultdict(float)
        rounds: dict[str, float] = defaultdict(float)
        for sp in self.t.spans:
            bucket = rounds if self._in_rounds(sp[2]) else setup
            bucket[sp[3]] += sp[6] - sp[5] - sp[7]
        for (op, layer), dt in self.t.leaf_self.items():
            bucket = rounds if self._in_rounds(op) else setup
            bucket[layer] += dt
        return {
            layer: setup[layer] / self.setups + rounds[layer] / self.rounds
            for layer in LAYERS
        }

    def self_per_op_ms(self, layer) -> float:
        """Median over the ops that reach `layer` of its self time per op."""
        per_op: dict[object, float] = defaultdict(float)
        for sp in self.t.spans:
            if sp[3] == layer and self._in_rounds(sp[2]):
                per_op[sp[2]] += sp[6] - sp[5] - sp[7]
        for (op, ly), dt in self.t.leaf_self.items():
            if ly == layer and self._in_rounds(op):
                per_op[op] += dt
        vals = [v for v in per_op.values() if v > 0]
        return 1000 * statistics.median(vals) if vals else 0.0
