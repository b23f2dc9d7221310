"""Per-layer tracing by wrapping gpcq's public functions and NumPy kernels.

The wrappers are installed only for the traced pass and removed after it,
so untraced passes run the program unchanged. Each wrapped call is a span;
a span's self time is its duration minus the time its traced child spans
cover. Counts that the program only exposes through return values or
exceptions (inner-solver iterations, restarts, dropped causal seeds) are
read at the same boundaries.
"""

from __future__ import annotations

import sys
import time
import weakref
from collections import defaultdict

import numpy as np

# (module, attribute path) of every traced gpcq function, named after the
# module that defines it. A wrapper replaces the function on every gpcq
# module attribute that holds it, so re-exports and `from .x import f`
# copies are traced too.
FUNCTIONS = (
    ("channel", "product_extension"),
    ("quantum", "von_neumann_entropy"),
    ("causal", "causal_capacity"),
    ("causal", "inner_maximize"),
    ("noncausal", "noncausal_lower_bound"),
    ("noncausal", "product_witness"),
    ("method_of_types", "nearest_type_exhaustive"),
    ("schur_weyl", "DecodeContext.projector"),
    ("schur_weyl", "block_projector"),
    ("coding", "simulate_noncausal_trial"),
    ("coding", "simulate_causal_trial"),
    ("coding", "square_root_decoder"),
    ("coding", "sequential_decoder"),
    ("coding", "validate_povm"),
)

# NumPy kernels gpcq reaches through `np.` at call time.
KERNELS = (
    ("numpy.linalg", "eigvalsh"),
    ("numpy.linalg", "eigh"),
    ("numpy", "kron"),
)

COUNTERS = (
    "causal.inner_maximize.iterations",
    "causal.inner_maximize.unconverged",
    "noncausal.restarts",
    "noncausal.causal_seed_dropped",
    "schur_weyl.DecodeContext.projector.distinct_words",
)


class _Frame:
    __slots__ = ("name", "child_s")

    def __init__(self, name: str):
        self.name = name
        self.child_s = 0.0


class Tracer:
    """Span and counter bookkeeping for one traced pass."""

    def __init__(self):
        self.calls: dict[str, int] = defaultdict(int)
        self.total_s: dict[str, float] = defaultdict(float)
        self.self_s: dict[str, float] = defaultdict(float)
        self.matrices: dict[str, int] = defaultdict(int)
        self.counts: dict[str, int] = defaultdict(int)
        self.missing: list[str] = []
        self._stack: list[_Frame] = []
        self._restore: list[tuple[object, str, object]] = []
        self._words: weakref.WeakKeyDictionary = weakref.WeakKeyDictionary()

    # -- spans ---------------------------------------------------------

    def _wrap(self, name: str, fn, after=None, on_error=None, batch=False):
        stack = self._stack
        clock = time.perf_counter

        def traced(*args, **kwargs):
            frame = _Frame(name)
            parent = stack[-1] if stack else None
            stack.append(frame)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            except Exception as exc:
                if on_error is not None:
                    on_error(exc, parent)
                raise
            finally:
                elapsed = clock() - start
                stack.pop()
                self.calls[name] += 1
                self.total_s[name] += elapsed
                self.self_s[name] += elapsed - frame.child_s
                if parent is not None:
                    parent.child_s += elapsed
            if batch and args:
                shape = np.shape(args[0])
                self.matrices[name] += int(np.prod(shape[:-2])) if len(shape) > 2 else 1
            if after is not None:
                after(args, result)
            return result

        traced.__wrapped__ = fn
        traced.__name__ = getattr(fn, "__name__", name)
        return traced

    # -- counters read at the boundaries --------------------------------

    def _after_inner(self, args, sol):
        self.counts["causal.inner_maximize.iterations"] += int(getattr(sol, "iterations", 0))
        if not getattr(sol, "converged", True):
            self.counts["causal.inner_maximize.unconverged"] += 1

    def _after_noncausal(self, args, wit):
        self.counts["noncausal.restarts"] += int(getattr(wit, "restarts", 0))

    def _causal_error(self, exc, parent):
        if type(exc).__name__ == "CapExceeded" and parent is not None and parent.name == "noncausal.noncausal_lower_bound":
            self.counts["noncausal.causal_seed_dropped"] += 1

    def _after_projector(self, args, result):
        if len(args) < 2:
            return
        ctx, word = args[0], args[1]
        seen = self._words.setdefault(ctx, set())
        key = tuple(int(u) for u in np.asarray(word).ravel())
        if key not in seen:
            seen.add(key)
            self.counts["schur_weyl.DecodeContext.projector.distinct_words"] += 1

    # -- installation ----------------------------------------------------

    def install(self) -> None:
        import gpcq  # noqa: F401  (loads every module that holds a traced name)

        hooks = {
            "causal.inner_maximize": {"after": self._after_inner},
            "noncausal.noncausal_lower_bound": {"after": self._after_noncausal},
            "causal.causal_capacity": {"on_error": self._causal_error},
            "schur_weyl.DecodeContext.projector": {"after": self._after_projector},
        }
        holders = [m for n, m in list(sys.modules.items()) if n == "gpcq" or n.startswith("gpcq.")]
        for module, path in FUNCTIONS:
            name = f"{module}.{path}"
            owner = sys.modules.get(f"gpcq.{module}")
            *outer, attr = path.split(".")
            for part in outer:
                owner = getattr(owner, part, None)
            fn = owner.__dict__.get(attr) if owner is not None else None
            if not callable(fn):
                self.missing.append(name)
                continue
            wrapper = self._wrap(name, fn, **hooks.get(name, {}))
            if outer:
                self._replace(owner, attr, fn, wrapper)
                continue
            for holder in holders:
                for key, value in list(vars(holder).items()):
                    if value is fn:
                        self._replace(holder, key, fn, wrapper)
        for module, attr in KERNELS:
            owner = sys.modules.get(module)
            fn = getattr(owner, attr, None)
            if fn is None:
                self.missing.append(f"{module}.{attr}")
                continue
            name = f"{module}.{attr}"
            self._replace(owner, attr, fn, self._wrap(name, fn, batch=attr != "kron"))

    def _replace(self, owner, attr, original, wrapper):
        setattr(owner, attr, wrapper)
        self._restore.append((owner, attr, original))

    def uninstall(self) -> None:
        while self._restore:
            owner, attr, original = self._restore.pop()
            setattr(owner, attr, original)

    # -- report ----------------------------------------------------------

    def metrics(self) -> dict[str, dict]:
        """Every per-layer metric of the traced pass, with its unit."""
        out: dict[str, dict] = {}

        def put(name, value, unit):
            out[name] = {"value": value, "unit": unit}

        for module, path in FUNCTIONS:
            name = f"{module}.{path}"
            put(f"{name}.calls", self.calls[name], "count")
            put(f"{name}.total_s", self.total_s[name], "s")
            put(f"{name}.self_s", self.self_s[name], "s")
        for kernel in ("numpy.linalg.eigvalsh", "numpy.linalg.eigh"):
            put(f"{kernel}.calls", self.calls[kernel], "count")
            put(f"{kernel}.matrices", self.matrices[kernel], "count")
        put("numpy.linalg.eigvalsh.s", self.total_s["numpy.linalg.eigvalsh"], "s")
        put("numpy.kron.calls", self.calls["numpy.kron"], "count")
        put("numpy.kron.s", self.total_s["numpy.kron"], "s")
        for name in COUNTERS:
            put(name, self.counts[name], "count")
        calls = self.calls["schur_weyl.DecodeContext.projector"]
        distinct = self.counts["schur_weyl.DecodeContext.projector.distinct_words"]
        put("schur_weyl.DecodeContext.projector.distinct_per_call", distinct / calls if calls else 0.0, "ratio")
        return out
