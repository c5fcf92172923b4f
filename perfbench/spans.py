"""Outside-in span tracer for the ncquad modules.

``Tracer.install`` wraps every public function of each traced module and
every public method (plain, class or static) of the classes those modules
define, then rebinds every attribute of every loaded ``ncquad`` module
that refers to a wrapped function.  Calls made inside ncquad, through
``from .x import f`` bindings, are therefore caught too.  ``uninstall``
puts every original object back.

While ``recording`` is true each wrapped call appends one span
``(key, parent, t0, t1)`` to ``spans``; ``parent`` is the index of the
enclosing span or -1.  Spans stay in memory until ``take`` hands them to
``summarize``, which turns the spans of one input into self times, call
counts and stage times.

Scalar helpers called thousands of times per input (``SKIP``) are left
unwrapped: their time lands in the caller's self time.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import sys
import time
from collections import Counter, defaultdict

LAYERS = ("fields", "linalg", "tensors", "forms", "quintuples", "squares",
          "grassmann", "blowup", "certify", "fileformat", "cli")

SKIP = frozenset({
    "fields.RationalField.of",
    "fields.PrimeField.of",
})

# the public calls full_pipeline makes, by stage; only its direct children count
STAGE_OF = {
    "quintuples.is_geometric": "geometricity",
    "quintuples.relations": "relations",
    "quintuples.truncated_dims": "relations",
    "squares.square_from_quintuple": "determinant",
    "squares.GeometricSquare.line": "lines",
    "grassmann.line_relation": "lines",
    "squares.block_quiver": "quiver",
    "squares.linear_quiver": "quiver",
    "squares.mutate_linear_to_block": "quiver",
    "squares.gram_base_change": "quiver",
    "certify.ext_table": "ext_table",
    "certify.gram_of": "gram",
}
STAGES = ("geometricity", "relations", "determinant", "lines", "quiver",
          "ext_table", "gram", "serialize", "replay")
PIPELINE = "certify.full_pipeline"
# serialization outside input_digest, which hashes canonical bytes of its own
SERIALIZE = ("certify.Certificate.to_dict", "fileformat.canonical_json_bytes")
DIGEST = "fileformat.input_digest"
REPLAY = "certify.replay_table"


class Tracer:
    def __init__(self):
        self.recording = False
        self.spans = []
        self._stack = [-1]
        self._saved = []        # (owner, attribute, original object)

    def _wrap(self, key, fn):
        spans, stack, clock, tracer = self.spans, self._stack, time.perf_counter, self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not tracer.recording:
                return fn(*args, **kwargs)
            idx = len(spans)
            spans.append(None)
            parent = stack[-1]
            stack.append(idx)
            t0 = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                t1 = clock()
                stack.pop()
                spans[idx] = (key, parent, t0, t1)

        return traced

    def _set(self, owner, attr, new, old):
        self._saved.append((owner, attr, old))
        setattr(owner, attr, new)

    def install(self):
        if self._saved:
            raise RuntimeError("tracer already installed")
        wrapped = {}            # id(original) -> (original, wrapper)
        for layer in LAYERS:
            modname = f"ncquad.{layer}"
            mod = importlib.import_module(modname)
            for name, obj in list(vars(mod).items()):
                if name.startswith("_") or getattr(obj, "__module__", None) != modname:
                    continue
                if isinstance(obj, type):
                    self._wrap_class(layer, obj)
                elif inspect.isroutine(obj) and f"{layer}.{name}" not in SKIP:
                    wrapped[id(obj)] = (obj, self._wrap(f"{layer}.{name}", obj))
        for modname, mod in list(sys.modules.items()):
            if modname != "ncquad" and not modname.startswith("ncquad."):
                continue
            for name, obj in list(vars(mod).items()):
                hit = wrapped.get(id(obj))
                if hit is not None and hit[0] is obj:
                    self._set(mod, name, hit[1], obj)

    def _wrap_class(self, layer, cls):
        for name, raw in list(vars(cls).items()):
            key = f"{layer}.{cls.__name__}.{name}"
            if name.startswith("_") or key in SKIP:
                continue
            if isinstance(raw, (classmethod, staticmethod)):
                new = type(raw)(self._wrap(key, raw.__func__))
            elif inspect.isfunction(raw):
                new = self._wrap(key, raw)
            else:
                continue
            self._set(cls, name, new, raw)

    def uninstall(self):
        while self._saved:
            owner, attr, old = self._saved.pop()
            setattr(owner, attr, old)

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.recording = False
        self.uninstall()

    def take(self) -> list:
        """Hand over the spans recorded so far and start a fresh list."""
        if len(self._stack) != 1:
            raise RuntimeError("take() inside an open span")
        out = list(self.spans)
        self.spans.clear()
        return out


def summarize(spans) -> dict:
    """Per-input figures from the spans of one input.

    Returns {"self_ms": {layer: ms}, "layer_calls": {layer: n},
    "calls": {key: n}, "incl_ms": {key: ms}, "stage_ms": {stage: ms}}.
    Everything but ``stage_ms["replay"]`` describes the operation alone:
    calls made under ``replay_table`` are left out.  Inclusive time of a
    recursive function counts each nesting level.
    """
    child = [0.0] * len(spans)
    in_replay = [False] * len(spans)
    for idx, (key, parent, t0, t1) in enumerate(spans):
        if parent >= 0:
            child[parent] += t1 - t0
        in_replay[idx] = key == REPLAY or (parent >= 0 and in_replay[parent])
    self_ms = defaultdict(float)
    layer_calls = Counter()
    calls = Counter()
    incl = defaultdict(float)
    stage = defaultdict(float)
    for idx, (key, parent, t0, t1) in enumerate(spans):
        dur = (t1 - t0) * 1e3
        if in_replay[idx]:
            if key == REPLAY:
                stage["replay"] += dur
            continue
        layer = key.split(".", 1)[0]
        self_ms[layer] += dur - child[idx] * 1e3
        layer_calls[layer] += 1
        calls[key] += 1
        incl[key] += dur
        parent_key = spans[parent][0] if parent >= 0 else None
        if parent_key == PIPELINE and key in STAGE_OF:
            stage[STAGE_OF[key]] += dur
        elif key in SERIALIZE and parent_key != DIGEST:
            stage["serialize"] += dur
    return {"self_ms": self_ms, "layer_calls": layer_calls, "calls": calls,
            "incl_ms": incl, "stage_ms": stage}
