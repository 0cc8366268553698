"""In-memory span tracing around the package's public functions.

The tracer wraps every binding site of each public function from outside
the package: the defining module's attribute, the package namespace and
every ``from ... import`` name in sibling modules, so calls between modules
are recorded as nested spans.  Nothing inside ``eigpert`` is edited.
"""

from __future__ import annotations

import functools
import gzip
import inspect
import json
import sys
import time
from collections import defaultdict

# Modules whose public functions are layers; their names are the layer names.
LAYERS = ("jacobi", "matrices", "alignment", "first_order", "schur", "rayleigh", "harness", "cli")

# Spans of these functions are labelled by one argument as well, so that
# variants with different costs report separately.
_LABEL_ARG = {"schur.refined_eigenvalues": ("variant", 1, ("full", "simplified"))}

# Spans of these functions record the dimension of their first argument.
_SIZED = frozenset({"jacobi.eigh"})

ROOT_CALLER = "bench"


def _argument(args, kwargs, name, position, values):
    """The labelling argument, by keyword or position; the first of
    ``values`` is its default."""
    if name in kwargs:
        return kwargs[name]
    return args[position] if len(args) > position else values[0]


class Tracer:
    """Records one span per call of a wrapped function.

    A span is ``[op, name, label, parent, start_ns, end_ns, size]``: ``op``
    is the operation it belongs to, ``parent`` the index of the enclosing
    span (-1 when the benchmark called it directly), ``label`` the name plus
    a variant where ``_LABEL_ARG`` asks for one, and ``size`` the input
    dimension for ``_SIZED`` functions.
    """

    def __init__(self) -> None:
        self.spans: list[list] = []
        self.op = -1
        # Spans are recorded only while active, so checks run between
        # operations leave no spans.
        self.active = False
        self.names: set[str] = set()
        self.labels: set[str] = set()
        self._stack: list[int] = []
        self._restore: list[tuple[object, str, object]] = []

    def _wrap(self, fn, name: str):
        spans = self.spans
        stack = self._stack
        label_arg = _LABEL_ARG.get(name)
        sized = name in _SIZED

        self.names.add(name)
        if label_arg is None:
            self.labels.add(name)
        else:
            self.labels.update(f"{name}.{value}" for value in label_arg[2])

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not self.active:
                return fn(*args, **kwargs)
            label = name
            if label_arg is not None:
                label = f"{name}.{_argument(args, kwargs, *label_arg)}"
            size = None
            if sized:
                shape = getattr(args[0], "shape", None)
                size = int(shape[0]) if shape else len(args[0])
            span = [self.op, name, label, stack[-1] if stack else -1, 0, 0, size]
            stack.append(len(spans))
            spans.append(span)
            span[4] = time.perf_counter_ns()
            try:
                return fn(*args, **kwargs)
            finally:
                span[5] = time.perf_counter_ns()
                stack.pop()

        return traced

    def install(self, package: str = "eigpert") -> None:
        """Wrap every binding of every layer's public functions."""
        wrappers = {}
        for layer in LAYERS:
            module = sys.modules[f"{package}.{layer}"]
            for attr in module.__all__:
                fn = getattr(module, attr)
                if inspect.isfunction(fn) and fn.__module__ == module.__name__:
                    wrappers[id(fn)] = (fn, self._wrap(fn, f"{layer}.{attr}"))
        for mod_name, module in list(sys.modules.items()):
            if mod_name != package and not mod_name.startswith(package + "."):
                continue
            for attr, value in list(vars(module).items()):
                hit = wrappers.get(id(value))
                if hit is not None and hit[0] is value:
                    self._restore.append((module, attr, value))
                    setattr(module, attr, hit[1])

    def uninstall(self) -> None:
        while self._restore:
            module, attr, value = self._restore.pop()
            setattr(module, attr, value)

    def __enter__(self) -> "Tracer":
        self.install()
        return self

    def __exit__(self, *exc) -> None:
        self.uninstall()

    def write(self, path) -> None:
        """Write the spans as gzipped JSON, one span per line."""
        with gzip.open(path, "wt", encoding="utf-8") as out:
            out.write('{"fields": ["op", "name", "label", "parent", "start_ns", "end_ns", "size"]}\n')
            for span in self.spans:
                out.write(json.dumps(span, separators=(",", ":")) + "\n")


def self_times(spans) -> list[int]:
    """Per-span duration minus the part of its interval its children cover.

    Children are clipped to their parent and merged before subtracting, so
    overlapping or overhanging children are not counted twice.
    """
    children = defaultdict(list)
    for span in spans:
        if span[3] >= 0:
            children[span[3]].append((span[4], span[5]))
    out = []
    for index, span in enumerate(spans):
        start, end = span[4], span[5]
        covered = 0
        reach = start
        for c_start, c_end in sorted(children.get(index, ())):
            c_start, c_end = max(c_start, reach), min(c_end, end)
            if c_end > c_start:
                covered += c_end - c_start
                reach = c_end
        out.append(end - start - covered)
    return out


def caller_of(spans, span) -> str:
    return ROOT_CALLER if span[3] < 0 else spans[span[3]][1]


def layer_totals(spans):
    """Calls and self time (ns) per label, eigh calls and self time per
    caller, and inclusive eigh time per input size."""
    calls = defaultdict(int)
    self_ns = defaultdict(int)
    eigh_calls = defaultdict(int)
    eigh_self_ns = defaultdict(int)
    eigh_by_size = defaultdict(list)
    for span, own in zip(spans, self_times(spans)):
        calls[span[2]] += 1
        self_ns[span[2]] += own
        if span[1] == "jacobi.eigh":
            caller = caller_of(spans, span)
            eigh_calls[caller] += 1
            eigh_self_ns[caller] += own
            eigh_by_size[span[6]].append(span[5] - span[4])
    return calls, self_ns, eigh_calls, eigh_self_ns, eigh_by_size
