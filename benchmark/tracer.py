"""In-memory spans around calls into hyperfib's layers.

Each public function is wrapped at every module attribute that holds it,
because callers look functions up where they imported them
(``qmatrix.mat_pow``, ``cli.hyperfib``, ``cassini.det``, ...).  A span is
(name, start, end, parent); spans sit in flat arrays while the run goes and
are reduced to per-name calls, time and self time when it ends.  Self time
is a span's duration minus the time its child spans cover; the program is
single-threaded, so children nest and never overlap.
"""

from __future__ import annotations

import functools
import sys
from array import array
from time import perf_counter

# (module, attribute) of each traced layer; "Class.method" wraps a method
LAYERS = [
    ("cli", "main"),
    ("verify", "verify_all"),
    ("sequences", "hyperfib"),
    ("sequences", "HyperfibSequence.terms"),
    ("qmatrix", "build_q"),
    ("qmatrix", "reconstruct"),
    ("cassini", "build_window"),
    ("exact_linalg", "mat_pow"),
    ("exact_linalg", "mat_mul"),
    ("exact_linalg", "adjugate_inverse"),
    ("exact_linalg", "det"),
    ("exact_linalg", "char_poly"),
]

STRATEGIES = ("recurrence", "matpow", "prefix")


def span_names() -> list[str]:
    """Every span name a traced run can report."""
    names = []
    for module, attr in LAYERS:
        if (module, attr) == ("sequences", "hyperfib"):
            names += [f"sequences.hyperfib.{s}" for s in STRATEGIES]
        else:
            names.append(f"{module}.{attr}")
    return names


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name_ids = array("i")
        self.parents = array("i")
        self.starts = array("d")
        self.ends = array("d")
        self._stack = [-1]
        self._undo: list[tuple[object, str, object]] = []

    def open(self, name: str) -> int:
        name_id = self._ids.get(name)
        if name_id is None:
            name_id = self._ids[name] = len(self.names)
            self.names.append(name)
        index = len(self.starts)
        self.name_ids.append(name_id)
        self.parents.append(self._stack[-1])
        self.ends.append(0.0)
        self._stack.append(index)
        self.starts.append(perf_counter())
        return index

    def close(self, index: int) -> None:
        self.ends[index] = perf_counter()
        self._stack.pop()

    def _wrap(self, name: str, fn):
        if name == "sequences.hyperfib":
            def span_name(args, kwargs):
                strategy = args[2] if len(args) > 2 else kwargs.get("strategy")
                return f"{name}.{strategy.value if strategy else 'recurrence'}"
        else:
            def span_name(args, kwargs):
                return name

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = self.open(span_name(args, kwargs))
            try:
                return fn(*args, **kwargs)
            finally:
                self.close(index)

        return traced

    def install(self) -> None:
        """Wrap every layer at each attribute of hyperfib that holds it."""
        modules = [m for key, m in list(sys.modules.items())
                   if m is not None and key.split(".")[0] == "hyperfib"]
        for module_name, attr in LAYERS:
            owner = sys.modules[f"hyperfib.{module_name}"]
            if "." in attr:
                cls_name, method = attr.split(".")
                cls = getattr(owner, cls_name)
                self.replace(cls, method, self._wrap(f"{module_name}.{attr}",
                                                      getattr(cls, method)))
                continue
            original = getattr(owner, attr)
            wrapper = self._wrap(f"{module_name}.{attr}", original)
            for module in modules:
                for key, value in list(vars(module).items()):
                    if value is original:
                        self.replace(module, key, wrapper)

    def replace(self, holder, key: str, value) -> None:
        """Set holder.key to value until ``uninstall``."""
        self._undo.append((holder, key, getattr(holder, key)))
        setattr(holder, key, value)

    def uninstall(self) -> None:
        while self._undo:
            holder, key, value = self._undo.pop()
            setattr(holder, key, value)

    def summary(self) -> dict[str, dict[str, float]]:
        """Per span name: calls, total seconds and self seconds."""
        count = len(self.starts)
        covered = [0.0] * count
        for i in range(count):
            parent = self.parents[i]
            if parent >= 0:
                covered[parent] += self.ends[i] - self.starts[i]
        out = {name: {"calls": 0, "s": 0.0, "self_s": 0.0} for name in self.names}
        for i in range(count):
            entry = out[self.names[self.name_ids[i]]]
            duration = self.ends[i] - self.starts[i]
            entry["calls"] += 1
            entry["s"] += duration
            entry["self_s"] += duration - covered[i]
        return out
