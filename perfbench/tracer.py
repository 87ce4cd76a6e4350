"""In-memory spans around the package's public functions, from outside it.

:class:`Tracer` replaces each listed function by a wrapper in every
``nonescape`` module namespace that binds it, so calls made from inside the
defining module are caught too (``_march_edge`` -> ``matching_function``).
Each call records a span (name, start, end, parent, tag) and the size of its
main argument; a few hooks add counts that give ratios of useful work.  The
tag names the phase and operation the span belongs to, such as
``run/poles``.  Spans stay in memory until :meth:`Tracer.write_spans`.
"""

from __future__ import annotations

import functools
import sys
from time import perf_counter
from typing import Any, Callable

import numpy as np


def _size(index: int, name: str) -> Callable[[tuple, dict], int]:
    """Points counter: the array size of argument ``index`` (or keyword ``name``)."""

    def points(args: tuple, kwargs: dict) -> int:
        value = args[index] if len(args) > index else kwargs[name]
        return int(np.size(value))

    return points


def _poles_found(tracer: "Tracer", args: tuple, kwargs: dict, result: Any) -> None:
    tracer.count("poles_found", len(result))


def _overlap_pair(tracer: "Tracer", args: tuple, kwargs: dict, result: Any) -> None:
    ket, bra = args[0], args[1]
    a, b = (ket.k.real, ket.k.imag), (bra.k.real, bra.k.imag)
    tracer.pairs.add((a, b) if a <= b else (b, a))
    tracer.count("pairs_integrated", 1)


def _pair_terms(tracer: "Tracer", args: tuple, kwargs: dict, result: Any) -> None:
    tracer.count("pair_terms", len(result.times) * (2 * result.n_pairs) ** 2)


def _node_steps(tracer: "Tracer", args: tuple, kwargs: dict, result: Any) -> None:
    grid = args[2] if len(args) > 2 else kwargs["grid"]
    tracer.count("node_steps", grid.n_nodes * grid.n_steps)


def _command_done(tracer: "Tracer", args: tuple, kwargs: dict, result: Any) -> None:
    # distinct overlap pairs are counted per CLI invocation: separate
    # commands cannot share work
    tracer.count("pairs_distinct", len(tracer.pairs))
    tracer.pairs.clear()


# (module, attribute path, points counter, after-call hook)
TARGETS: tuple[tuple[str, str, Callable | None, Callable | None], ...] = (
    ("poles", "locate_poles", None, _poles_found),
    ("poles", "winding_count", None, None),
    ("poles", "matching_function", _size(1, "k"), None),
    ("segmath", "kernels", _size(0, "z"), None),
    ("segmath", "product_integral", None, None),
    ("segmath", "panel_nodes", None, None),
    ("gamow", "overlap_quadrature", None, _overlap_pair),
    ("gamow", "overlap_matrix", None, None),
    ("gamow", "build_expansion", None, None),
    ("gamow", "GamowState.evaluate", _size(1, "r"), None),
    ("gamow", "weighted_field", None, None),
    ("dynamics", "nonescape_probability", None, _pair_terms),
    ("specfn", "moshinsky", _size(0, "k"), None),
    ("specfn", "faddeeva", _size(0, "z"), None),
    ("asymptote", "convergence_study", None, None),
    ("asymptote", "moment_sum_quadrature", None, None),
    ("asymptote", "crossover_time", None, None),
    ("asymptote", "tail_coefficient_t1", None, None),
    ("oracle", "evolve_tdse", None, _node_steps),
    ("cli", "load_config", None, None),
    ("cli", "main", None, _command_done),
)

# span record fields
_NAME, _START, _END, _PARENT, _CHILD, _POINTS, _TAG = range(7)


class Tracer:
    """Span recorder; :meth:`install` patches the package, :meth:`uninstall` restores it."""

    def __init__(self) -> None:
        self.spans: list[list] = []
        self.counters: dict[str, dict[str, float]] = {}
        self.pairs: set = set()
        self.tag = "run"
        self._stack: list[int] = []
        self._patches: list[tuple[Any, str, Any]] = []

    def count(self, key: str, amount: float) -> None:
        bucket = self.counters.setdefault(self.tag, {})
        bucket[key] = bucket.get(key, 0) + amount

    def _wrap(self, name: str, fn: Callable, points: Callable | None, after: Callable | None):
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            parent = stack[-1] if stack else -1
            rec = [name, 0.0, 0.0, parent, 0.0, points(args, kwargs) if points else 0, self.tag]
            stack.append(len(spans))
            spans.append(rec)
            rec[_START] = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                rec[_END] = end = perf_counter()
                stack.pop()
                if parent >= 0:
                    spans[parent][_CHILD] += end - rec[_START]
            if after is not None:
                after(self, args, kwargs, result)
            return result

        return traced

    def install(self) -> None:
        modules = [
            m for n, m in list(sys.modules.items())
            if m is not None and (n == "nonescape" or n.startswith("nonescape."))
        ]
        for module_name, path, points, after in TARGETS:
            module = sys.modules[f"nonescape.{module_name}"]
            name = f"{module_name}.{path}"
            if "." in path:
                cls_name, attr = path.split(".")
                owner = getattr(module, cls_name)
                original = owner.__dict__[attr]
                self._patch(owner, attr, self._wrap(name, original, points, after))
                continue
            original = getattr(module, path)
            wrapped = self._wrap(name, original, points, after)
            for mod in modules:
                for attr, value in list(vars(mod).items()):
                    if value is original:
                        self._patch(mod, attr, wrapped)

    def _patch(self, owner: Any, attr: str, value: Any) -> None:
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    def aggregate(self) -> dict[str, dict[str, dict[str, float]]]:
        """Per tag and span name: inclusive ``s``, ``self_s``, ``calls``, ``points``.

        ``s`` counts only spans with no ancestor of the same name, so a
        function that re-enters itself is not counted twice.
        """
        table: dict[str, dict[str, dict[str, float]]] = {}
        spans = self.spans
        for rec in spans:
            row = table.setdefault(rec[_TAG], {}).setdefault(
                rec[_NAME], {"s": 0.0, "self_s": 0.0, "calls": 0, "points": 0}
            )
            dur = rec[_END] - rec[_START]
            row["calls"] += 1
            row["points"] += rec[_POINTS]
            row["self_s"] += dur - rec[_CHILD]
            parent = rec[_PARENT]
            while parent >= 0 and spans[parent][_NAME] != rec[_NAME]:
                parent = spans[parent][_PARENT]
            if parent < 0:
                row["s"] += dur
        return table

    def write_spans(self, path: str, pass_id: str) -> None:
        """One tab-separated line per span: pass, tag, name, start, end, parent."""
        with open(path, "w") as fh:
            fh.write("pass\ttag\tname\tstart\tend\tparent\n")
            for rec in self.spans:
                fh.write(
                    f"{pass_id}\t{rec[_TAG]}\t{rec[_NAME]}\t{rec[_START]!r}\t"
                    f"{rec[_END]!r}\t{rec[_PARENT]}\n"
                )
