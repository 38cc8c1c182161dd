"""Span tracer that times relprop's public functions from outside the package.

Each traced name is wrapped once, and every module attribute under `relprop`
that binds the original function is pointed at the wrapper, because the
package imports by name (`from .model import forward`). A name the package no
longer defines is listed as absent; nothing fails on it.

Spans live in memory as tuples and are reduced to per-function totals when
the run ends. Kernel FLOPs and bytes are computed from operand and result
shapes, not measured, and stay right under a leading batch axis.
"""

from __future__ import annotations

import functools
import itertools
import sys
import threading
import time

TRACED = {
    "cli": ["main", "build_parser", "cmd_predict", "cmd_explain", "cmd_mask_eval", "cmd_pointing"],
    "model": ["load_model", "forward", "predict_topk"],
    "tensor": [
        "conv2d_forward",
        "conv2d_transpose",
        "maxpool_forward",
        "dense_forward",
        "relu",
        "flatten",
        "softmax",
    ],
    "relevance": [
        "explain",
        "seed_lrp",
        "seed_clrp",
        "seed_sglrp",
        "propagate_zbeta_input",
        "propagate_zplus_conv",
        "propagate_zplus_dense",
        "propagate_maxpool",
        "propagate_flatten",
        "propagate_relu",
    ],
    "evaluate": [
        "run_masking",
        "run_pointing",
        "patch_masking_eval",
        "pointing_game",
        "energy_threshold",
        "mask_patch",
        "maximal_point",
        "random_relevance_map",
        "_map_ordered",
        "write_masking_reports",
        "write_pointing_reports",
    ],
    "imaging": ["read_ppm", "preprocess", "render_heatmap", "write_pgm"],
}


def _operand_bytes(args, kwargs) -> int:
    return sum(a.nbytes for a in [*args, *kwargs.values()] if hasattr(a, "nbytes"))


def _arg(args, kwargs, index, name):
    return args[index] if len(args) > index else kwargs[name]


def _conv_counts(conv_out, weights, args, kwargs, out):
    """Each conv-output element is one c_in*kh*kw dot product, forward or adjoint."""
    taps = weights.shape[-3] * weights.shape[-2] * weights.shape[-1]
    return 2 * conv_out.size * taps, _operand_bytes(args, kwargs) + out.nbytes


def _conv_forward_counts(args, kwargs, out):
    return _conv_counts(out, _arg(args, kwargs, 1, "weights"), args, kwargs, out)


def _conv_transpose_counts(args, kwargs, out):
    grad = _arg(args, kwargs, 0, "grad")
    return _conv_counts(grad, _arg(args, kwargs, 1, "weights"), args, kwargs, out)


def _dense_counts(args, kwargs, out):
    weights = _arg(args, kwargs, 1, "weights")
    return 2 * out.size * weights.shape[-1], _operand_bytes(args, kwargs) + out.nbytes


KERNEL_COUNTS = {
    "tensor.conv2d_forward": _conv_forward_counts,
    "tensor.conv2d_transpose": _conv_transpose_counts,
    "tensor.dense_forward": _dense_counts,
}


class Tracer:
    """Wraps TRACED functions; records spans only while `active` is set."""

    def __init__(self):
        self.active = False
        self.request = 0  # id shared by every span of one CLI call
        self.spans = []  # (span id, name, start, end, parent id, request, thread, ok)
        self.work = {}  # kernel name -> [flop, bytes]; computed, not measured
        self.count_failures = 0
        self.absent = []
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._lock = threading.Lock()  # guards work and count_failures across pool workers

    def install(self, package) -> None:
        modules = [m for n, m in sys.modules.items() if n == package or n.startswith(package + ".")]
        for module_name, names in TRACED.items():
            home = sys.modules.get(f"{package}.{module_name}")
            for name in names:
                original = getattr(home, name, None)
                if not callable(original):
                    self.absent.append(f"{module_name}.{name}")
                    continue
                wrapper = self._wrap(f"{module_name}.{name}", original)
                for module in modules:
                    for attr, value in list(vars(module).items()):
                        if value is original:
                            setattr(module, attr, wrapper)

    def _wrap(self, name, fn):
        counts = KERNEL_COUNTS.get(name)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not self.active:
                return fn(*args, **kwargs)
            stack = self._local.__dict__.setdefault("stack", [])
            sid = next(self._ids)
            parent = stack[-1] if stack else 0
            stack.append(sid)
            ok = False
            start = time.perf_counter()
            try:
                out = fn(*args, **kwargs)
                ok = True
                return out
            finally:
                end = time.perf_counter()
                stack.pop()
                self.spans.append(
                    (sid, name, start, end, parent, self.request, threading.get_ident(), ok)
                )
                if ok and counts is not None:
                    self._count(name, counts, args, kwargs, out)

        return wrapper

    def _count(self, name, counts, args, kwargs, out):
        try:
            flop, nbytes = counts(args, kwargs, out)
        except (AttributeError, IndexError, KeyError, TypeError):
            flop = None
        with self._lock:
            if flop is None:
                self.count_failures += 1
                return
            tally = self.work.setdefault(name, [0, 0])
            tally[0] += flop
            tally[1] += nbytes

    def totals(self) -> dict[str, dict[str, float]]:
        """Per function: calls, s (summed span time), errors, self_s, durations."""
        children: dict[int, list[tuple[float, float]]] = {}
        for sid, _, start, end, parent, *_ in self.spans:
            if parent:
                children.setdefault(parent, []).append((start, end))
        table: dict[str, dict] = {}
        for sid, name, start, end, _, _, _, ok in self.spans:
            row = table.setdefault(
                name, {"calls": 0, "s": 0.0, "errors": 0, "self_s": 0.0, "durations": []}
            )
            row["calls"] += 1
            row["s"] += end - start
            row["errors"] += not ok
            row["self_s"] += end - start - _covered(children.get(sid, []))
            row["durations"].append(end - start)
        return table


def _covered(intervals: list[tuple[float, float]]) -> float:
    """Length of the union of intervals."""
    total, reach = 0.0, float("-inf")
    for start, end in sorted(intervals):
        if end > reach:
            total += end - max(start, reach)
            reach = end
    return total
