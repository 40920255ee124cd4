"""Layer spans and counters, recorded from outside the package.

Each traced layer is a function of a ``cylwidth`` module.  Modules bind
each other's functions by name (``nets`` imports ``greedy_pack``, ``cli``
imports ``dyadic_alt_measure``, ...), so replacing the function on its
defining module alone would miss most calls.  :meth:`Tracer.install`
therefore replaces every binding of the function object in every loaded
``cylwidth`` module, and refuses to run if any binding is left over.

A span records its layer, start, end and parent; a layer's self time is its
span time minus the time of its child spans.  Counters are taken from the
arguments and return values of the wrapped calls, so they repeat exactly for
identical inputs.  Spans stay in memory until :meth:`Tracer.write_spans`.
"""

from __future__ import annotations

import functools
import inspect
import json
import math
import sys
import time
from collections import defaultdict
from contextlib import contextmanager


def _count_altmax(c, a, result):
    c["starts"] += a["starts"].shape[0]
    c["iters"] += int(result[2])


def _count_anneal(c, a, result):
    c["moves"] += len(a["pairs"])


def _count_pack(c, a, result):
    c["candidates"] += a["points"].shape[0]
    c["kept"] += int(result.sum())


def _count_tnorm_batch(c, a, result):
    c["rows"] += result.shape[0]
    c["bytes_computed"] += getattr(a["vectors"], "nbytes", 0)


def _count_dyadic(c, a, result):
    c["blocks"] += len(result.j_values)


def _count_width_orbit(c, a, result):
    c["points"] += a["orbit"].n


def _count_adversary(c, a, result):
    c["evaluations"] += result.evaluations


def _count_orbit(c, a, result):
    c["points"] += result.n


def _count_select(c, a, result):
    # one SVD for the spectrum, one per greedy candidate, one for the greedy
    # pick, one per subset when the exhaustive search runs, one for the target
    from cylwidth.rip import EXHAUSTIVE_MAX_K

    k = int(a["k"])
    svds = 3 + sum(4 * k - i for i in range(k))
    if k <= EXHAUSTIVE_MAX_K:
        svds += math.comb(4 * k, k)
    c["svd_count"] += svds


# (defining module, function, span name, counter or None); every span also
# counts its calls and accumulates its self time
LAYERS = (
    ("cylwidth._kernels", "anneal_best", "kernels.anneal_best", _count_anneal),
    ("cylwidth._kernels", "altmax_best", "kernels.altmax_best", _count_altmax),
    ("cylwidth._kernels", "greedy_pack", "kernels.greedy_pack", _count_pack),
    ("cylwidth.nets", "sphere_net", "nets.sphere_net", None),
    ("cylwidth.tnorm", "t_norm_subspace_bound", "tnorm.t_norm_subspace_bound", None),
    ("cylwidth.tnorm", "t_norm_batch", "tnorm.t_norm_batch", _count_tnorm_batch),
    ("cylwidth.measures", "dyadic_alt_measure", "measures.dyadic_alt_measure", _count_dyadic),
    ("cylwidth.measures", "build_delocalized_subspace",
     "measures.build_delocalized_subspace", None),
    ("cylwidth.width", "width_altmax", "width.width_altmax", None),
    ("cylwidth.width", "width_orbit", "width.width_orbit", _count_width_orbit),
    ("cylwidth.lowerbound", "adversarial_min_width",
     "lowerbound.adversarial_min_width", _count_adversary),
    ("cylwidth.lowerbound", "selberg_check", "lowerbound.selberg_check", None),
    ("cylwidth.vectors", "orthonormalize", "vectors.orthonormalize", None),
    ("cylwidth.groups", "enumerate_orbit", "groups.enumerate_orbit", _count_orbit),
    ("cylwidth.rip", "select_columns", "rip.select_columns", _count_select),
)

# a certification attempt is one certificate evaluation made directly by
# build_delocalized_subspace: the net bound for k <= 4, the sampled batch above
CERT_PARENT = "measures.build_delocalized_subspace"
CERT_SPANS = ("tnorm.t_norm_subspace_bound", "tnorm.t_norm_batch")


class Tracer:
    """In-memory span recorder with per-layer self time and counters."""

    def __init__(self):
        self.spans = []  # [name, parent index or -1, start, end]
        self.self_s = defaultdict(float)
        self.total_s = defaultdict(float)
        self.calls = defaultdict(int)
        self.counters = defaultdict(lambda: defaultdict(int))
        self._stack = []  # [span index, child time]
        self._restore = []

    @contextmanager
    def span(self, name):
        parent = self._stack[-1][0] if self._stack else -1
        index = len(self.spans)
        record = [name, parent, time.perf_counter(), None]
        self.spans.append(record)
        self._stack.append([index, 0.0])
        try:
            yield
        finally:
            record[3] = time.perf_counter()
            _, child = self._stack.pop()
            duration = record[3] - record[2]
            self.self_s[name] += duration - child
            self.total_s[name] += duration
            self.calls[name] += 1
            if self._stack:
                self._stack[-1][1] += duration
                if name in CERT_SPANS and self.spans[parent][0] == CERT_PARENT:
                    self.counters["measures.dyadic_alt_measure"]["cert_attempts"] += 1

    def _wrap(self, fn, name, count):
        signature = inspect.signature(fn)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            with self.span(name):
                result = fn(*args, **kwargs)
            if count is not None:
                bound = signature.bind(*args, **kwargs).arguments
                count(self.counters[name], bound, result)
            return result

        return traced

    def install(self):
        """Replace every binding of each layer function with a traced one."""
        modules = [m for n, m in sys.modules.items() if n.split(".")[0] == "cylwidth"]
        for module_name, attr, name, count in LAYERS:
            original = getattr(sys.modules[module_name], attr)
            traced = self._wrap(original, name, count)
            for module in modules:
                for key, value in list(vars(module).items()):
                    if value is original:
                        setattr(module, key, traced)
                        self._restore.append((module, key, original))
        self.check_installed()

    def check_installed(self):
        """Raise unless no module still binds an untraced layer function."""
        originals = {id(fn) for _, _, fn in self._restore}
        for module_name, attr, name, _ in LAYERS:
            if getattr(getattr(sys.modules[module_name], attr), "__wrapped__", None) is None:
                raise RuntimeError(f"layer {name} is not wrapped on its module")
        for n, module in sys.modules.items():
            if n.split(".")[0] != "cylwidth":
                continue
            for key, value in vars(module).items():
                if id(value) in originals:
                    raise RuntimeError(f"{n}.{key} still calls an untraced layer")

    def uninstall(self):
        while self._restore:
            module, key, original = self._restore.pop()
            setattr(module, key, original)

    def top_level_s(self):
        """Summed duration of the spans that have no parent."""
        return sum(end - start for _, parent, start, end in self.spans if parent < 0)

    def write_spans(self, path):
        with open(path, "w", encoding="utf-8") as fh:
            for i, (name, parent, start, end) in enumerate(self.spans):
                fh.write(json.dumps({"id": i, "name": name, "parent": parent,
                                     "start": start, "end": end}) + "\n")
