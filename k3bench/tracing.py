"""Spans and counts recorded around k3lat's public functions, from outside.

The tracer rebinds each target function in the module that defines it and in
every k3lat module that imported it by name (``census`` does ``from .genus
import same_genus``, so ``k3lat.census.same_genus`` is wrapped as well as
``k3lat.genus.same_genus``).  Methods are wrapped on their class.  Nothing in
``src/`` is edited, and ``uninstall`` restores every binding.

A span is ``[name, start, end, parent, op, n]``: ``parent`` is the index of
the enclosing span (-1 at top level), ``op`` labels the benchmark operation
that caused it, and ``n`` is an outcome size taken from the result (vectors
returned, candidates, embeddings, witness found) or None.  Spans stay in
memory until ``write`` is called at the end of the run.
"""

from __future__ import annotations

import functools
import importlib
import json
import sys
import time
from collections import Counter

# (module, attribute or "Class.method", metric name, outcome size of a result)
SPANNED = [
    ("k3lat.lattice", "Lattice.determinant", "lattice.determinant", None),
    ("k3lat.lattice", "Lattice.signature", "lattice.signature", None),
    ("k3lat.lattice", "Lattice.discriminant_group", "lattice.discriminant_group", None),
    ("k3lat.lattice", "Lattice.orthogonal_complement", "lattice.orthogonal_complement", None),
    ("k3lat.genus", "same_genus", "genus.same_genus", None),
    ("k3lat.genus", "padic_symbol", "genus.padic_symbol", None),
    ("k3lat.forms", "class_group", "forms.class_group", None),
    ("k3lat.forms", "reduce_form", "forms.reduce_form", None),
    ("k3lat.forms", "compose", "forms.compose", None),
    ("k3lat.enumeration", "indefinite_isometry_search",
     "enumeration.indefinite_isometry_search", lambda r: int(r.found)),
    ("k3lat.enumeration", "is_isometric_definite", "enumeration.is_isometric_definite", None),
    ("k3lat.enumeration", "orbit_invariant", "enumeration.orbit_invariant", None),
    ("k3lat.enumeration", "embeddings", "enumeration.embeddings", None),
    ("k3lat.enumeration", "short_vectors_le", "enumeration.short_vectors_le", len),
    ("k3lat.census", "build_unbounded_family", "census.build_unbounded_family", None),
    ("k3lat.census", "verify_certificate", "census.verify_certificate", None),
    ("k3lat.census", "has_minus_two_class", "census.has_minus_two_class", None),
    ("k3lat.census", "certificate_to_json", "census.certificate_json", None),
    ("k3lat.census", "certificate_from_json", "census.certificate_json", None),
    ("k3lat.cm", "enumerate_bounded_integers", "cm.enumerate_bounded_integers", len),
    ("k3lat.cm", "enumerate_period_embeddings", "cm.enumerate_period_embeddings", len),
    ("k3lat.cm", "solve_lambda", "cm.solve_lambda", None),
    ("k3lat.cli", "_cache_get", "cli.cache", lambda r: int(r is not None)),
]

# hot paths: counted, no spans.  __rmul__ is bound separately from __mul__.
COUNTED = [
    ("k3lat.cm", "CMElement.__mul__", "cm.CMElement.mul"),
    ("k3lat.cm", "CMElement.__rmul__", "cm.CMElement.mul"),
    ("k3lat.cm", "CMElement.inverse", "cm.CMElement.inverse"),
]

SPAN_NAMES = list(dict.fromkeys(name for _, _, name, _ in SPANNED if name != "cli.cache"))


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self.counts: Counter = Counter()
        self.op = None
        self._stack: list[int] = []
        self._undo: list[tuple[object, str, object]] = []

    # -- wrappers ------------------------------------------------------------

    def spanned(self, name, fn, size=None):
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            rec = [name, clock(), None, stack[-1] if stack else -1, self.op, None]
            stack.append(len(spans))
            spans.append(rec)
            try:
                result = fn(*args, **kwargs)
            finally:
                rec[2] = clock()
                stack.pop()
            if size is not None:
                rec[5] = size(result)
            return result

        return wrapper

    def counted(self, name, fn):
        counts = self.counts

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    # -- installation --------------------------------------------------------

    def install(self) -> None:
        for module, attr, name, size in SPANNED:
            self._rebind(module, attr, lambda fn, n=name, s=size: self.spanned(n, fn, s))
        for module, attr, name in COUNTED:
            self._rebind(module, attr, lambda fn, n=name: self.counted(n, fn))

    def _rebind(self, module: str, attr: str, make) -> None:
        owner = importlib.import_module(module)
        if "." in attr:
            cls_name, meth = attr.split(".")
            cls = getattr(owner, cls_name)
            orig = cls.__dict__[meth]
            self._undo.append((cls, meth, orig))
            setattr(cls, meth, make(orig))
            return
        orig = getattr(owner, attr)
        wrapped = make(orig)
        for mod_name, mod in list(sys.modules.items()):
            if mod_name != "k3lat" and not mod_name.startswith("k3lat."):
                continue
            for key, value in list(vars(mod).items()):
                if value is orig:
                    self._undo.append((mod, key, orig))
                    setattr(mod, key, wrapped)

    def uninstall(self) -> None:
        while self._undo:
            target, key, orig = self._undo.pop()
            setattr(target, key, orig)

    # -- results -------------------------------------------------------------

    def metrics(self) -> dict[str, tuple[float, str, str]]:
        """Per-layer metrics as name -> (value, unit, direction)."""
        selfs = self_times(self.spans)
        calls: Counter = Counter()
        self_s: Counter = Counter()
        sizes: Counter = Counter()
        for rec, own in zip(self.spans, selfs):
            calls[rec[0]] += 1
            self_s[rec[0]] += own
            if rec[5] is not None:
                sizes[rec[0]] += rec[5]
        out: dict[str, tuple[float, str, str]] = {}
        for name in SPAN_NAMES:
            out[f"{name}.calls"] = (calls[name], "count", "lower")
            out[f"{name}.self_s"] = (self_s[name], "s", "lower")
        isearch = "enumeration.indefinite_isometry_search"
        out[f"{isearch}.found"] = (ratio(sizes[isearch], calls[isearch]), "ratio", "higher")
        out["enumeration.short_vectors_le.vectors"] = (
            sizes["enumeration.short_vectors_le"], "count", "lower")
        out["cm.enumerate_bounded_integers.candidates"] = (
            sizes["cm.enumerate_bounded_integers"], "count", "lower")
        pairs = period_embedding_pairs(self.spans)
        embs = sizes["cm.enumerate_period_embeddings"]
        out["cm.enumerate_period_embeddings.pairs"] = (pairs, "count", "lower")
        out["cm.enumerate_period_embeddings.embeddings"] = (embs, "count", "higher")
        out["cm.enumerate_period_embeddings.yield"] = (ratio(embs, pairs), "ratio", "higher")
        out["cm.CMElement.mul.calls"] = (self.counts["cm.CMElement.mul"], "count", "lower")
        out["cm.CMElement.inverse.calls"] = (
            self.counts["cm.CMElement.inverse"], "count", "lower")
        out["cli.cache.hits"] = (sizes["cli.cache"], "count", "higher")
        out["cli.cache.misses"] = (calls["cli.cache"] - sizes["cli.cache"], "count", "lower")
        return out

    def write(self, path) -> None:
        """One JSON array per line: name, start, end, parent, op, n."""
        with open(path, "w", encoding="utf-8") as fh:
            for rec in self.spans:
                fh.write(json.dumps(rec, separators=(",", ":")) + "\n")


def ratio(num, base) -> float:
    return num / base if base else 0.0


def self_times(spans) -> list[float]:
    """Each span's duration minus the part of it covered by its child spans."""
    children: dict[int, list[tuple[float, float]]] = {}
    for rec in spans:
        if rec[3] >= 0:
            children.setdefault(rec[3], []).append((rec[1], rec[2]))
    out = []
    for i, rec in enumerate(spans):
        start, end = rec[1], rec[2]
        covered = 0.0
        reach = start
        for s, e in sorted(children.get(i, ())):
            s, e = max(s, reach), min(e, end)
            if e > s:
                covered += e - s
                reach = e
        out.append((end - start) - covered)
    return out


def period_embedding_pairs(spans) -> int:
    """Candidate pairs tested: the square of the candidate count found by the
    bounded-integer enumeration inside each period-embedding span."""
    total = 0
    for rec in spans:
        if rec[0] == "cm.enumerate_bounded_integers" and rec[3] >= 0:
            if spans[rec[3]][0] == "cm.enumerate_period_embeddings":
                total += rec[5] ** 2
    return total
