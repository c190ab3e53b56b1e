"""Spans taken from outside the program, by wrapping the functions it looks up.

``ambishrink.cli`` and ``ambishrink.diagnostics`` call the other modules
through names bound in their own module namespaces, so replacing
``cli.fit`` with a timing wrapper records every fit that ``analyze`` and
``riskbench`` run, without editing the package.  The benchmark's own
pipeline module is wrapped the same way.  Spans stay in memory; the caller
writes them out when the run ends.
"""

from __future__ import annotations

import os
import time
from dataclasses import dataclass, field

import numpy as np

# Function name -> (layer, stage).  A stage's per-layer metric is
# ``<layer>.<stage>_s``, the self time of its spans per operation.
STAGES: dict[str, tuple[str, str]] = {
    "main": ("cli", "self"),
    "read_signal": ("textio", "read"),
    "write_signal": ("textio", "write"),
    "write_matrix": ("textio", "write"),
    "format_psi_record": ("textio", "write"),
    "demean": ("series", "analytic"),
    "analytic_signal": ("series", "analytic"),
    "raw_moments": ("ambiguity", "raw_moments"),
    "emaf": ("ambiguity", "emaf"),
    "normalization": ("ambiguity", "normalize"),
    "normalize": ("ambiguity", "normalize"),
    "fit": ("shrinkage", "fit"),
    "threshold_field": ("shrinkage", "threshold"),
    "apply_threshold": ("shrinkage", "threshold"),
    "invert_af": ("covariance", "invert"),
    "assemble": ("covariance", "assemble"),
    "correct": ("covariance", "correct"),
    "bilinear": ("tfr", "bilinear"),
    "window_bank": ("tfr", "bilinear"),
    "qq_normalized_af": ("diagnostics", "qq"),
    "risk_report": ("diagnostics", "risk_report"),
    "variance_reduction_probe": ("diagnostics", "probe"),
    "gen_aggregation": ("procgen", "generate"),
    "gen_white_noise": ("procgen", "generate"),
    "gen_modulated_ma": ("procgen", "generate"),
    "gen_tv_filter": ("procgen", "generate"),
    "theoretical_covariance": ("procgen", "truth"),
}

# Self-time metrics reported by every traced run, in report order.
STAGE_METRICS = sorted({f"{layer}.{stage}_s" for layer, stage in STAGES.values()})

# Counters reported by every traced run: name -> unit.
COUNTERS: dict[str, str] = {
    "textio.bytes": "bytes",
    "textio.values": "count",
    "shrinkage.fit_iterations": "count",
    "shrinkage.fit_cells": "count",
    "shrinkage.kept_cells": "count",
    "shrinkage.null_kept_outside_block": "count",
    "covariance.eig_calls": "count",
    "ambiguity.grid_mb": "MB",
}


@dataclass
class Span:
    """One timed call: ``parent`` is the id of the span that was open around it."""

    id: int
    name: str
    layer: str
    stage: str
    start: float
    end: float
    parent: int | None
    root: int


@dataclass
class Tracer:
    """In-memory span and counter store for one traced run."""

    spans: list[Span] = field(default_factory=list)
    counters: dict[str, float] = field(default_factory=lambda: dict.fromkeys(COUNTERS, 0.0))
    _stack: list[int] = field(default_factory=list)
    _patches: list[tuple[object, str, object]] = field(default_factory=list)

    # -- recording ---------------------------------------------------------

    def span(self, name: str, layer: str, stage: str, fn, *args, **kwargs):
        """Run ``fn`` inside a span; return its result."""
        sid = len(self.spans)
        parent = self._stack[-1] if self._stack else None
        root = sid if parent is None else self.spans[parent].root
        rec = Span(sid, name, layer, stage, time.perf_counter(), 0.0, parent, root)
        self.spans.append(rec)
        self._stack.append(sid)
        try:
            return fn(*args, **kwargs)
        finally:
            rec.end = time.perf_counter()
            self._stack.pop()

    def count(self, fn, *args) -> None:
        """Run a counting step in a ``trace`` span so no layer is charged for it."""
        self.span("count", "trace", "bookkeeping", fn, *args)

    def _bump(self, name: str, value: float) -> None:
        self.counters[name] += value

    # -- wrapping ----------------------------------------------------------

    def _wrap(self, name: str, original, null_records: bool):
        layer, stage = STAGES[name]

        def traced(*args, **kwargs):
            try:
                out = self.span(name, layer, stage, original, *args, **kwargs)
            except Exception as err:
                best = getattr(err, "best", None)
                if name == "fit" and best is not None:
                    self.count(self._bump, "shrinkage.fit_iterations", best.iterations or 0)
                raise
            self.count(self._count, name, args, out, null_records)
            return out

        traced.__wrapped__ = original
        return traced

    def install(self, namespace, null_records: bool = False) -> None:
        """Wrap every staged function that ``namespace`` binds.

        ``null_records`` marks a namespace whose threshold fields belong to
        white-noise records, so their kept cells count as false discoveries.
        """
        for name in STAGES:
            original = getattr(namespace, name, None)
            if callable(original):
                self._patch(namespace, name, self._wrap(name, original, null_records))

    def install_counters(self, shrinkage_module) -> None:
        """Count eigendecompositions and fitted cells without adding spans.

        ``fit`` looks up ``_fit_cells`` in its own module; if a later version
        drops that helper, ``shrinkage.fit_cells`` stays 0.
        """
        for name in ("eigh", "eigvalsh"):
            original = getattr(np.linalg, name)

            def counted(*args, _original=original, **kwargs):
                self._bump("covariance.eig_calls", 1)
                return _original(*args, **kwargs)

            self._patch(np.linalg, name, counted)
        cells = getattr(shrinkage_module, "_fit_cells", None)
        if callable(cells):

            def counted_cells(*args, **kwargs):
                q, w = cells(*args, **kwargs)
                self._bump("shrinkage.fit_cells", len(q))
                return q, w

            self._patch(shrinkage_module, "_fit_cells", counted_cells)

    def _patch(self, namespace, name: str, replacement) -> None:
        self._patches.append((namespace, name, getattr(namespace, name)))
        setattr(namespace, name, replacement)

    def uninstall(self) -> None:
        """Restore every wrapped name, newest first."""
        while self._patches:
            namespace, name, original = self._patches.pop()
            setattr(namespace, name, original)

    # -- counters ----------------------------------------------------------

    def _count(self, name: str, args: tuple, out, null_records: bool) -> None:
        if name == "write_matrix" or name == "write_signal":
            self._bump("textio.bytes", os.path.getsize(args[0]))
            if name == "write_matrix":
                self._bump("textio.values", np.asarray(args[1]).size)
        elif name in ("raw_moments", "emaf", "normalize"):
            self._bump("ambiguity.grid_mb", out.entries.nbytes / 1e6)
        elif name == "fit":
            self._bump("shrinkage.fit_iterations", out.iterations or 0)
        elif name == "threshold_field":
            theta = out.theta
            kept = theta > 0
            self._bump("shrinkage.kept_cells", int(np.count_nonzero(kept)))
            if null_records:
                n = (theta.shape[0] + 1) // 2
                taus = np.abs(np.arange(-(n - 1), n))[:, None]
                ks = np.abs(np.arange(-n, n))[None, :]
                outside = (taus > n // 2) | (ks > n // 2)
                self._bump(
                    "shrinkage.null_kept_outside_block", int(np.count_nonzero(kept & outside))
                )

    # -- reports -----------------------------------------------------------

    def self_times(self, scales: dict[int, float]) -> dict[str, float]:
        """Total self time per ``layer.stage``: span time not covered by child spans.

        Each span's time is multiplied by ``scales[root]``, the factor of the
        top-level span it belongs to (1 where none is given).
        """
        child_time = [0.0] * len(self.spans)
        for s in self.spans:
            if s.parent is not None:
                child_time[s.parent] += s.end - s.start
        totals: dict[str, float] = {}
        for s in self.spans:
            key = f"{s.layer}.{s.stage}"
            own = (s.end - s.start) - child_time[s.id]
            totals[key] = totals.get(key, 0.0) + own * scales.get(s.root, 1.0)
        return totals

    def dump(self, path) -> None:
        """Write every span as one tab-separated line."""
        with open(path, "w") as fh:
            fh.write("id\tparent\tlayer\tstage\tname\tstart_s\tend_s\n")
            for s in self.spans:
                parent = "" if s.parent is None else str(s.parent)
                fh.write(
                    f"{s.id}\t{parent}\t{s.layer}\t{s.stage}\t{s.name}\t"
                    f"{s.start:.9f}\t{s.end:.9f}\n"
                )
