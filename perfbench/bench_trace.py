"""Spans around the public entry points of each unimoments module.

The tracer replaces module attributes with timing wrappers for the length
of one pass and puts the originals back afterwards; nothing inside the
package is edited.  A wrapper takes effect wherever the package looks the
name up at call time: ``cli`` calls ``counting.count_ddcg_partitions`` and
``polynomials.*`` through their modules, ``montecarlo`` and ``graphs`` call
their own module-level ``sample_unimodular``, and ``montecarlo`` calls
``np.linalg.eigvalsh``.

Spans are kept in memory: (name, parent, start, end, tag).  Calls made
thousands of times per pass (``sample_unimodular``, ``eigvalsh``) are leaf
spans, kept as one (parent, name, calls, seconds) aggregate per parent.
Spans are recorded only in the benchmark process: a forked pool worker runs
the wrappers as plain pass-through calls, so work done inside pool workers
shows up as self time of the span that started the pool.
"""

from __future__ import annotations

import functools
import inspect
import os
import statistics
import time

import numpy

from unimoments import cli, counting, graphs, montecarlo, polynomials

# Tags keep what a per-layer metric needs from a call's arguments.
_K = lambda a: {"k": a["k"]}  # noqa: E731
_GRAM = lambda a: {"gflop": a["samples"] * 8 * a["n"] ** 3 / 1e9}  # noqa: E731

# (module, attribute, span name, leaf, tag)
BOUNDARIES = [
    (cli, "main", "cli.main", False, None),
    (counting, "count_ddcg_partitions", "counting.count_ddcg_partitions", False, _K),
    *[(polynomials, attr, f"polynomials.{attr}", False, None)
      for attr in ("ftable_row", "moment_polynomial", "conjectured_ftable",
                   "find_disproof", "exact_moment")],
    (montecarlo, "estimate_moment", "montecarlo.estimate_moment", False, _GRAM),
    (montecarlo, "validate_against_exact", "montecarlo.validate_against_exact", False,
     lambda a: {"gflop": sum(a["samples"] * 8 * n ** 3 for n in a["n_list"]) / 1e9}),
    (montecarlo, "sample_unimodular", "sampling.sample_unimodular", True, None),
    (graphs, "sample_unimodular", "sampling.sample_unimodular", True, None),
    (numpy.linalg, "eigvalsh", "linalg.eigvalsh", True, None),
    (graphs, "tau_via_quotients", "graphs.tau_via_quotients", False,
     lambda a: {"vertices": a["g"].vertex_count}),
    (graphs, "traffic_state_brute", "graphs.traffic_state_brute", False,
     lambda a: {"maps": a["samples"] * a["n"] ** a["g"].vertex_count}),
]

# How each metric is obtained, for the result file.
EXACT_COUNTS = ("counting.calls", "polynomials.calls", "sampling.calls",
                "linalg.eigvalsh_calls", "graphs.tau_calls", "cli.calls")
COMPUTED = ("montecarlo.gram_gflop", "graphs.partitions", "graphs.brute_maps")


def metric_kind(name: str) -> str:
    if name in EXACT_COUNTS:
        return "exact count"
    if name in COMPUTED:
        return "computed from the inputs (exact)"
    if name in ("cli.output_bytes", "peak_rss_mb"):
        return "measured size"
    if name in ("setup_s", "wall_ref_s", "core_ref_s", "trace.overhead_s"):
        return "wall-clock time scaled to reference host speed (bench_speed)"
    return "wall-clock time, or a ratio of wall-clock times"


class Tracer:
    """In-memory spans for one pass; use as a context manager around the pass."""

    def __init__(self):
        self.spans: list[list] = []
        self.leaves: dict[tuple[int, str], list] = {}
        self.missing: list[str] = []
        self.origin = time.perf_counter()
        self._stack = [-1]
        self._pid = os.getpid()
        self._undo: list[tuple] = []

    def _wrap(self, fn, name, leaf, tag):
        signature = inspect.signature(fn) if tag is not None else None

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if os.getpid() != self._pid:
                return fn(*args, **kwargs)
            if leaf:
                t0 = time.perf_counter()
                try:
                    return fn(*args, **kwargs)
                finally:
                    acc = self.leaves.setdefault((self._stack[-1], name), [0, 0.0])
                    acc[0] += 1
                    acc[1] += time.perf_counter() - t0
            info = None
            if tag is not None:
                bound = signature.bind(*args, **kwargs)
                bound.apply_defaults()
                info = tag(bound.arguments)
            span = [name, self._stack[-1], time.perf_counter() - self.origin, None, info]
            self._stack.append(len(self.spans))
            self.spans.append(span)
            try:
                return fn(*args, **kwargs)
            finally:
                span[3] = time.perf_counter() - self.origin
                self._stack.pop()

        return traced

    def __enter__(self):
        for owner, attr, name, leaf, tag in BOUNDARIES:
            original = getattr(owner, attr, None)
            if original is None:
                self.missing.append(f"{owner.__name__}.{attr}")
                continue
            setattr(owner, attr, self._wrap(original, name, leaf, tag))
            self._undo.append((owner, attr, original))
        return self

    def __exit__(self, *exc):
        for owner, attr, original in reversed(self._undo):
            setattr(owner, attr, original)
        self._undo.clear()
        return False

    def dump(self) -> dict:
        return {
            "span_fields": ["name", "parent", "start_s", "end_s", "tag"],
            "spans": self.spans,
            "leaf_fields": ["parent", "name", "calls", "seconds"],
            "leaves": [[parent, name, calls, secs]
                       for (parent, name), (calls, secs) in self.leaves.items()],
            "missing_boundaries": self.missing,
        }


def _bell(n: int) -> int:
    row = [1]
    for _ in range(n):
        nxt = [row[-1]]
        for x in row:
            nxt.append(nxt[-1] + x)
        row = nxt
    return row[0]


def layer_metrics(tracer: Tracer, k_big: int, k_mid: int, output_bytes: int) -> dict:
    """Per-layer metrics of one traced pass (all but trace.overhead_s).

    Self time is a span's duration minus the time of its child spans and
    leaf aggregates.  ``k_big`` and ``k_mid`` name the count calls that get
    their own metric: the largest k of ``count --k-range``, and the two
    stand-alone ``count --k`` calls, which are the last two count spans
    under ``cli.main`` with that k (workers = 1, then workers = 2).
    """
    spans = tracer.spans
    child = [0.0] * len(spans)
    for _name, parent, start, end, _tag in spans:
        if parent >= 0:
            child[parent] += end - start
    leaf_calls: dict[str, int] = {}
    leaf_secs: dict[str, float] = {}
    for (parent, name), (calls, secs) in tracer.leaves.items():
        if parent >= 0:
            child[parent] += secs
        leaf_calls[name] = leaf_calls.get(name, 0) + calls
        leaf_secs[name] = leaf_secs.get(name, 0.0) + secs

    def layer(prefix):
        return [(i, s) for i, s in enumerate(spans) if s[0].startswith(prefix + ".")]

    def busy(items):
        return sum(s[3] - s[2] for _, s in items)

    def self_time(items):
        return sum(s[3] - s[2] - child[i] for i, s in items)

    counting_spans = layer("counting")
    top_counts = [s for _, s in counting_spans
                  if s[1] >= 0 and spans[s[1]][0] == "cli.main"]
    big = [s[3] - s[2] for s in top_counts if s[4]["k"] == k_big]
    mid = [s[3] - s[2] for s in top_counts if s[4]["k"] == k_mid]
    k8_w2 = big[-1] if big else 0.0
    k7_w1, k7_w2 = mid[-2:] if len(mid) >= 2 else (0.0, 0.0)

    sampling_calls = leaf_calls.get("sampling.sample_unimodular", 0)
    sampling_s = leaf_secs.get("sampling.sample_unimodular", 0.0)
    mc_spans = layer("montecarlo")
    tau = [s for _, s in layer("graphs") if s[0] == "graphs.tau_via_quotients"]
    brute = [s for _, s in layer("graphs") if s[0] == "graphs.traffic_state_brute"]
    tau_s = sum(s[3] - s[2] for s in tau)
    partitions = sum(_bell(s[4]["vertices"]) for s in tau)
    cli_spans = layer("cli")

    return {
        "counting.calls": len(counting_spans),
        "counting.busy_s": busy(counting_spans),
        "counting.k8_w2_s": k8_w2,
        "counting.k7_w1_s": k7_w1,
        "counting.k7_w2_s": k7_w2,
        "counting.speedup_k7": k7_w1 / k7_w2 if k7_w2 else 0.0,
        "polynomials.calls": len(layer("polynomials")),
        "polynomials.self_s": self_time(layer("polynomials")),
        "sampling.calls": sampling_calls,
        "sampling.busy_s": sampling_s,
        "sampling.us_per_matrix": 1e6 * sampling_s / sampling_calls if sampling_calls else 0.0,
        "montecarlo.busy_s": busy(mc_spans),
        "montecarlo.self_s": self_time(mc_spans),
        "linalg.eigvalsh_calls": leaf_calls.get("linalg.eigvalsh", 0),
        "linalg.eigvalsh_s": leaf_secs.get("linalg.eigvalsh", 0.0),
        "montecarlo.gram_gflop": sum(s[4]["gflop"] for _, s in mc_spans),
        "graphs.tau_calls": len(tau),
        "graphs.tau_s": tau_s,
        "graphs.partitions": partitions,
        "graphs.ns_per_partition": 1e9 * tau_s / partitions if partitions else 0.0,
        "graphs.brute_s": sum(s[3] - s[2] for s in brute),
        "graphs.brute_maps": sum(s[4]["maps"] for s in brute),
        "cli.calls": len(cli_spans),
        "cli.self_s": self_time(cli_spans),
        "cli.output_bytes": output_bytes,
    }


def median_metrics(per_pass: list[dict]) -> dict:
    return {name: statistics.median(m[name] for m in per_pass) for name in per_pass[0]}
