#!/usr/bin/env python3
"""Record the traffic states that the traffic-exact workload checks against.

    python3 perfbench/record_expected.py

Draws balanced U/U* words and connected red/blue graphs from a fixed master
seed and computes each traffic state twice: with ``tau_via_quotients`` and
through the independent graph-core path (``iter_partitions`` + ``quotient`` +
``injective_traffic_value``).  It writes ``perfbench/expected.json`` only if
the two agree on every entry.  The workload seed then picks entries from
this pool, so every seed is checked against a stored, verified value.
Takes about two minutes.
"""

from __future__ import annotations

import json
import random
import sys
from fractions import Fraction
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]

from unimoments import graphs  # noqa: E402
from unimoments.graphs import ColoredDigraph  # noqa: E402

from bench_workloads import EXPECTED_PATH, pool_graph, word_graph  # noqa: E402

MASTER_SEED = 20171709
N = 3
# (words, word length, graphs, graph vertices, graph edges)
POOLS = {"full": (8, 10, 4, 11, 12), "tiny": (4, 8, 2, 7, 8)}


def draw_word(rng: random.Random, length: int, seen: set) -> list[str]:
    """A word with as many U as U*, not alternating, new up to rotation."""
    while True:
        word = ["U"] * (length // 2) + ["U*"] * (length // 2)
        rng.shuffle(word)
        rotations = {tuple(word[i:] + word[:i]) for i in range(length)}
        alternating = all(word[i] != word[i + 1] for i in range(length - 1))
        if not alternating and not rotations & seen:
            seen.add(tuple(word))
            return word


def draw_graph(rng: random.Random, vertices: int, edges: int) -> dict:
    """A connected graph, half its edges red, with more edges than vertices (so no cycle)."""
    pairs = []
    for v in range(1, vertices):
        u = rng.randrange(v)
        pairs.append((u, v) if rng.random() < 0.5 else (v, u))
    pairs += [(rng.randrange(vertices), rng.randrange(vertices))
              for _ in range(edges - vertices + 1)]
    rng.shuffle(pairs)
    colors = ["red"] * (edges // 2) + ["blue"] * (edges - edges // 2)
    rng.shuffle(colors)
    return {"vertices": vertices,
            "edges": [[t, h, c] for (t, h), c in zip(pairs, colors)]}


def verified_tau(g: ColoredDigraph) -> str:
    via_lattice = sum((graphs.injective_traffic_value(graphs.quotient(g, p), N)
                       for p in graphs.iter_partitions(g.vertex_count)), Fraction(0))
    via_engine = graphs.tau_via_quotients(g, N)
    if via_lattice != via_engine:
        raise SystemExit(f"disagreement on {g}: {via_lattice} != {via_engine}")
    return str(via_lattice)


def main() -> int:
    rng = random.Random(MASTER_SEED)
    out = {"n": N, "master_seed": MASTER_SEED}
    for size, (n_words, length, n_graphs, vertices, edges) in POOLS.items():
        seen: set = set()
        words = [draw_word(rng, length, seen) for _ in range(n_words)]
        drawn = [draw_graph(rng, vertices, edges) for _ in range(n_graphs)]
        out[size] = {
            "words": [{"word": w, "tau": verified_tau(word_graph(w))} for w in words],
            "graphs": [dict(g, tau=verified_tau(pool_graph(g))) for g in drawn],
        }
        print(f"{size}: {n_words} words, {n_graphs} graphs verified", flush=True)
    EXPECTED_PATH.write_text(json.dumps(out, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
