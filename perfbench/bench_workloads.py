"""Inputs, timed passes and output checks for the unimoments benchmark.

A workload is a fixed list of operations.  Each operation is one call into
unimoments from outside the package: a CLI subcommand run in-process
through ``cli.main`` with stdout captured, or a public library function
where no subcommand exists.  Inputs come only from the workload seed and the
size ("full" for measurement, "tiny" for the benchmark's own tests).

A pass runs every operation once under the clock, one call after another
(one closed-loop caller).  Outputs are checked after the clock stops; an
operation that raised, exited non-zero or gave a wrong answer counts as
failed.
"""

from __future__ import annotations

import contextlib
import functools
import io
import json
import math
import random
import sys
import traceback
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path
from typing import Callable, NamedTuple

import bench_speed
from unimoments import cli, graphs, montecarlo, tables
from unimoments.graphs import Color, ColoredDigraph

EXPECTED_PATH = Path(__file__).with_name("expected.json")

# A Monte Carlo mean further than this many standard errors from the exact
# value counts as wrong (about 2e-9 per check for a correct program).
Z_LIMIT = 6.0


@dataclass
class Expected:
    """Every value the checks compare against.

    ``reference`` and ``conjectured`` are copies of the package's shipped
    tables; ``traffic`` holds the stored traffic states of the seeded word
    and graph pool, each verified once through the graph-core path by
    ``record_expected.py``.
    """

    reference: dict[int, tuple[int, ...]]
    conjectured: dict[int, tuple[int, ...]]
    first_disproof: tuple[int, int, int, int]
    traffic: dict

    @classmethod
    def load(cls) -> "Expected":
        return cls(
            reference=dict(tables.REFERENCE_COUNTS),
            conjectured=dict(tables.CONJECTURED_COUNTS),
            first_disproof=(6, 3, 10988, 11000),
            traffic=json.loads(EXPECTED_PATH.read_text()),
        )

    def cycle_traffic(self, k: int, n: int) -> Fraction:
        """Traffic state of the alternating 2k-cycle: sum_j F(2k, j) (n)_j / n."""
        row = self.reference[2 * k]
        return Fraction(sum(c * math.perm(n, j) for j, c in enumerate(row, start=1)), n)


class CliOutput(NamedTuple):
    code: int
    text: str


@dataclass
class Op:
    """One call of a workload: ``call`` runs it, ``check`` lists what is wrong."""

    label: str
    call: Callable[[], object]
    check: Callable[[object], list[str]]
    core: bool = False  # counted in core_s, the workload's main phase


@dataclass
class Workload:
    ops: list[Op]
    # Arguments of the count calls whose spans get their own per-layer metric.
    k_big: int = 0
    k_mid: int = 0


@dataclass
class PassResult:
    wall_s: float
    core_s: float
    # The same times at reference host speed; see bench_speed.
    wall_ref_s: float
    core_ref_s: float
    attempted: int
    failures: list[str]
    output_bytes: int
    traced: bool = False


def run_cli(argv: list[str]) -> CliOutput:
    """Run one subcommand in-process, as ``unimoments <argv>`` would, capturing stdout."""
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        try:
            code = cli.main(argv)
        except SystemExit as exc:  # argparse rejects bad usage by exiting
            code = exc.code if isinstance(exc.code, int) else 2
    return CliOutput(code, buf.getvalue())


def reset_caches() -> None:
    """Empty every functools cache in the package.

    A CLI user starts each call in a fresh process, so every pass starts as
    cold as that; it also keeps passes of one run comparable.
    """
    for name, module in list(sys.modules.items()):
        if name == "unimoments" or name.startswith("unimoments."):
            for value in vars(module).values():
                clear = getattr(value, "cache_clear", None)
                if callable(clear):
                    clear()


def run_pass(workload: Workload) -> PassResult:
    outputs = []
    wall = core = wall_ref = core_ref = 0.0
    with bench_speed.SpeedProbe() as probe:
        for op in workload.ops:
            out, elapsed, speed = probe.timed(op.call)
            wall += elapsed
            wall_ref += elapsed * speed
            if op.core:
                core += elapsed
                core_ref += elapsed * speed
            outputs.append(out)

    failures = []
    for op, out in zip(workload.ops, outputs):
        if isinstance(out, Exception):
            problems = [traceback.format_exception_only(out)[-1].strip()]
        else:
            try:
                problems = op.check(out)
            except Exception as exc:  # a malformed output must not stop the run
                problems = [f"check raised {traceback.format_exception_only(exc)[-1].strip()}"]
        if problems:
            failures.append(f"{op.label}: {'; '.join(problems[:3])}")
    output_bytes = sum(len(out.text.encode()) for out in outputs if isinstance(out, CliOutput))
    return PassResult(wall, core, wall_ref, core_ref, len(workload.ops), failures, output_bytes)


# ---------------------------------------------------------------- CLI checks

@functools.lru_cache(maxsize=None)
def _validator(command: str):
    import jsonschema  # imported here so that set-up time stays the program's own

    schema = cli.OUTPUT_SCHEMAS[command]
    return jsonschema.validators.validator_for(schema)(schema)


def _reject_constant(name: str):
    raise ValueError(f"{name} is not valid JSON")


def _record(command: str, out: CliOutput):
    """The parsed record and its problems: exit code, strict JSON, schema."""
    if out.code != 0:
        return None, [f"exit code {out.code}"]
    try:
        record = json.loads(out.text, parse_constant=_reject_constant)
    except ValueError as exc:
        return None, [f"invalid JSON: {exc}"]
    problems = [f"schema: {err.message}" for err in _validator(command).iter_errors(record)]
    if record.get("command") != command:
        problems.append(f"command is {record.get('command')!r}")
    return record, problems


def _rows_by_two_k(rows, key: str) -> dict[int, tuple[int, ...]]:
    out: dict[int, list] = {}
    for row in sorted(rows, key=lambda r: (r["two_k"], r["j"])):
        out.setdefault(row["two_k"], []).append(int(row[key]))
    return {two_k: tuple(values) for two_k, values in out.items()}


def _check_count(expected: Expected, ks):
    def check(out):
        record, problems = _record("count", out)
        if record is None:
            return problems
        got = _rows_by_two_k(record["results"]["rows"], "count")
        want = {2 * k: expected.reference[2 * k] for k in ks}
        if got != want:
            bad = sorted(t for t in set(got) | set(want) if got.get(t) != want.get(t))
            problems.append(f"rows differ from REFERENCE_COUNTS for 2k in {bad}")
        return problems
    return check


def _check_poly(expected: Expected, k: int):
    def check(out):
        record, problems = _record("poly", out)
        if record is None:
            return problems
        rows = sorted((r for r in record["results"]["rows"] if r["basis"] == "pochhammer"),
                      key=lambda r: r["j"])
        if tuple(int(r["coefficient"]) for r in rows) != expected.reference[2 * k]:
            problems.append("Pochhammer row differs from REFERENCE_COUNTS")
        return problems
    return check


def _check_conjecture(expected: Expected, k_max: int):
    def check(out):
        record, problems = _record("conjecture", out)
        if record is None:
            return problems
        rows = record["results"]["rows"]
        two_ks = range(2, 2 * k_max + 1, 2)
        if _rows_by_two_k(rows, "conjectured") != {t: expected.conjectured[t] for t in two_ks}:
            problems.append("conjectured rows differ from CONJECTURED_COUNTS")
        if _rows_by_two_k(rows, "actual") != {t: expected.reference[t] for t in two_ks}:
            problems.append("actual rows differ from REFERENCE_COUNTS")
        if any(r["match"] != (int(r["conjectured"]) == int(r["actual"])) for r in rows):
            problems.append("a match flag disagrees with its row")
        disproofs = record["results"]["disproofs"]
        first = disproofs[0] if disproofs else {}
        got = tuple(int(first.get(key, -1)) for key in ("k", "j", "conjectured", "actual"))
        if got != expected.first_disproof:
            problems.append(f"first disproof is {got}, want {expected.first_disproof}")
        return problems
    return check


def _check_mc(n: int, k: int, samples: int, seed: int):
    def check(out):
        record, problems = _record("mc", out)
        if record is None:
            return problems
        (row,) = record["results"]["rows"]
        if (row["n"], row["k"], row["samples"], row["seed"]) != (n, k, samples, seed):
            problems.append("row does not echo its request")
        if not abs(row["z"]) <= Z_LIMIT:
            problems.append(f"|z| = {abs(row['z']):g} > {Z_LIMIT:g}")
        return problems
    return check


def _cli_op(argv: list[str], check, core: bool = False) -> Op:
    return Op("unimoments " + " ".join(argv), lambda: run_cli(argv), check, core)


# ----------------------------------------------------------------- workloads

def _exact_table(rng: random.Random, tiny: bool, workers: int, expected: Expected) -> Workload:
    k_big, k_mid, k_poly = (4, 3, 7) if tiny else (8, 7, 11)
    w = str(workers)
    ops = [
        _cli_op(["count", "--k-range", f"1..{k_big}", "--workers", w],
                _check_count(expected, range(1, k_big + 1)), core=True),
        _cli_op(["count", "--k", str(k_mid), "--workers", "1"],
                _check_count(expected, [k_mid]), core=True),
        _cli_op(["count", "--k", str(k_mid), "--workers", w],
                _check_count(expected, [k_mid]), core=True),
    ]
    poly_ks = list(range(1, k_poly + 1))
    rng.shuffle(poly_ks)  # the seed only orders the poly calls; their total work is fixed
    ops += [_cli_op(["poly", "--k", str(k)], _check_poly(expected, k)) for k in poly_ks]
    ops.append(_cli_op(["conjecture", "--k-max", str(k_poly)],
                       _check_conjecture(expected, k_poly)))
    return Workload(ops, k_big=k_big, k_mid=k_mid)


def _validation_ops(rng: random.Random, tiny: bool, workers: int) -> list[Op]:
    k_max, dims, samples = (6, (2, 3, 4, 8), 1000 if tiny else 20000)
    seed = rng.randrange(1 << 31)
    reports = {}

    def call(w):
        def run():
            reports[w] = montecarlo.validate_against_exact(k_max, dims, samples, seed, workers=w)
            return reports[w]
        return run

    def check_single(report):
        return [] if report.passed else [f"report failed (max |z| = {report.max_abs_z:g})"]

    def check_parallel(report):
        problems = check_single(report)
        serial = reports.get(1)
        if serial is None or serial.entries != report.entries:
            problems.append(f"workers={workers} result is not bit-identical to workers=1")
        return problems

    label = f"validate_against_exact({k_max}, {dims}, {samples}, seed={seed}, workers="
    return [Op(label + "1)", call(1), check_single, core=True),
            Op(f"{label}{workers})", call(workers), check_parallel, core=True)]


def _mc_small_n(rng: random.Random, tiny: bool, workers: int, expected: Expected) -> Workload:
    samples = 1000 if tiny else 20000
    ops = []
    for n in (2, 4, 8):
        for k in (2, 4, 6):
            seed = rng.randrange(1 << 31)
            ops.append(_cli_op(["mc", "--n", str(n), "--k", str(k), "--samples", str(samples),
                                "--seed", str(seed)],
                               _check_mc(n, k, samples, seed), core=True))
    ops += _validation_ops(rng, tiny, workers)
    return Workload(ops)


def _mc_large_n(rng: random.Random, tiny: bool, workers: int, expected: Expected) -> Workload:
    calls = ((16, 4, 256), (32, 2, 128)) if tiny else ((64, 4, 2048), (128, 2, 512))
    ops = []
    for n, k, samples in calls:
        seed = rng.randrange(1 << 31)
        ops.append(_cli_op(["mc", "--n", str(n), "--k", str(k), "--samples", str(samples),
                            "--seed", str(seed)],
                           _check_mc(n, k, samples, seed), core=True))
    return Workload(ops)


def word_graph(word: list[str]) -> ColoredDigraph:
    """The cycle of tr(word): edge i runs i -> i+1, red for U and blue for U*."""
    length = len(word)
    return ColoredDigraph(length, tuple(
        (i, (i + 1) % length, Color.RED if letter == "U" else Color.BLUE)
        for i, letter in enumerate(word)
    ))


def pool_graph(entry: dict) -> ColoredDigraph:
    return ColoredDigraph(entry["vertices"], tuple(
        (tail, head, Color(color)) for tail, head, color in entry["edges"]
    ))


def _equals(want: Fraction):
    def check(value):
        return [] if value == want else [f"got {value}, want {want}"]
    return check


def _traffic_exact(rng: random.Random, tiny: bool, workers: int, expected: Expected) -> Workload:
    pool = expected.traffic["tiny" if tiny else "full"]
    n = expected.traffic["n"]
    cycle_k = 3 if tiny else 5
    brute_k, brute_n, brute_samples = (2, 3, 500) if tiny else (3, 4, 4000)

    def tau_op(label, g, want):
        return Op(f"tau_via_quotients({label}, {n})",
                  lambda: graphs.tau_via_quotients(g, n), _equals(want), core=True)

    word_ids = rng.sample(range(len(pool["words"])), 2)
    graph_id = rng.randrange(len(pool["graphs"]))
    ops = [tau_op(f"alternating {2 * cycle_k}-cycle", graphs.alternating_cycle(cycle_k),
                  expected.cycle_traffic(cycle_k, n))]
    for i in word_ids:
        entry = pool["words"][i]
        ops.append(tau_op(f"word #{i} {' '.join(entry['word'])}", word_graph(entry["word"]),
                          Fraction(entry["tau"])))
    entry = pool["graphs"][graph_id]
    ops.append(tau_op(f"graph #{graph_id}", pool_graph(entry), Fraction(entry["tau"])))

    brute_seed = rng.randrange(1 << 31)
    cycle = graphs.alternating_cycle(brute_k)
    exact = expected.cycle_traffic(brute_k, brute_n)

    def check_brute(result):
        mean, stderr = result
        if not (stderr > 0 and abs(mean - exact) <= Z_LIMIT * stderr):
            return [f"estimate {mean:.6g} +- {stderr:.3g} is not within "
                    f"{Z_LIMIT:g} standard errors of {exact}"]
        return []

    ops.append(Op(f"traffic_state_brute(alternating {2 * brute_k}-cycle, {brute_n}, "
                  f"{brute_samples}, seed={brute_seed})",
                  lambda: graphs.traffic_state_brute(cycle, brute_n, brute_samples, brute_seed,
                                                     with_stderr=True),
                  check_brute))
    return Workload(ops)


_BUILDERS = {
    "exact-table": _exact_table,
    "mc-small-n": _mc_small_n,
    "mc-large-n": _mc_large_n,
    "traffic-exact": _traffic_exact,
}


def build(name: str, seed: int, size: str, workers: int,
          expected: Expected | None = None) -> Workload:
    """The workload's operations, with every input drawn from ``seed``."""
    rng = random.Random(f"{name}:{seed}")
    return _BUILDERS[name](rng, size == "tiny", workers, expected or Expected.load())
