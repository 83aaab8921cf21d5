"""Command-line front end emitting machine-readable moment data.

Four subcommands: ``count`` (balanced-quotient counts), ``poly`` (moment
polynomials in both bases), ``conjecture`` (Borel-triangle prediction vs
actual, with the mismatch list), and ``mc`` (Monte Carlo estimate with a
z-score against the exact value).

JSON is the canonical format; every record carries schema_version, command,
parameters, results, and runtime_ms.  CSV is a flat projection of the same
rows.  Integers larger than 2^53 are emitted as decimal strings in JSON so
double-precision consumers cannot corrupt them, and infinite floats (the
z-score of a zero standard error) as the strings "inf" and "-inf", so every
record is strict JSON.  Exit codes: 0 success, 2 usage error, 3 scale
refusal, 4 internal numerical check failure.
"""

from __future__ import annotations

import argparse
import csv
import json
import math
import sys
import time

from . import counting, montecarlo, polynomials
from .errors import InternalCheckError, ScaleLimitError

__all__ = ["main", "OUTPUT_SCHEMAS", "SCHEMA_VERSION"]

SCHEMA_VERSION = "4"
JSON_SAFE_INT = 1 << 53

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_SCALE = 3
EXIT_INTERNAL = 4

_INT_OR_STRING = {"type": ["integer", "string"]}
_NUMBER_OR_INFINITY = {"anyOf": [{"type": "number"}, {"enum": ["inf", "-inf"]}]}


def _envelope_schema(results: dict) -> dict:
    return {
        "type": "object",
        "required": ["schema_version", "command", "parameters", "results", "runtime_ms"],
        "properties": {
            "schema_version": {"type": "string"},
            "command": {"type": "string"},
            "parameters": {"type": "object"},
            "results": results,
            "runtime_ms": {"type": "integer", "minimum": 0},
        },
    }


def _rows_schema(item_properties: dict) -> dict:
    return {
        "type": "object",
        "required": ["rows"],
        "properties": {
            "rows": {
                "type": "array",
                "items": {
                    "type": "object",
                    "required": sorted(item_properties),
                    "properties": item_properties,
                },
            }
        },
    }


OUTPUT_SCHEMAS: dict[str, dict] = {
    "count": _envelope_schema(_rows_schema({
        "two_k": {"type": "integer"},
        "j": {"type": "integer"},
        "count": _INT_OR_STRING,
    })),
    "poly": _envelope_schema(_rows_schema({
        "k": {"type": "integer"},
        "basis": {"enum": ["pochhammer", "monomial"]},
        "j": {"type": "integer"},
        "coefficient": _INT_OR_STRING,
    })),
    "conjecture": _envelope_schema({
        "type": "object",
        "required": ["rows", "disproofs"],
        "properties": {
            "rows": {
                "type": "array",
                "items": {
                    "type": "object",
                    "required": ["two_k", "j", "conjectured", "actual", "match"],
                    "properties": {
                        "two_k": {"type": "integer"},
                        "j": {"type": "integer"},
                        "conjectured": _INT_OR_STRING,
                        "actual": _INT_OR_STRING,
                        "match": {"type": "boolean"},
                    },
                },
            },
            "disproofs": {
                "type": "array",
                "items": {
                    "type": "object",
                    "required": ["k", "j", "conjectured", "actual"],
                    "properties": {
                        "k": {"type": "integer"},
                        "j": {"type": "integer"},
                        "conjectured": _INT_OR_STRING,
                        "actual": _INT_OR_STRING,
                    },
                },
            },
        },
    }),
    "mc": _envelope_schema(_rows_schema({
        "n": {"type": "integer"},
        "k": {"type": "integer"},
        "samples": {"type": "integer"},
        "seed": {"type": "integer"},
        "mean": {"type": "number"},
        "std_error": {"type": "number"},
        "exact": {"type": "number"},
        "z": _NUMBER_OR_INFINITY,
    })),
}


def _encode(value):
    if isinstance(value, float) and math.isinf(value):
        return "inf" if value > 0 else "-inf"
    if isinstance(value, bool) or not isinstance(value, int):
        return value
    return value if abs(value) <= JSON_SAFE_INT else str(value)


def _parse_k_range(text: str) -> tuple[int, int]:
    lo, sep, hi = text.partition("..")
    if not sep:
        raise argparse.ArgumentTypeError("expected a..b")
    try:
        a, b = int(lo), int(hi)
    except ValueError as exc:
        raise argparse.ArgumentTypeError("expected integer bounds") from exc
    if a < 1 or b < a:
        raise argparse.ArgumentTypeError("need 1 <= a <= b")
    return a, b


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="unimoments",
        description="Exact and Monte Carlo spectral moments of the squared "
                    "unimodular ensemble.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p):
        p.add_argument("--format", choices=["json", "csv"], default="json")
        p.add_argument("--workers", type=int, default=None,
                       help="at most this many threads for mc, which picks its own "
                            "count from --n; other commands accept and ignore it")

    p_count = sub.add_parser("count", help="balanced-quotient counts F(2k, j)")
    group = p_count.add_mutually_exclusive_group(required=True)
    group.add_argument("--k", type=int)
    group.add_argument("--k-range", type=_parse_k_range, metavar="A..B")
    p_count.add_argument("--brute", action="store_true",
                         help="use the partition-lattice oracle instead of the engine")
    add_common(p_count)

    p_poly = sub.add_parser("poly", help="moment polynomial Q_k in both bases")
    p_poly.add_argument("--k", type=int, required=True)
    add_common(p_poly)

    p_conj = sub.add_parser("conjecture",
                            help="Borel-triangle prediction vs actual counts")
    p_conj.add_argument("--k-max", type=int, required=True)
    add_common(p_conj)

    p_mc = sub.add_parser("mc", help="Monte Carlo moment estimate vs exact")
    p_mc.add_argument("--n", type=int, required=True)
    p_mc.add_argument("--k", type=int, required=True)
    p_mc.add_argument("--samples", type=int, default=100_000)
    p_mc.add_argument("--seed", type=int, default=0)
    add_common(p_mc)

    return parser


def _cmd_count(args):
    if args.k is not None:
        ks = [args.k]
    else:
        lo, hi = args.k_range
        ks = list(range(lo, hi + 1))
    rows = []
    for k in ks:
        row = counting.count_brute(k) if args.brute else counting.count_ddcg_partitions(k)
        rows.extend(
            {"two_k": 2 * k, "j": j, "count": c}
            for j, c in enumerate(row, start=1)
        )
    parameters = {"k": ks, "brute": args.brute}
    return parameters, {"rows": rows}, ["two_k", "j", "count"]


def _cmd_poly(args):
    poly = polynomials.moment_polynomial(args.k, polynomials.ftable_row(args.k))
    rows = [
        {"k": args.k, "basis": "pochhammer", "j": j, "coefficient": c}
        for j, c in enumerate(poly.pochhammer_coeffs, start=1)
    ] + [
        {"k": args.k, "basis": "monomial", "j": j, "coefficient": c}
        for j, c in enumerate(poly.monomial_coeffs, start=1)
    ]
    return {"k": args.k}, {"rows": rows}, ["k", "basis", "j", "coefficient"]


def _cmd_conjecture(args):
    if args.k_max < 1:
        raise ValueError("--k-max must be >= 1")
    rows = []
    for k in range(1, args.k_max + 1):
        actual = polynomials.ftable_row(k)
        predicted = polynomials.conjectured_ftable(k)
        rows.extend(
            {"two_k": 2 * k, "j": j, "conjectured": p, "actual": a, "match": p == a}
            for j, (p, a) in enumerate(zip(predicted, actual), start=1)
        )
    disproofs = [
        {"k": k, "j": j, "conjectured": p, "actual": a}
        for k, j, p, a in polynomials.find_disproof(args.k_max)
    ]
    parameters = {"k_max": args.k_max}
    return parameters, {"rows": rows, "disproofs": disproofs}, \
        ["two_k", "j", "conjectured", "actual", "match"]


def _cmd_mc(args):
    exact = float(polynomials.exact_moment(args.k, args.n))  # refuse before sampling
    estimate = montecarlo.estimate_moment(args.n, args.k, args.samples,
                                          args.seed, workers=args.workers)
    z = montecarlo.z_score(estimate.mean, estimate.std_error, exact)
    row = {"n": args.n, "k": args.k, "samples": args.samples, "seed": args.seed,
           "mean": estimate.mean, "std_error": estimate.std_error,
           "exact": exact, "z": z}
    parameters = {"n": args.n, "k": args.k, "samples": args.samples, "seed": args.seed}
    return parameters, {"rows": [row]}, list(row)


_COMMANDS = {
    "count": _cmd_count,
    "poly": _cmd_poly,
    "conjecture": _cmd_conjecture,
    "mc": _cmd_mc,
}


def _emit_json(command, parameters, results, runtime_ms, out):
    def encode_rows(rows):
        return [{key: _encode(value) for key, value in row.items()} for row in rows]

    encoded = {key: encode_rows(value) if isinstance(value, list) else value
               for key, value in results.items()}
    record = {
        "schema_version": SCHEMA_VERSION,
        "command": command,
        "parameters": parameters,
        "results": encoded,
        "runtime_ms": runtime_ms,
    }
    json.dump(record, out, indent=2, allow_nan=False)
    out.write("\n")


def _emit_csv(results, fieldnames, out):
    writer = csv.DictWriter(out, fieldnames=fieldnames)
    writer.writeheader()
    for row in results["rows"]:
        writer.writerow(row)


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    started = time.perf_counter()
    try:
        parameters, results, fieldnames = _COMMANDS[args.command](args)
    except ScaleLimitError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_SCALE
    except InternalCheckError as exc:
        print(f"internal error: {exc}", file=sys.stderr)
        return EXIT_INTERNAL
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    runtime_ms = int((time.perf_counter() - started) * 1000)
    if args.format == "csv":
        _emit_csv(results, fieldnames, sys.stdout)
    else:
        _emit_json(args.command, parameters, results, runtime_ms, sys.stdout)
    return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
