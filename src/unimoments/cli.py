"""Command-line front end emitting machine-readable moment data.

Four subcommands: ``count`` (balanced-quotient counts), ``poly`` (moment
polynomials in both bases), ``conjecture`` (Borel-triangle prediction vs
actual, with the mismatch list), and ``mc`` (Monte Carlo estimate with a
z-score against the exact value).

JSON is the canonical format; every record carries schema_version, command,
parameters, results, and runtime_ms.  CSV is a flat projection of the same
rows.  Integers larger than 2^53 are emitted as decimal strings in JSON so
double-precision consumers cannot corrupt them.  The z-score is always a
finite number: samples that all read one value off the exact one can only
come from a fault, and exit 4.  Exit codes: 0 success, 2 usage error, 3 scale
refusal, 4 internal numerical check failure.
"""

from __future__ import annotations

import argparse
import csv
import json
import sys
import time

from . import counting, montecarlo, polynomials
from .errors import InternalCheckError, ScaleLimitError

__all__ = ["main", "OUTPUT_SCHEMAS", "SCHEMA_VERSION"]

SCHEMA_VERSION = "5"
JSON_SAFE_INT = 1 << 53

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_SCALE = 3
EXIT_INTERNAL = 4

_INTEGER = {"type": "integer"}
_INT_OR_STRING = {"type": ["integer", "string"]}
_NUMBER = {"type": "number"}

# The arrays in each command's results, each a map from its fields, in CSV
# column order, to their JSON types.  The "rows" array is the CSV projection.
_COLUMNS: dict[str, dict[str, dict]] = {
    "count": {
        "rows": {"two_k": _INTEGER, "j": _INTEGER, "count": _INT_OR_STRING},
    },
    "poly": {
        "rows": {"k": _INTEGER, "basis": {"enum": ["pochhammer", "monomial"]},
                 "j": _INTEGER, "coefficient": _INT_OR_STRING},
    },
    "conjecture": {
        "rows": {"two_k": _INTEGER, "j": _INTEGER, "conjectured": _INT_OR_STRING,
                 "actual": _INT_OR_STRING, "match": {"type": "boolean"}},
        "disproofs": {"k": _INTEGER, "j": _INTEGER, "conjectured": _INT_OR_STRING,
                      "actual": _INT_OR_STRING},
    },
    "mc": {
        "rows": {"n": _INTEGER, "k": _INTEGER, "samples": _INTEGER, "seed": _INTEGER,
                 "mean": _NUMBER, "std_error": _NUMBER, "exact": _NUMBER, "z": _NUMBER},
    },
}


def _record_schema(arrays: dict[str, dict[str, dict]]) -> dict:
    results = {
        "type": "object",
        "required": list(arrays),
        "properties": {
            name: {
                "type": "array",
                "items": {"type": "object", "required": list(columns), "properties": columns},
            }
            for name, columns in arrays.items()
        },
    }
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


OUTPUT_SCHEMAS: dict[str, dict] = {
    command: _record_schema(arrays) for command, arrays in _COLUMNS.items()
}


def _encode(value):
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

    def command(name, run, help):
        p = sub.add_parser(name, help=help)
        p.set_defaults(run=run)
        return p

    p_count = command("count", _cmd_count, "balanced-quotient counts F(2k, j)")
    group = p_count.add_mutually_exclusive_group(required=True)
    group.add_argument("--k", type=int)
    group.add_argument("--k-range", type=_parse_k_range, metavar="A..B")
    p_count.add_argument("--brute", action="store_true",
                         help="use the partition-lattice oracle instead of the engine")
    p_count.add_argument("--workers", type=int, default=None,
                         help="accepted and ignored; must be >= 1")

    p_poly = command("poly", _cmd_poly, "moment polynomial Q_k in both bases")
    p_poly.add_argument("--k", type=int, required=True)

    p_conj = command("conjecture", _cmd_conjecture, "Borel-triangle prediction vs actual counts")
    p_conj.add_argument("--k-max", type=int, required=True)

    p_mc = command("mc", _cmd_mc, "Monte Carlo moment estimate vs exact")
    p_mc.add_argument("--n", type=int, required=True)
    p_mc.add_argument("--k", type=int, required=True)
    p_mc.add_argument("--samples", type=int, default=100_000)
    p_mc.add_argument("--seed", type=int, default=0)
    p_mc.add_argument("--workers", type=int, default=None,
                      help="at most this many threads (default: one per CPU, never more than "
                           "the batches); BLAS is held to one thread while they run")

    for p in sub.choices.values():
        p.add_argument("--format", choices=["json", "csv"], default="json")
    return parser


def _cmd_count(args):
    if args.workers is not None and args.workers < 1:
        raise ValueError("workers must be >= 1")
    lo, hi = args.k_range or (args.k, args.k)
    ks = range(lo, hi + 1)
    # deepest first: the oracle refuses a row past its ceiling before any smaller row is walked
    counts = ([counting.count_brute(k) for k in reversed(ks)][::-1] if args.brute
              else counting.count_ddcg_rows(hi)[lo - 1:])
    rows = [
        {"two_k": 2 * k, "j": j, "count": c}
        for k, row in zip(ks, counts)
        for j, c in enumerate(row, start=1)
    ]
    return {"k": list(ks), "brute": args.brute}, {"rows": rows}


def _cmd_poly(args):
    row = counting.count_ddcg_partitions(args.k)
    rows = [
        {"k": args.k, "basis": basis, "j": j, "coefficient": c}
        for basis, coeffs in (("pochhammer", row),
                              ("monomial", polynomials.pochhammer_to_monomial(row)))
        for j, c in enumerate(coeffs, start=1)
    ]
    return {"k": args.k}, {"rows": rows}


def _cmd_conjecture(args):
    actual = counting.count_ddcg_rows(args.k_max)
    rows = [
        {"two_k": 2 * k, "j": j, "conjectured": p, "actual": a, "match": p == a}
        for k, row in enumerate(actual, start=1)
        for j, (p, a) in enumerate(zip(polynomials.conjectured_ftable(k), row), start=1)
    ]
    disproofs = [
        {"k": row["two_k"] // 2, "j": row["j"], "conjectured": row["conjectured"],
         "actual": row["actual"]}
        for row in rows if not row["match"]
    ]
    return {"k_max": args.k_max}, {"rows": rows, "disproofs": disproofs}


def _cmd_mc(args):
    estimate = montecarlo.estimate_moment(args.n, args.k, args.samples, args.seed,
                                          workers=args.workers)
    parameters = {"n": args.n, "k": args.k, "samples": args.samples, "seed": args.seed}
    row = {**parameters, "mean": estimate.mean, "std_error": estimate.std_error,
           "exact": estimate.exact, "z": estimate.z}
    return parameters, {"rows": [row]}


def _emit_json(command, parameters, results, runtime_ms, out):
    encoded = {name: [{key: _encode(value) for key, value in row.items()} for row in rows]
               for name, rows in results.items()}
    record = {
        "schema_version": SCHEMA_VERSION,
        "command": command,
        "parameters": parameters,
        "results": encoded,
        "runtime_ms": runtime_ms,
    }
    json.dump(record, out, indent=2, allow_nan=False)
    out.write("\n")


def _emit_csv(command, results, out):
    writer = csv.DictWriter(out, fieldnames=list(_COLUMNS[command]["rows"]))
    writer.writeheader()
    writer.writerows(results["rows"])


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    started = time.perf_counter()
    try:
        parameters, results = args.run(args)
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
        _emit_csv(args.command, results, sys.stdout)
    else:
        _emit_json(args.command, parameters, results, runtime_ms, sys.stdout)
    return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
