"""CLI tests: payload content, schema validation, format parity, exit codes."""

import csv
import dataclasses
import io
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import jsonschema
import numpy as np
import pytest

from unimoments import cli, counting, graphs, montecarlo, polynomials

SRC = Path(__file__).resolve().parents[1] / "src"


def run_cli(capsys, *argv):
    code = cli.main(list(argv))
    out = capsys.readouterr().out
    return code, out


def run_json(capsys, *argv):
    code, out = run_cli(capsys, *argv)
    assert code == 0
    return json.loads(out)


def run_csv(capsys, *argv):
    code, out = run_cli(capsys, *argv, "--format", "csv")
    assert code == 0
    return list(csv.DictReader(io.StringIO(out)))


class TestCountCommand:
    def test_known_row(self, capsys):
        record = run_json(capsys, "count", "--k", "3")
        rows = {(r["two_k"], r["j"]): r["count"] for r in record["results"]["rows"]}
        assert rows[(6, 2)] == 19
        assert rows[(6, 3)] == 24

    def test_k1(self, capsys):
        record = run_json(capsys, "count", "--k", "1")
        assert [(r["two_k"], r["j"], r["count"]) for r in record["results"]["rows"]] == [
            (2, 1, 1),
            (2, 2, 1),
        ]

    def test_k_range(self, capsys):
        record = run_json(capsys, "count", "--k-range", "1..2")
        assert [r["two_k"] for r in record["results"]["rows"]] == [2, 2, 4, 4, 4]

    def test_k_range_emits_the_single_rows(self, capsys):
        single = []
        for k in range(1, 9):
            counting._cycle_grid.cache_clear()  # so that each row is its own search
            single += run_json(capsys, "count", "--k", str(k))["results"]["rows"]
        counting._cycle_grid.cache_clear()
        assert run_json(capsys, "count", "--k-range", "1..8")["results"]["rows"] == single

    def test_k_range_is_one_search(self, capsys, block_grid_calls):
        run_json(capsys, "count", "--k-range", "1..8")
        assert block_grid_calls == [(8, 8)]

    def test_k_range_from_past_one(self, capsys, block_grid_calls):
        rows = run_json(capsys, "count", "--k-range", "3..6")["results"]["rows"]
        assert block_grid_calls == [(6, 6)]
        whole = run_json(capsys, "count", "--k-range", "1..6")["results"]["rows"]
        assert rows == [r for r in whole if r["two_k"] >= 6]
        assert {r["two_k"] for r in rows} == {6, 8, 10, 12}

    def test_brute_agrees_with_search(self, capsys):
        base = run_json(capsys, "count", "--k", "3")
        brute = run_json(capsys, "count", "--k", "3", "--brute")
        assert base["results"]["rows"] == brute["results"]["rows"]

    def test_csv_projection_matches_json(self, capsys):
        record = run_json(capsys, "count", "--k", "3")
        rows = run_csv(capsys, "count", "--k", "3")
        flat = [(int(r["two_k"]), int(r["j"]), int(r["count"])) for r in rows]
        assert flat == [
            (r["two_k"], r["j"], int(r["count"])) for r in record["results"]["rows"]
        ]


class TestPolyCommand:
    def test_k6_monomial_coefficients(self, capsys):
        record = run_json(capsys, "poly", "--k", "6")
        monomial = [
            r["coefficient"]
            for r in record["results"]["rows"]
            if r["basis"] == "monomial"
        ]
        assert monomial == [0, -46, 262, -624, 772, -495, 132]

    def test_k2_both_bases(self, capsys):
        rows = run_csv(capsys, "poly", "--k", "2")
        values = {(r["basis"], int(r["j"])): int(r["coefficient"]) for r in rows}
        assert values[("pochhammer", 2)] == 5
        assert values[("monomial", 3)] == 2
        assert values[("monomial", 1)] == 0

    def test_large_k_uses_reference_row(self, capsys):
        record = run_json(capsys, "poly", "--k", "11")
        coeffs = {
            (r["basis"], r["j"]): r["coefficient"] for r in record["results"]["rows"]
        }
        assert coeffs[("pochhammer", 6)] == 23011155057
        # both bases must evaluate identically after the JSON round trip
        n = 9
        monomial = [int(coeffs[("monomial", j)]) for j in range(1, 13)]
        pochhammer = [int(coeffs[("pochhammer", j)]) for j in range(1, 13)]
        via_monomial = sum(c * n**j for j, c in enumerate(monomial, start=1))
        via_pochhammer = sum(
            c * math.perm(n, j) for j, c in enumerate(pochhammer, start=1)
        )
        assert via_monomial == via_pochhammer


class TestBigIntegerEncoding:
    def test_threshold(self):
        assert cli._encode(2**53) == 2**53
        assert cli._encode(2**53 + 1) == str(2**53 + 1)
        assert cli._encode(-(2**60)) == str(-(2**60))
        assert cli._encode(True) is True  # bools are not integers here

    def test_emitted_record_stringifies_large_counts(self):
        huge = 10**20
        buffer = io.StringIO()
        cli._emit_json(
            "count",
            {"k": [40]},
            {"rows": [{"two_k": 80, "j": 2, "count": huge}]},
            runtime_ms=1,
            out=buffer,
        )
        record = json.loads(buffer.getvalue())
        value = record["results"]["rows"][0]["count"]
        assert value == str(huge)
        jsonschema.validate(record, cli.OUTPUT_SCHEMAS["count"])


class TestConjectureCommand:
    def test_k_max_6_disproofs(self, capsys):
        record = run_json(capsys, "conjecture", "--k-max", "6")
        disproofs = [
            (d["k"], d["j"], d["conjectured"], d["actual"])
            for d in record["results"]["disproofs"]
        ]
        assert (6, 3, 10988, 11000) in disproofs
        assert all(k == 6 for k, *_ in disproofs)

    def test_k_max_5_empty(self, capsys):
        record = run_json(capsys, "conjecture", "--k-max", "5")
        assert record["results"]["disproofs"] == []
        assert all(r["match"] for r in record["results"]["rows"])

    def test_k_max_8_uses_reference_rows(self, capsys):
        record = run_json(capsys, "conjecture", "--k-max", "8")
        disproofs = {
            (d["k"], d["j"]): (d["conjectured"], d["actual"])
            for d in record["results"]["disproofs"]
        }
        assert disproofs[(8, 3)] == (559130, 566234)
        assert all("actual_source" not in r for r in record["results"]["rows"])

    def test_one_search(self, capsys, block_grid_calls):
        run_json(capsys, "conjecture", "--k-max", "8")
        assert block_grid_calls == [(8, 8)]

    @pytest.mark.parametrize("k_max", [1, 5, 6, 8])
    def test_each_prediction_built_once(self, capsys, monkeypatch, k_max):
        calls = []
        original = polynomials.conjectured_ftable

        def counted(k):
            calls.append(k)
            return original(k)

        monkeypatch.setattr(polynomials, "conjectured_ftable", counted)
        record = run_json(capsys, "conjecture", "--k-max", str(k_max))
        assert calls == list(range(1, k_max + 1))
        disproofs = [(d["k"], d["j"], d["conjectured"], d["actual"])
                     for d in record["results"]["disproofs"]]
        assert disproofs == polynomials.find_disproof(k_max)


class TestMcCommand:
    def test_deterministic_identity_case(self, capsys):
        record = run_json(capsys, "mc", "--n", "5", "--k", "1", "--samples", "100")
        (row,) = record["results"]["rows"]
        assert row["mean"] == pytest.approx(0.2, abs=1e-12)
        assert row["std_error"] <= 1e-12
        assert row["z"] == 0.0

    def test_estimate_within_four_sigma(self, capsys):
        record = run_json(
            capsys, "mc", "--n", "2", "--k", "3", "--samples", "20000", "--seed", "42"
        )
        (row,) = record["results"]["rows"]
        assert row["exact"] == pytest.approx(40 / 128)
        assert abs(row["mean"] - row["exact"]) <= 4 * row["std_error"]

    def test_repeat_run_identical_payload(self, capsys):
        first = run_json(capsys, "mc", "--n", "3", "--k", "2", "--samples", "500",
                         "--seed", "11")
        second = run_json(capsys, "mc", "--n", "3", "--k", "2", "--samples", "500",
                          "--seed", "11")
        for record in (first, second):
            record.pop("runtime_ms")  # wall-clock, the one non-payload field
        assert first == second

    def test_row_is_the_library_estimate(self, capsys):
        record = run_json(capsys, "mc", "--n", "3", "--k", "4", "--samples", "500",
                          "--seed", "11", "--workers", "1")
        (row,) = record["results"]["rows"]
        estimate = montecarlo.estimate_moment(3, 4, 500, seed=11)
        assert row == {"samples": 500, "seed": 11, **dataclasses.asdict(estimate)}


class TestStrictJson:
    @pytest.mark.parametrize("mean, text", [(0.5, "inf"), (0.125, "-inf")])
    def test_infinite_z_is_a_string(self, capsys, monkeypatch, mean, text):
        # constant traces away from the exact 3/8 give a zero standard error
        # with a real difference, which scores z = +-inf
        def constant(n, powers, samples, seed, workers):
            return np.full((samples, len(powers)), mean)

        monkeypatch.setattr(montecarlo, "_all_traces", constant)
        code, out = run_cli(capsys, "mc", "--n", "2", "--k", "2", "--samples", "100")
        assert code == 0

        def reject(name):
            raise ValueError(f"{name} is not valid JSON")

        record = json.loads(out, parse_constant=reject)
        jsonschema.validate(record, cli.OUTPUT_SCHEMAS["mc"])
        assert record["results"]["rows"][0]["z"] == text

    def test_schema_rejects_other_strings(self):
        row = {"n": 2, "k": 2, "samples": 100, "seed": 0, "mean": 0.5,
               "std_error": 0.0, "exact": 0.375, "z": "Infinity"}
        record = {"schema_version": cli.SCHEMA_VERSION, "command": "mc",
                  "parameters": {}, "results": {"rows": [row]}, "runtime_ms": 0}
        with pytest.raises(jsonschema.ValidationError):
            jsonschema.validate(record, cli.OUTPUT_SCHEMAS["mc"])


ONE_CALL_PER_COMMAND = [
    ("count", "--k", "2"),
    ("poly", "--k", "3"),
    ("conjecture", "--k-max", "6"),
    ("mc", "--n", "2", "--k", "1", "--samples", "100"),
]


class TestSchemas:
    @pytest.mark.parametrize("argv", ONE_CALL_PER_COMMAND)
    def test_json_output_validates(self, capsys, argv):
        record = run_json(capsys, *argv)
        jsonschema.validate(record, cli.OUTPUT_SCHEMAS[argv[0]])
        assert record["schema_version"] == cli.SCHEMA_VERSION
        assert record["command"] == argv[0]

    def test_module_entry_point(self):
        path = os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))
        result = subprocess.run([sys.executable, "-m", "unimoments", "count", "--k", "2"],
                                env={**os.environ, "PYTHONPATH": path},
                                capture_output=True, text=True, timeout=60)
        assert result.returncode == 0, result.stderr
        jsonschema.validate(json.loads(result.stdout), cli.OUTPUT_SCHEMAS["count"])

    @pytest.mark.parametrize("argv", ONE_CALL_PER_COMMAND)
    def test_csv_header_is_the_json_row_keys(self, capsys, argv):
        record = run_json(capsys, *argv)
        code, out = run_cli(capsys, *argv, "--format", "csv")
        assert code == 0
        header = next(csv.reader(io.StringIO(out)))
        assert all(list(row) == header for row in record["results"]["rows"])


class TestExitCodes:
    def test_usage_error_on_bad_flag(self, capsys):
        with pytest.raises(SystemExit) as exc:
            cli.main(["count", "--bogus"])
        assert exc.value.code == 2

    @pytest.mark.parametrize("argv", [["count", "--k", "0"], ["conjecture", "--k-max", "0"]],
                             ids=" ".join)
    def test_usage_error_on_bad_value(self, capsys, no_counting, argv):
        assert cli.main(argv) == 2

    @pytest.mark.parametrize("text, message", [
        ("7", "expected a..b"),
        ("a..b", "expected integer bounds"),
        ("5..3", "need 1 <= a <= b"),
    ])
    def test_usage_error_on_bad_k_range(self, capsys, no_counting, text, message):
        with pytest.raises(SystemExit) as exc:
            cli.main(["count", "--k-range", text])
        assert exc.value.code == 2
        assert message in capsys.readouterr().err

    def test_missing_subcommand(self, capsys):
        with pytest.raises(SystemExit) as exc:
            cli.main([])
        assert exc.value.code == 2

    def test_scale_refusal_for_brute(self, capsys):
        assert cli.main(["count", "--k", "7", "--brute"]) == 3

    @pytest.mark.parametrize("argv", [
        ["count", "--k-range", "1..7", "--brute"],
        ["count", "--k-range", "3..7", "--brute"],
        ["count", "--k-range", "1..1000000000", "--brute"],
        ["count", "--k", "1000000000", "--brute"],
    ], ids=" ".join)
    def test_brute_refused_before_it_counts(self, capsys, monkeypatch, argv):
        walked = []
        original = graphs.iter_partitions

        def recorded(n):
            walked.append(n)
            return original(n)

        def no_cycle(k):
            pytest.fail(f"built the {2 * k}-cycle")  # a billion-edge one would not finish

        monkeypatch.setattr(graphs, "iter_partitions", recorded)
        monkeypatch.setattr(graphs, "alternating_cycle", no_cycle)
        assert cli.main(argv) == 3
        assert walked == []

    def test_scale_refusal_beyond_reference(self, capsys, tiny_layer_guard):
        assert cli.main(["poly", "--k", "12"]) == 3

    def test_scale_refusal_for_layer_guard(self, capsys, tiny_layer_guard):
        assert cli.main(["count", "--k", "6"]) == 3

    @pytest.mark.parametrize("seed", ["-1", str(2**64)])
    def test_usage_error_on_seed_out_of_range(self, capsys, seed):
        argv = ["mc", "--n", "2", "--k", "2", "--samples", "100", "--seed", seed]
        assert cli.main(argv) == 2

    def test_missing_exact_row_refused_before_sampling(self, capsys, no_sampling,
                                                       tiny_layer_guard):
        assert cli.main(["mc", "--n", "64", "--k", "12", "--samples", "2048"]) == 3

    def test_first_computed_only_rows_succeed(self, capsys):
        record = run_json(capsys, "poly", "--k", "12")
        pochhammer = [int(r["coefficient"]) for r in record["results"]["rows"]
                      if r["basis"] == "pochhammer"]
        assert pochhammer[:3] == [1, 2704155, 1682760352]
        assert cli.main(["mc", "--n", "4", "--k", "12", "--samples", "2000"]) == 0

    @pytest.mark.parametrize("flags, code", [
        (["--samples", "10"], 2),
        (["--samples", "1000000000"], 3),
        (["--workers", "0"], 2),
        (["--k", "17"], 2),
        (["--seed", "-1"], 2),
        (["--seed", str(2**64)], 2),
    ])
    def test_mc_refuses_before_it_counts(self, capsys, no_counting, flags, code):
        assert cli.main(["mc", "--n", "2", "--k", "12", *flags]) == code

    @pytest.mark.parametrize("argv", [
        ["count", "--k", "17"],
        ["poly", "--k", "17"],
        ["conjecture", "--k-max", "17"],
        ["count", "--k-range", "1..1000000000"],
        ["conjecture", "--k-max", "1000000000"],
    ], ids=" ".join)
    def test_past_the_deepest_cycle_refused_before_anything_is_built(self, capsys, no_counting,
                                                                     argv):
        assert cli.main(argv) == 3
        assert "past k = 16" in capsys.readouterr().err

    def test_internal_failure_in_the_engine(self, capsys, one_block_too_many):
        assert cli.main(["count", "--k", "3"]) == 4

    def test_scale_refusal_for_samples(self, capsys, no_sampling):
        assert cli.main(["mc", "--n", "2", "--k", "2", "--samples", "1000000000"]) == 3

    def test_internal_failure(self, capsys, monkeypatch):
        monkeypatch.setattr(montecarlo, "HERMITIAN_DRIFT_TOL", -1.0)
        assert cli.main(["mc", "--n", "2", "--k", "1", "--samples", "100"]) == 4

    @pytest.mark.parametrize("argv", [["poly", "--k", "3"], ["conjecture", "--k-max", "3"]],
                             ids=["poly", "conjecture"])
    def test_internal_failure_in_the_basis_conversion(self, capsys, perm_off_by_one, argv):
        assert cli.main(argv) == 4


MC_ARGS = ("mc", "--n", "4", "--k", "2", "--seed", "3")


class TestWorkers:
    def test_request_capped_at_cpu_count(self, capsys, pool_widths):
        record = run_json(capsys, *MC_ARGS, "--samples", "5000", "--workers", "5000")
        assert "workers" not in record["parameters"]
        assert pool_widths == [4]

    def test_pool_no_wider_than_batches(self, capsys, pool_widths):
        run_json(capsys, *MC_ARGS, "--samples", "1500", "--workers", "4")  # 2 batches
        run_json(capsys, *MC_ARGS, "--samples", "1000", "--workers", "4")  # 1 batch
        assert pool_widths == [2, 1]

    # at n = 64 the width also sets the batch size: 32, 16 and 8 samples
    @pytest.mark.parametrize("n, samples, widths", [(4, 3000, [1, 2, 3]), (64, 300, [1, 2, 4])])
    def test_multiworker_payload_matches(self, capsys, pool_widths, n, samples, widths):
        args = ("mc", "--n", str(n), "--k", "2", "--seed", "3", "--samples", str(samples))
        one = run_json(capsys, *args, "--workers", "1")
        two = run_json(capsys, *args, "--workers", "2")
        unset = run_json(capsys, *args)
        assert one["results"] == two["results"] == unset["results"]
        assert pool_widths == widths

    @pytest.mark.parametrize("n, samples, workers, width", [
        (2, 3000, ["--workers", "4"], 3),  # one thread per batch at every dimension
        (64, 1100, ["--workers", "4"], 4),  # BLAS on one thread under the pool
        (8, 5000, [], 4),  # one thread per CPU ...
        (8, 1000, [], 2),  # ... and per batch
        (8, 3000, ["--workers", "1"], 1),
    ])
    def test_width_follows_the_dimension(self, capsys, pool_widths, n, samples, workers, width):
        run_json(capsys, "mc", "--n", str(n), "--k", "2", "--samples", str(samples), *workers)
        assert pool_widths == [width]

    @pytest.mark.parametrize("workers", ["0", "-1"])
    def test_fewer_than_one_worker_is_a_usage_error(self, capsys, pool_widths, workers):
        assert cli.main([*MC_ARGS, "--samples", "1000", "--workers", workers]) == 2
        assert pool_widths == []

    def test_count_accepts_and_ignores_workers(self, capsys):
        record = run_json(capsys, "count", "--k", "2", "--workers", "2")
        assert record["parameters"] == {"k": [2], "brute": False}

    @pytest.mark.parametrize("workers", ["0", "-3"])
    def test_count_refuses_fewer_than_one_worker(self, capsys, workers):
        assert cli.main(["count", "--k", "2", "--workers", workers]) == 2

    @pytest.mark.parametrize("argv", [("poly", "--k", "2"), ("conjecture", "--k-max", "2")])
    def test_other_commands_reject_workers(self, capsys, argv):
        with pytest.raises(SystemExit) as exc:
            cli.main([*argv, "--workers", "2"])
        assert exc.value.code == 2
