"""Monte Carlo estimator tests: determinism, invariants, statistics."""

import math
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from unimoments import (
    ColoredDigraph,
    InternalCheckError,
    ScaleLimitError,
    alternating_cycle,
    estimate_moment,
    exact_moment,
    tau_via_quotients,
    validate_against_exact,
)
from unimoments import counting, montecarlo
from unimoments.sampling import unimodular_batch


class TestSampler:
    def test_unit_modulus(self):
        u = unimodular_batch(6, 3, 11, 1)[0]
        assert np.abs(np.abs(u) - 1.0).max() < 1e-12

    def test_bit_identical_for_fixed_key(self):
        a = unimodular_batch(4, 5, 9, 1)[0]
        b = unimodular_batch(4, 5, 9, 1)[0]
        assert (a == b).all()

    def test_distinct_indices_differ(self):
        a = unimodular_batch(4, 5, 9, 1)[0]
        b = unimodular_batch(4, 5, 10, 1)[0]
        c = unimodular_batch(4, 6, 9, 1)[0]
        assert not (a == b).all()
        assert not (a == c).all()

    def test_scalar_case(self):
        u = unimodular_batch(1, 0, 0, 1)[0]
        assert u.shape == (1, 1)
        assert abs(abs(u[0, 0]) - 1.0) < 1e-12

    def test_bad_arguments(self):
        with pytest.raises(ValueError, match="dimension"):
            unimodular_batch(0, seed=1, start=0, count=1)
        with pytest.raises(ValueError, match="index"):
            unimodular_batch(2, seed=1, start=-1, count=1)
        with pytest.raises(ValueError, match="count"):
            unimodular_batch(2, seed=1, start=0, count=-1)

    def test_seed_range(self):
        # -1 and 2^64 - 1 would share one stream if seeds wrapped mod 2^64
        unimodular_batch(2, seed=2**64 - 1, start=0, count=1)
        for seed in (-1, 2**64):
            with pytest.raises(ValueError, match="seed"):
                unimodular_batch(2, seed=seed, start=0, count=1)

    @pytest.mark.parametrize("argument", ["n", "seed", "start", "count"])
    def test_non_integer_arguments_refused(self, argument):
        # truncated, seed 1.5 would key the stream of seed 1
        arguments = {"n": 2, "seed": 1, "start": 0, "count": 1, argument: 1.5}
        with pytest.raises(TypeError):
            unimodular_batch(**arguments)


class TestStreamContract:
    """Sample i of dimension n is the uniforms [i n^2, (i+1) n^2) of Philox(key=seed)."""

    @settings(deadline=None, max_examples=150)
    @given(st.integers(1, 9), st.integers(0, 2**64 - 1), st.integers(0, 10**6),
           st.integers(0, 6))
    # odd n: a sample starts inside a four-word Philox block
    @example(n=3, seed=0, start=1, count=5)
    @example(n=5, seed=9, start=7, count=3)
    @example(n=1, seed=2**64 - 1, start=3, count=6)
    def test_batch_is_the_stack_of_samples(self, n, seed, start, count):
        batch = unimodular_batch(n, seed, start, count)
        assert batch.shape == (count, n, n)
        for i in range(count):
            assert (batch[i] == unimodular_batch(n, seed, start + i, 1)[0]).all()

    def test_golden_seed_zero(self):
        # derived from the raw stream alone: theta = 2 pi (raw >> 11) 2^-53
        n, samples = 3, 3
        raw = np.random.Philox(key=0).random_raw(samples * n * n)
        unit = (raw >> np.uint64(11)).astype(np.float64) * 2.0**-53
        want = np.exp(1j * (2.0 * np.pi * unit)).reshape(samples, n, n)
        for i in range(samples):
            assert (unimodular_batch(n, 0, i, 1)[0] == want[i]).all()
        assert (unimodular_batch(n, seed=0, start=0, count=samples) == want).all()


class TestPerSampleTraces:
    def test_traces_stay_in_range(self):
        traces = montecarlo._all_traces(4, (1, 2, 3), 600, seed=2, workers=1)
        assert traces.min() >= 0.0
        assert traces.max() <= 4.0

    def test_normalized_trace_is_reciprocal_dimension(self):
        # tr(rho) = 1/n holds per sample up to floating-point residue
        for n in (1, 2, 5):
            traces = montecarlo._all_traces(n, (1,), 300, seed=4, workers=1)
            assert np.abs(traces - 1.0 / n).max() < 1e-12

    def test_hermitian_drift_guard(self, monkeypatch):
        monkeypatch.setattr(montecarlo, "HERMITIAN_DRIFT_TOL", -1.0)
        with pytest.raises(InternalCheckError):
            montecarlo._all_traces(3, (1,), 200, seed=1, workers=1)

    def test_eigenvalue_floor_guard(self, monkeypatch):
        # every eigenvalue of rho is at most 1, so a floor of 2 must fire
        monkeypatch.setattr(montecarlo, "EIGENVALUE_FLOOR", 2.0)
        with pytest.raises(InternalCheckError, match="floor"):
            montecarlo._all_traces(3, (1,), 200, seed=1, workers=1)

    def test_default_floor_passes_the_scalar_case(self):
        # n = 1: rho = 1 in every sample
        traces = montecarlo._all_traces(1, (1, 2, 16), 200, seed=6, workers=1)
        assert np.abs(traces - 1.0).max() < 1e-12

    @pytest.mark.parametrize("above", [False, True])
    def test_floor_guard_fires_exactly_below_the_smallest_eigenvalue(self, monkeypatch, above):
        n, count, seed = 3, 40, 9
        u = unimodular_batch(n, seed, 0, count)
        smallest = np.linalg.eigvalsh(u @ u.conj().transpose(0, 2, 1) / n ** 2).min()
        monkeypatch.setattr(montecarlo, "EIGENVALUE_FLOOR", smallest + (1e-9 if above else -1e-9))
        if above:
            with pytest.raises(InternalCheckError, match="floor"):
                montecarlo._batch_traces(n, (1,), seed, 0, count)
        else:
            montecarlo._batch_traces(n, (1,), seed, 0, count)

    @pytest.mark.parametrize("n", [1, 2, 3, 8, 64])
    def test_traces_match_the_eigenvalue_oracle(self, n):
        powers = tuple(range(1, montecarlo.MAX_POWER + 1))
        count, seed = (8 if n == 64 else 60), 17
        traces = montecarlo._batch_traces(n, powers, seed, 0, count)
        u = unimodular_batch(n, seed, 0, count)
        eigenvalues = np.linalg.eigvalsh(u @ u.conj().transpose(0, 2, 1) / n ** 2)
        want = np.stack([(eigenvalues ** k).sum(axis=1) / n for k in powers], axis=1)
        np.testing.assert_allclose(traces, want, rtol=1e-12, atol=0.0)
        # a column does not depend on which other powers are asked for
        subset = montecarlo._batch_traces(n, (16, 5, 2), seed, 0, count)
        assert (subset == traces[:, [15, 4, 1]]).all()


def record_batches(monkeypatch, compute=True):
    """Replace _batch_traces by a local (unpicklable) wrapper; returns its calls."""
    calls = []
    original = montecarlo._batch_traces

    def recording(n, powers, seed, start, count):
        calls.append((start, count))
        if compute:
            return original(n, powers, seed, start, count)
        return np.zeros((count, len(powers)))

    monkeypatch.setattr(montecarlo, "_batch_traces", recording)
    return calls


class TestBatchLayout:
    # 3 and 64 lie outside the threaded dimensions, so they run one thread whatever is asked
    @pytest.mark.parametrize("n", [3, 5, 8, 64])
    @pytest.mark.parametrize("workers", [1, 2])
    def test_small_batches_are_bit_identical(self, monkeypatch, pool_widths, n, workers):
        powers, samples, seed = (1, 2, 5), 300, 21
        want = montecarlo._all_traces(n, powers, samples, seed, workers=1)
        monkeypatch.setattr(montecarlo, "_BATCH_ENTRIES", 37 * n * n)  # 37 samples a batch
        calls = record_batches(monkeypatch)
        got = montecarlo._all_traces(n, powers, samples, seed, workers=workers)
        assert len(calls) == 9
        assert (got == want).all()
        assert pool_widths[-1] == (workers if n in montecarlo.THREADED_DIMENSIONS else 1)

    def test_every_batch_runs_on_two_workers(self, monkeypatch, pool_widths):
        # at n = 5 a sample is 25 stream words, so samples straddle Philox blocks
        samples = montecarlo._BATCH * 2 + 100
        want = montecarlo._all_traces(5, (3,), samples, seed=7, workers=1)
        calls = record_batches(monkeypatch)
        got = montecarlo._all_traces(5, (3,), samples, seed=7, workers=2)
        assert sorted(calls) == [(0, 1024), (1024, 1024), (2048, 100)]
        assert (got == want).all()
        assert pool_widths == [1, 2]

    @pytest.mark.parametrize("n, size", [(1, 1024), (16, 1024), (17, 907), (64, 64), (128, 16),
                                         (256, 4)])
    def test_batches_are_bounded_by_entries(self, monkeypatch, n, size):
        calls = record_batches(monkeypatch, compute=False)
        traces = montecarlo._all_traces(n, (2,), 2 * size + 3, seed=0, workers=2)
        assert sorted(calls) == [(0, size), (size, size), (2 * size, 3)]
        assert traces.shape == (2 * size + 3, 1)

    # a 64 MiB budget holds each of these runs in one batch per dimension
    @pytest.mark.parametrize("run", [
        lambda: estimate_moment(64, 4, 300, seed=19),
        lambda: estimate_moment(128, 2, 100, seed=23),
        lambda: validate_against_exact(3, [17, 40], 1000, seed=29).entries,
    ], ids=["n64", "n128", "validate"])
    def test_budgets_give_bit_identical_results(self, monkeypatch, run):
        calls = record_batches(monkeypatch)
        want = run()
        split = len(calls)
        monkeypatch.setattr(montecarlo, "_BATCH_ENTRIES", 1 << 22)
        calls.clear()
        assert run() == want
        assert len(calls) < split

    def test_one_sample_per_batch_at_least(self, monkeypatch):
        monkeypatch.setattr(montecarlo, "_BATCH_ENTRIES", 1)
        calls = record_batches(monkeypatch, compute=False)
        montecarlo._all_traces(4, (2,), 3, seed=0, workers=1)
        assert calls == [(0, 1), (1, 1), (2, 1)]


MIB = 1 << 20


def traced_peak(call):
    """The result of ``call()`` and the peak of memory traced while it ran; numpy
    reports its buffers to tracemalloc."""
    tracemalloc.start()
    try:
        return call(), tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


class TestWorkingSet:
    def test_a_large_dimension_holds_small_batches(self):
        # 64 samples at n = 128 are 16 MiB as one complex128 stack
        _, peak = traced_peak(lambda: montecarlo._all_traces(128, (2,), 64, seed=0, workers=1))
        assert peak <= 20 * MIB

    def test_traces_are_held_once(self):
        traces, peak = traced_peak(lambda: montecarlo._all_traces(
            2, (1, 2, 3, 4, 5, 6), 200_000, seed=3, workers=None))
        assert peak <= 1.25 * traces.nbytes + 2 * MIB


def two_cycles(k):
    """Two disjoint alternating 2k-cycles: the graph of tr((U U*)^k)^2."""
    cycle = alternating_cycle(k)
    shift = cycle.vertex_count
    return ColoredDigraph(2 * shift, cycle.edges + tuple(
        (tail + shift, head + shift, color) for tail, head, color in cycle.edges))


class TestSpread:
    """The sample variance of tr(rho^k) against its exact value.

    A product of traces is the traffic state of a graph with several
    components (Male, arXiv:1111.4662), so E[tr(rho^k)^2] is n tau(two_cycles(k))
    / n^(4k+2), with tau = tau_via_quotients.  This checks the second-order
    law of the samples, which the means alone do not.
    """

    @staticmethod
    def exact_variance(k, n):
        second = tau_via_quotients(two_cycles(k), n) * n / Fraction(n) ** (4 * k + 2)
        return second - exact_moment(k, n) ** 2

    @pytest.mark.parametrize("n", [1, 2, 5])
    def test_deterministic_trace_has_no_variance(self, n):
        # tr(rho) = 1/n in every sample
        assert self.exact_variance(1, n) == 0

    @pytest.mark.parametrize("n", [2, 3, 4, 8])
    def test_sample_variance_matches_exact(self, n):
        powers, samples = tuple(range(2, 7)), 20_000
        traces = montecarlo._all_traces(n, powers, samples, seed=7, workers=None)
        for k, column in zip(powers, traces.T):
            variance = np.var(column, ddof=1)
            fourth = np.mean((column - column.mean()) ** 4)
            # the standard error of a sample variance, from the fourth central moment
            std_error = math.sqrt((fourth - variance ** 2) / samples)
            z = (variance - float(self.exact_variance(k, n))) / std_error
            assert abs(z) <= 4.0, (k, n, z)


class TestEstimateMoment:
    def test_deterministic_estimand_k1(self):
        est = estimate_moment(5, 1, 200, seed=0)
        assert est.mean == pytest.approx(0.2, abs=1e-12)
        assert est.std_error < 1e-12

    def test_scalar_dimension_all_mass_at_one(self):
        est = estimate_moment(1, 4, 150, seed=8)
        assert est.mean == pytest.approx(1.0, abs=1e-12)

    def test_repeatable(self):
        a = estimate_moment(3, 2, 500, seed=12)
        assert a == estimate_moment(3, 2, 500, seed=12)

    def test_worker_count_invariance(self, pool_widths):
        # 3 batches split across pools must give bit-identical results; at
        # n = 5 a sample is 25 stream words, so samples straddle Philox blocks
        samples = montecarlo._BATCH * 2 + 100
        for n in (4, 5):
            a = estimate_moment(n, 3, samples, seed=7, workers=1)
            b = estimate_moment(n, 3, samples, seed=7, workers=2)
            c = estimate_moment(n, 3, samples, seed=7)
            assert a == b == c
        assert pool_widths == [1, 2, 3] * 2

    def test_matches_exact_within_four_sigma(self):
        for n, k, exact in ((2, 2, 3 / 8), (3, 2, 45 / 243), (2, 3, 5 / 16)):
            est = estimate_moment(n, k, 20_000, seed=31)
            assert est.exact == exact
            assert est.z == (est.mean - exact) / est.std_error
            assert abs(est.z) <= 4.0

    def test_stderr_scales_like_inverse_sqrt_samples(self):
        small = estimate_moment(3, 3, 1000, seed=5)
        large = estimate_moment(3, 3, 4000, seed=5)
        ratio = small.std_error / large.std_error
        assert 2 / 1.5 <= ratio <= 2 * 1.5

    def test_preconditions(self):
        with pytest.raises(ValueError):
            estimate_moment(300, 2, 200, seed=0)
        with pytest.raises(ValueError):
            estimate_moment(2, 17, 200, seed=0)
        with pytest.raises(ValueError):
            estimate_moment(2, 2, 99, seed=0)
        for workers in (0, -1):
            with pytest.raises(ValueError, match="workers"):
                estimate_moment(4, 2, 200, seed=0, workers=workers)
        with pytest.raises(TypeError):
            estimate_moment(4, 2, 200, seed=0, workers=1.5)

    @pytest.mark.parametrize("n, k, seed", [(2.5, 13, 0), (2, 13.0, 0), (2, 13, 1.5)])
    def test_non_integer_inputs_refused_before_counting(self, no_sampling, no_counting,
                                                        n, k, seed):
        with pytest.raises(TypeError):
            estimate_moment(n, k, 400, seed=seed)


class TestZScore:
    def test_deterministic_floor(self):
        assert montecarlo._z_score(0.2, 0.0, 0.2) == 0.0
        assert montecarlo._z_score(0.2 + 5e-13, 1e-16, 0.2) == 0.0

    def test_regular_ratio(self):
        assert montecarlo._z_score(0.5, 0.1, 0.3) == pytest.approx(2.0)

    def test_zero_stderr_with_real_difference(self):
        assert montecarlo._z_score(1.0, 0.0, 0.5) == math.inf


class TestValidateAgainstExact:
    def test_small_sweep_passes(self):
        report = validate_against_exact(3, [2, 3], 4000, seed=13)
        assert report.passed
        assert len(report.entries) == 6

    def test_k1_rows_score_zero(self):
        report = validate_against_exact(2, [4], 500, seed=2)
        first = [e for e in report.entries if e.k == 1]
        assert first and all(e.z == 0.0 for e in first)

    def test_entries_carry_exact_values(self):
        report = validate_against_exact(2, [2], 400, seed=3)
        by_k = {e.k: e for e in report.entries}
        assert by_k[2].exact == pytest.approx(12 / 32)

    def test_invalid_k_max(self):
        with pytest.raises(ValueError):
            validate_against_exact(0, [2], 400, seed=1)

    @pytest.mark.parametrize("k_max, n_list, samples, seed, error, match", [
        (2, [2], 1, 1, ValueError, "samples"),
        (2, [2], 0, 1, ValueError, "samples"),
        (2, [2, 300], 400, 1, ValueError, "dimension"),
        (2, [0], 400, 1, ValueError, "dimension"),
        (17, [2], 400, 1, ValueError, "power"),
        (2, [], 400, 1, ValueError, "dimension"),
        (13, [2], 1000.5, 1, TypeError, "integer"),
        (13, [2, 2.5], 400, 1, TypeError, "integer"),
        (13, [2], 400, 1.5, TypeError, "integer"),
    ])
    def test_shares_the_input_guard(self, no_sampling, no_counting, k_max, n_list, samples,
                                    seed, error, match):
        with pytest.raises(error, match=match):
            validate_against_exact(k_max, n_list, samples, seed=seed)

    # at n >= k the cap of the exact value's search is k, which caps nothing
    @pytest.mark.parametrize("run", [
        lambda: estimate_moment(16, 12, 400, seed=1),
        lambda: validate_against_exact(12, [16], 400, seed=1),
    ], ids=["estimate_moment", "validate_against_exact"])
    def test_missing_exact_row_refused_before_sampling(self, no_sampling, tiny_layer_guard, run):
        with pytest.raises(ScaleLimitError):
            run()

    def test_exact_value_at_small_n_searches_below_the_guard(self, tiny_layer_guard):
        # capped at n = 2, the 2k = 24 search fits in the 10 states the whole row outgrows
        estimate = estimate_moment(2, 12, 400, seed=1)
        assert estimate.exact == math.comb(24, 12) / 4**12

    def test_each_power_is_searched_once(self, block_grid_calls):
        validate_against_exact(6, (2, 3, 4, 8), 100, seed=0)
        assert block_grid_calls == [(6, 6)]

    def test_exact_value_at_small_n_builds_no_row(self, monkeypatch, block_grid_calls):
        for name in ("count_ddcg_partitions", "count_ddcg_rows"):
            monkeypatch.setattr(counting, name, lambda k: pytest.fail("built a row"))
        estimate_moment(4, 16, 100, seed=0)
        assert block_grid_calls == [(16, 4)]

    def test_fewer_than_one_worker_refused(self, no_sampling):
        with pytest.raises(ValueError, match="workers"):
            validate_against_exact(2, [4], 400, seed=1, workers=0)

    @pytest.mark.parametrize("seed", [-1, 2**64])
    def test_seed_out_of_range_refused_before_counting(self, no_sampling, no_counting, seed):
        with pytest.raises(ValueError, match="seed"):
            estimate_moment(2, 12, 400, seed=seed)
        with pytest.raises(ValueError, match="seed"):
            validate_against_exact(12, [2], 400, seed=seed)

    def test_held_traces_are_bounded_before_sampling(self, no_sampling):
        bound = montecarlo.MAX_TRACES
        with pytest.raises(ScaleLimitError):
            estimate_moment(2, 2, bound + 1, seed=0)
        with pytest.raises(ScaleLimitError):
            validate_against_exact(6, [2, 3, 4, 8], bound // 6 + 1, seed=0)
        # the bound itself, the CLI's default and the benchmark's sweep pass
        montecarlo._check_inputs((2,), (2,), bound, 0, None)
        montecarlo._check_inputs((2,), (2,), 100_000, 0, None)
        montecarlo._check_inputs((2, 3, 4, 8), tuple(range(1, 7)), 20_000, 0, None)

    @pytest.mark.parametrize("n", [2, 3, 4])
    def test_first_computed_only_row(self, n):
        # 2k = 24 is the first row that no reference table holds
        assert abs(estimate_moment(n, 12, 20000, seed=3).z) <= 4.0
