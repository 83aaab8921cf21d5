"""Monte Carlo estimator tests: determinism, invariants, statistics."""

import math
import sys
import threading
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
    ValidationReport,
    alternating_cycle,
    estimate_moment,
    exact_moment,
    tau_via_quotients,
    validate_against_exact,
)
from unimoments import counting, montecarlo
from unimoments.sampling import ROOTS, _table, unimodular_batch


class TestSampler:
    def test_unit_modulus(self):
        u = unimodular_batch(6, 3, 11, 1)[0]
        assert np.abs(np.abs(u) - 1.0).max() <= 2.0**-50

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
        assert abs(abs(u[0, 0]) - 1.0) <= 2.0**-50

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

    def test_a_given_buffer_gives_the_same_bits(self):
        # odd n and start: the batch starts inside a 32-byte Philox block
        n, seed, start, count = 3, 4, 7, 5
        want = unimodular_batch(n, seed, start, count)
        out = np.full((count, n, n), np.nan, dtype=np.complex128)
        got = unimodular_batch(n, seed, start, count, out)
        assert got is out
        assert (got == want).all()

    @pytest.mark.parametrize("out", [
        np.empty((2, 3, 3)),  # not complex
        np.empty((3, 3, 3), dtype=np.complex128),  # another count
        np.empty((2, 3, 6), dtype=np.complex128)[:, :, ::2],  # not contiguous
        np.empty((2, 9), dtype=np.complex128),  # another shape
    ])
    def test_unfit_buffers_refused(self, out):
        with pytest.raises(ValueError, match="buffer"):
            unimodular_batch(3, 1, 0, 2, out)

    def test_empty_batch(self):
        assert unimodular_batch(3, 1, 5, 0).shape == (0, 3, 3)


class TestStreamContract:
    """Sample i of dimension n is the bytes [i n^2, (i+1) n^2) of Philox(key=seed)."""

    @settings(deadline=None, max_examples=150)
    @given(st.integers(1, 9), st.integers(0, 2**64 - 1), st.integers(0, 10**6),
           st.integers(0, 6))
    # odd n: a sample starts inside a 32-byte Philox block, and inside a word
    @example(n=3, seed=0, start=1, count=5)
    @example(n=5, seed=9, start=7, count=3)
    @example(n=1, seed=2**64 - 1, start=3, count=6)
    def test_batch_is_the_stack_of_samples(self, n, seed, start, count):
        batch = unimodular_batch(n, seed, start, count)
        assert batch.shape == (count, n, n)
        for i in range(count):
            assert (batch[i] == unimodular_batch(n, seed, start + i, 1)[0]).all()

    def test_golden_seed_zero(self):
        # derived from the raw stream alone: byte e of the words, least significant
        # byte first, picks exp(2 pi i byte / 256) for entry e
        n, samples = 3, 3
        raw = np.random.Philox(key=0).random_raw(4)  # 32 bytes cover 27 entries
        stream = [(int(word) >> (8 * b)) & 0xFF for word in raw for b in range(8)]
        want = _table()[stream[:samples * n * n]].reshape(samples, n, n)
        for i in range(samples):
            assert (unimodular_batch(n, 0, i, 1)[0] == want[i]).all()
        assert (unimodular_batch(n, seed=0, start=0, count=samples) == want).all()

    # n = 3 puts samples at every byte offset within a word and a 32-byte Philox
    # block, and a 9-byte sample straddles words
    @pytest.mark.parametrize("start", range(16))
    def test_a_sample_has_the_same_bits_at_every_lane(self, start):
        n = 3
        alone = [unimodular_batch(n, 5, start + i, 1)[0] for i in range(3)]
        for count in (1, 2, 3):
            batch = unimodular_batch(n, 5, start, count)
            for i in range(count):
                assert (batch[i] == alone[i]).all()


LONG_DOUBLE_IS_WIDE = np.finfo(np.longdouble).eps <= 1e-18


class TestLaw:
    """Entries are uniform 256th roots of unity, whose moments E[z^m] match the
    circle's for 0 < |m| < 256."""

    def test_every_moment_below_the_order_vanishes(self):
        table = _table()
        for m in (*range(-ROOTS + 1, 0), *range(1, ROOTS)):
            assert abs((table ** m).sum()) <= 1e-10, m

    def test_the_order_itself_does_not(self):
        assert abs((_table() ** ROOTS).sum() - ROOTS) <= 1e-10

    def test_the_estimands_stay_below_the_order(self):
        # an entry's net exponent is at most k in tr(rho^k), and 2k in the variance
        # behind the standard error
        assert 2 * montecarlo.MAX_POWER < ROOTS

    def test_every_byte_value_is_drawn(self):
        entries = unimodular_batch(8, 2, 0, 64).ravel()
        assert set(entries.tolist()) == set(_table().tolist())


@pytest.mark.skipif(not LONG_DOUBLE_IS_WIDE, reason="needs an extended long double")
class TestAccuracy:
    def test_table_within_2_to_the_minus_50(self):
        pi = np.longdouble("3.14159265358979323846264338327950288")
        theta = 2 * pi * np.arange(ROOTS, dtype=np.longdouble) / ROOTS
        table = _table()
        assert table.shape == (ROOTS,) and table[0] == 1.0
        assert np.abs(table.real - np.cos(theta)).max() <= 2.0**-50
        assert np.abs(table.imag - np.sin(theta)).max() <= 2.0**-50


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

    # n = 2, 3 and 4 check the floor over the stack, n = 8 through LAPACK
    @pytest.mark.parametrize("n", [2, 3, 4, 8])
    @pytest.mark.parametrize("above", [False, True])
    def test_floor_guard_fires_exactly_below_the_smallest_eigenvalue(self, monkeypatch, n, above):
        count, seed = 40, 9
        u = unimodular_batch(n, seed, 0, count)
        smallest = np.linalg.eigvalsh(u @ u.conj().transpose(0, 2, 1) / n ** 2).min()
        monkeypatch.setattr(montecarlo, "EIGENVALUE_FLOOR", smallest + (1e-9 if above else -1e-9))
        workspace = montecarlo._Workspace(n, count)
        if above:
            with pytest.raises(InternalCheckError, match="floor"):
                montecarlo._batch_traces(n, (1,), seed, 0, count, workspace)
        else:
            montecarlo._batch_traces(n, (1,), seed, 0, count, workspace)

    @pytest.mark.parametrize("n", [2, 4, 8])
    def test_a_gram_product_without_its_conjugate_trips_the_drift_guard(self, monkeypatch, n):
        # u u^T is symmetric, not Hermitian; only the first batch's Gram product is broken
        count, seed, original, calls = 40, 9, montecarlo._product, []

        def without_conjugate(a, b, out, terms):
            calls.append(terms is not None)
            return original(a, np.conjugate(b) if len(calls) == 1 else b, out, terms)

        monkeypatch.setattr(montecarlo, "_product", without_conjugate)
        with pytest.raises(InternalCheckError, match="drift"):
            montecarlo._batch_traces(n, (1,), seed, 0, count, montecarlo._Workspace(n, count))
        assert calls == [n <= montecarlo.STACKED_MAX]

    # a NaN anywhere in rho makes the drift NaN, which the drift guard refuses on both
    # paths, though numpy's OpenBLAS Cholesky would accept it
    @pytest.mark.parametrize("n", [2, 4, 8])
    @pytest.mark.parametrize("entry", [(0, 0), (0, 1), (1, 0)])
    def test_a_nan_in_rho_trips_the_drift_guard(self, monkeypatch, n, entry):
        count, seed, original = 40, 9, montecarlo._product

        def planting_nan(a, b, out, terms):
            original(a, b, out, terms)
            out[count // 2][entry] = np.nan
            return out

        monkeypatch.setattr(montecarlo, "_product", planting_nan)
        with pytest.raises(InternalCheckError, match="drift nan"):
            montecarlo._batch_traces(n, (1,), seed, 0, count, montecarlo._Workspace(n, count))

    @pytest.mark.parametrize("n", [1, 2, 3, 4, 8, 64])
    def test_traces_match_the_eigenvalue_oracle(self, n):
        powers = tuple(range(1, montecarlo.MAX_POWER + 1))
        count, seed = (8 if n == 64 else 60), 17
        workspace = montecarlo._Workspace(n, count)
        traces = montecarlo._batch_traces(n, powers, seed, 0, count, workspace)
        u = unimodular_batch(n, seed, 0, count)
        eigenvalues = np.linalg.eigvalsh(u @ u.conj().transpose(0, 2, 1) / n ** 2)
        want = np.stack([(eigenvalues ** k).sum(axis=1) / n for k in powers], axis=1)
        np.testing.assert_allclose(traces, want, rtol=1e-12, atol=0.0)
        # a column does not depend on which other powers are asked for
        subset = montecarlo._batch_traces(n, (16, 5, 2), seed, 0, count, workspace)
        assert (subset == traces[:, [15, 4, 1]]).all()


def hermitian_stack(n, count, smallest, seed):
    """``count`` random Hermitian n x n matrices, each with one eigenvalue
    ``smallest`` and the rest in [0.1, 1]."""
    rng = np.random.default_rng(seed)
    gaussian = rng.normal(size=(count, n, n)) + 1j * rng.normal(size=(count, n, n))
    q = np.linalg.qr(gaussian)[0]
    eigenvalues = rng.uniform(0.1, 1.0, size=(count, n))
    eigenvalues[:, 0] = smallest
    return (q * eigenvalues[:, None, :]) @ q.conj().transpose(0, 2, 1)


def lapack_accepts(stack):
    try:
        np.linalg.cholesky(stack)
    except np.linalg.LinAlgError:
        return False
    return True


class TestStackedKernels:
    """Up to STACKED_MAX, products and the floor check are numpy arithmetic over the
    stack; they must agree with np.matmul and np.linalg.cholesky."""

    SMALL = range(1, montecarlo.STACKED_MAX + 1)

    @pytest.mark.parametrize("n", SMALL)
    @pytest.mark.parametrize("count", [50, 7, 1])  # a full batch and short ones
    def test_product_equals_matmul(self, n, count):
        rng = np.random.default_rng(n)
        a, b = (rng.normal(size=(count, n, n)) + 1j * rng.normal(size=(count, n, n))
                for _ in range(2))
        terms = montecarlo._Workspace(n, 50).terms[:count]
        got = montecarlo._product(a, b, np.empty_like(a), terms)
        # rtol 1e-14 of the bound |a| |b| on each entry's rounding error
        assert (np.abs(got - a @ b) <= 1e-14 * (np.abs(a) @ np.abs(b))).all()

    def test_product_has_its_terms_stack_only_where_stacked(self):
        assert montecarlo._Workspace(montecarlo.STACKED_MAX, 3).terms.shape[0] == 3
        assert montecarlo._Workspace(montecarlo.STACKED_MAX + 1, 3).terms is None

    # the check's input is rho - floor * I: an eigenvalue just above or below the floor
    # is one just above or below 0
    @pytest.mark.parametrize("n", SMALL)
    @pytest.mark.parametrize("margin", [1e-9, -1e-9])
    def test_floor_check_agrees_with_lapack(self, n, margin):
        count = 30
        stack = hermitian_stack(n, count, margin, seed=n)
        terms = montecarlo._Workspace(n, count).terms
        for matrix in stack:
            want = lapack_accepts(matrix)
            assert want == (margin > 0)
            assert montecarlo._positive_definite(matrix[None].copy(), terms[:1]) == want
        # one matrix below the floor refuses the whole stack
        mixed = hermitian_stack(n, count, 1e-9, seed=n)
        mixed[count // 2] = stack[count // 2]
        assert montecarlo._positive_definite(mixed.copy(), terms) == lapack_accepts(mixed)

    # numpy's OpenBLAS accepts a NaN pivot (it tests only <= 0), so this asserts what
    # reference LAPACK does: refuse a NaN in the lower triangle or the real diagonal,
    # the entries a Cholesky reads
    @pytest.mark.parametrize("n", SMALL)
    @pytest.mark.parametrize("part", ["real", "imag"])
    def test_a_nan_that_a_cholesky_reads_is_refused(self, n, part):
        count = 3
        terms = montecarlo._Workspace(n, count).terms
        for i in range(n):
            for j in range(n):
                stack = hermitian_stack(n, count, 0.1, seed=7)
                getattr(stack, part)[1, i, j] = np.nan
                read = j < i or (i == j and part == "real")
                assert montecarlo._positive_definite(stack, terms) == (not read)

    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 8])
    def test_blas_and_lapack_only_above_the_stacked_dimensions(self, monkeypatch, n):
        calls = []

        def recording(name, real):
            def call(*args, **kwargs):
                calls.append(name)
                return real(*args, **kwargs)
            return call

        monkeypatch.setattr(np, "matmul", recording("matmul", np.matmul))
        monkeypatch.setattr(np.linalg, "cholesky", recording("cholesky", np.linalg.cholesky))
        count = 20
        montecarlo._batch_traces(n, (1, 2, 5), 3, 0, count, montecarlo._Workspace(n, count))
        # one Gram product, two power products and one floor check
        assert calls == ([] if n <= montecarlo.STACKED_MAX
                         else ["matmul", "cholesky", "matmul", "matmul"])


def record_batches(monkeypatch, compute=True):
    """Replace _batch_traces by a local (unpicklable) wrapper; returns its calls."""
    calls = []
    original = montecarlo._batch_traces

    def recording(n, powers, seed, start, count, workspace):
        calls.append((start, count))
        if compute:
            return original(n, powers, seed, start, count, workspace)
        return np.zeros((count, len(powers)))

    monkeypatch.setattr(montecarlo, "_batch_traces", recording)
    return calls


class TestBatchLayout:
    # 2 lies below the threaded dimensions, so it runs one thread whatever is asked; up
    # to 4 the products and the floor check are stacked arithmetic
    @pytest.mark.parametrize("n", [2, 3, 4, 5, 8, 64])
    @pytest.mark.parametrize("workers", [1, 2])
    def test_small_batches_are_bit_identical(self, monkeypatch, pool_widths, n, workers):
        powers, samples, seed = (1, 2, 5), 300, 21
        width = workers if n >= montecarlo.THREADED_FROM else 1
        want = montecarlo._all_traces(n, powers, samples, seed, workers=1)
        # the budget covers every batch in flight: 37 samples a batch
        monkeypatch.setattr(montecarlo, "_BATCH_ENTRIES", 37 * n * n * width)
        calls = record_batches(monkeypatch)
        got = montecarlo._all_traces(n, powers, samples, seed, workers=workers)
        assert len(calls) == 9
        assert (got == want).all()
        assert pool_widths[-1] == width

    # at n = 5 a sample is 25 stream words, so samples straddle Philox blocks; n = 4 is
    # the largest stacked dimension
    @pytest.mark.parametrize("n", [4, 5])
    def test_every_batch_runs_on_two_workers(self, monkeypatch, pool_widths, n):
        samples = montecarlo._BATCH * 2 + 100
        want = montecarlo._all_traces(n, (3,), samples, seed=7, workers=1)
        calls = record_batches(monkeypatch)
        got = montecarlo._all_traces(n, (3,), samples, seed=7, workers=2)
        assert sorted(calls) == [(0, 1024), (1024, 1024), (2048, 100)]
        assert (got == want).all()
        assert pool_widths == [1, 2]

    # the budget bounds the batches in flight together: on two threads each holds half
    @pytest.mark.parametrize("workers, n, size", [
        *((1, n, size) for n, size in [(1, 1024), (11, 1024), (12, 910), (64, 32), (128, 8),
                                       (256, 2)]),
        *((2, n, size) for n, size in [(1, 1024), (8, 1024), (9, 809), (16, 256), (64, 16),
                                       (128, 4), (256, 1)]),
    ])
    def test_batches_are_bounded_by_entries(self, monkeypatch, pool_widths, workers, n, size):
        calls = record_batches(monkeypatch, compute=False)
        traces = montecarlo._all_traces(n, (2,), 2 * size + 1, seed=0, workers=workers)
        assert sorted(calls) == [(0, size), (size, size), (2 * size, 1)]
        assert traces.shape == (2 * size + 1, 1)
        assert pool_widths == [workers if n >= montecarlo.THREADED_FROM else 1]

    # from n = 65 on, einsum summed a one-sample batch to other bits than a larger one
    @pytest.mark.parametrize("n", [64, 65, 128, 200])
    def test_a_one_sample_batch_is_bit_identical(self, monkeypatch, pool_widths, n):
        powers, seed = (2, 3, 4), 13
        samples = montecarlo._BATCH_ENTRIES // (2 * n * n) + 1
        want = montecarlo._all_traces(n, powers, samples, seed, workers=1)  # one batch
        calls = record_batches(monkeypatch)
        got = montecarlo._all_traces(n, powers, samples, seed, workers=2)
        assert sorted(calls)[-1] == (samples - 1, 1)
        assert (got == want).all()
        assert pool_widths == [1, 2]

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

    @pytest.mark.parametrize("workers", [1, 2])
    def test_each_thread_builds_one_workspace(self, monkeypatch, pool_widths, workers):
        n, powers, samples, seed = 64, (2, 3), 100, 3
        want = montecarlo._all_traces(n, powers, samples, seed, workers=1)
        sizes = []

        class RecordingWorkspace(montecarlo._Workspace):
            def __init__(self, n, size):
                sizes.append(size)
                super().__init__(n, size)

        monkeypatch.setattr(montecarlo, "_Workspace", RecordingWorkspace)
        monkeypatch.setattr(montecarlo, "_BATCH_ENTRIES", 10 * n * n * workers)
        calls = record_batches(monkeypatch)
        got = montecarlo._all_traces(n, powers, samples, seed, workers=workers)
        assert len(calls) == 10
        assert 1 <= len(sizes) <= workers and set(sizes) == {10}
        assert pool_widths[-1] == workers
        assert (got == want).all()

    # a workspace holds the previous batch's arrays, and a short batch its leading slices
    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 64, 65])
    @pytest.mark.parametrize("short", [1, 3])
    def test_a_short_batch_in_a_used_workspace_is_bit_identical(self, n, short):
        powers, seed, size = (1, 2, 3, 4, 5), 8, 5
        workspace = montecarlo._Workspace(n, size)
        montecarlo._batch_traces(n, powers, seed, 0, size, workspace)
        got = montecarlo._batch_traces(n, powers, seed, size, short, workspace)
        fresh = montecarlo._batch_traces(n, powers, seed, size, short,
                                         montecarlo._Workspace(n, short))
        assert (got == fresh).all()

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
    # 64 samples at n = 128 are 16 MiB as one complex128 stack; two threads share the
    # budget of one, so they hold no more
    @pytest.mark.parametrize("workers", [1, 2])
    def test_a_large_dimension_holds_small_batches(self, pool_widths, workers):
        _, peak = traced_peak(
            lambda: montecarlo._all_traces(128, (2,), 64, seed=0, workers=workers))
        assert pool_widths == [workers]
        assert peak <= 20 * MIB

    def test_traces_are_held_once(self):
        traces, peak = traced_peak(lambda: montecarlo._all_traces(
            2, (1, 2, 3, 4, 5, 6), 200_000, seed=3, workers=None))
        assert peak <= 1.25 * traces.nbytes + 2 * MIB


@pytest.fixture
def blas_threads():
    """The getter of numpy's BLAS thread count, set to 2 for the test and restored after."""
    if montecarlo._BLAS_THREADS is None:
        pytest.skip("no BLAS thread setter was found")
    get_threads, set_threads = montecarlo._BLAS_THREADS
    before = get_threads()
    set_threads(2)
    if get_threads() != 2:
        set_threads(before)
        pytest.skip("this BLAS runs one thread at most")
    yield get_threads
    set_threads(before)


class TestOneBlasThread:
    def test_setter_is_found_on_openblas(self):
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]["name"]
        if "openblas" not in blas.lower():
            pytest.skip(f"numpy is built on {blas}")
        assert montecarlo._BLAS_THREADS is not None

    @pytest.mark.parametrize("n, workers", [(3, 1), (64, 1), (64, 2)])
    def test_every_batch_runs_on_one_blas_thread(self, monkeypatch, blas_threads, n, workers):
        counts = []
        original = montecarlo._batch_traces

        def recording(*args):
            counts.append(blas_threads())
            return original(*args)

        monkeypatch.setattr(montecarlo, "_BATCH_ENTRIES", 20 * n * n)
        monkeypatch.setattr(montecarlo, "_batch_traces", recording)
        montecarlo._all_traces(n, (2,), 100, seed=0, workers=workers)
        assert counts == [1] * len(counts) and len(counts) >= 5
        assert blas_threads() == 2

    def test_count_is_restored_after_a_failed_batch(self, monkeypatch, blas_threads):
        monkeypatch.setattr(montecarlo, "HERMITIAN_DRIFT_TOL", -1.0)
        with pytest.raises(InternalCheckError):
            montecarlo._all_traces(64, (1,), 100, seed=1, workers=2)
        assert blas_threads() == 2

    def test_overlapping_contexts_restore_the_first_count(self, blas_threads):
        # two contexts that overlap without nesting, as two concurrent calls would
        first, second = montecarlo._one_blas_thread(), montecarlo._one_blas_thread()
        first.__enter__()
        second.__enter__()
        first.__exit__(None, None, None)
        assert blas_threads() == 1
        second.__exit__(None, None, None)
        assert blas_threads() == 2

    def test_concurrent_contexts_lose_no_count(self, blas_threads):
        # eight threads on two cores, switching often: a lost update of the depth
        # would restore the count under an open context, or never restore it
        inside = []

        def enter_often():
            for _ in range(1000):
                with montecarlo._one_blas_thread():
                    inside.append(blas_threads())

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=enter_often) for _ in range(8)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=30)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert inside == [1] * 8000
        assert blas_threads() == 2

    def test_without_a_setter_results_are_unchanged(self, monkeypatch):
        want = montecarlo._all_traces(64, (2, 3), 100, seed=5, workers=2)
        monkeypatch.setattr(montecarlo, "_BLAS_THREADS", None)
        assert (montecarlo._all_traces(64, (2, 3), 100, seed=5, workers=2) == want).all()


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

    def test_an_empty_report_is_refused(self):
        # with nothing in it a report would pass; validate_against_exact never builds
        # one, since it refuses k_max < 1 and no dimension
        with pytest.raises(ValueError, match="at least one"):
            ValidationReport(())

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
