"""Keyed draws: the array path against one numpy generator per key."""

import subprocess
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from adamxlab import keyed

# 1, 2, 3, 4 and 5 uint32 words: the key (seed, t) then has 2 to 6 words,
# so the t word lands in the pool, in its last slot, or after it
SEEDS = [0, 3, 2**40 + 7, 2**70 + 3, 2**100 + 11, 2**130 + 3]
TS = np.array([1, 2, keyed.BLOCK - 1, keyed.BLOCK, keyed.BLOCK + 1,
               2**32 - 2, 2**32 - 1, 2**32, 2**32 + 1, 2**40])


def scalar_uniform(seed, ts, d):
    return np.array([np.random.default_rng((seed, int(t))).random(d) for t in ts])


def scalar_integers(seed, ts, n, k):
    return np.array([np.random.default_rng((seed, int(t))).integers(0, n, size=k)
                     for t in ts])


def test_self_check_passes_on_this_numpy():
    assert keyed.matches_numpy()


@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("d", [1, 3, 5])
def test_uniform_matches_numpy(seed, d):
    got = keyed.uniform(seed, TS, d)
    ref = scalar_uniform(seed, TS, d)
    assert got.dtype == ref.dtype and got.shape == (len(TS), d)
    np.testing.assert_array_equal(got, ref)
    # the array path alone, on the keys it handles
    small = TS[TS < 2**32]
    np.testing.assert_array_equal(keyed._vector_uniform(keyed._words(seed), small, d)[0],
                                  scalar_uniform(seed, small, d))


@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("n,k", [(200, 16), (200, 15), (7, 1), (2**32, 5), (1, 3)])
def test_integers_match_numpy(seed, n, k):
    got = keyed.integers(seed, TS, n, k)
    ref = scalar_integers(seed, TS, n, k)
    assert got.dtype == ref.dtype and got.shape == (len(TS), k)
    np.testing.assert_array_equal(got, ref)
    small = TS[TS < 2**32]
    values, rejected = keyed._vector_integers(keyed._words(seed), small, n, k)
    assert not rejected.any()
    np.testing.assert_array_equal(values, scalar_integers(seed, small, n, k))


@pytest.mark.parametrize("seed", [0, 2**70 + 3])
def test_rejected_rows_fall_back_to_the_scalar_generator(seed):
    # n = 2**31 + 1 rejects nearly half of all 32-bit draws, so most rows of
    # four draws cannot be reproduced by the array path
    n, ts = 2**31 + 1, np.arange(1, 201)
    _, rejected = keyed._vector_integers(keyed._words(seed), ts, n, 4)
    assert rejected.mean() > 0.8
    np.testing.assert_array_equal(keyed.integers(seed, ts, n, 4), scalar_integers(seed, ts, n, 4))


def test_invalid_keys_raise_as_numpy_does():
    with pytest.raises(ValueError):
        keyed.uniform(-1, [1], 2)
    with pytest.raises(ValueError):
        keyed.integers(0, [-1], 200, 16)


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 2**160), t=st.integers(0, 2**34), d=st.integers(1, 6),
       n=st.integers(1, 2**32), k=st.integers(1, 9))
def test_keyed_draws_match_numpy_property(seed, t, d, n, k):
    ts = [t, t + 1]
    np.testing.assert_array_equal(keyed.uniform(seed, ts, d), scalar_uniform(seed, ts, d))
    np.testing.assert_array_equal(keyed.integers(seed, ts, n, k),
                                  scalar_integers(seed, ts, n, k))


def test_self_check_detects_a_different_stream(monkeypatch):
    vector_uniform = keyed._vector_uniform

    def shifted(words, ts, d):
        values, rejected = vector_uniform(words, ts, d)
        return np.nextafter(values, 1.0), rejected

    monkeypatch.setattr(keyed, "_vector_uniform", shifted)
    assert not keyed.matches_numpy.__wrapped__()


def test_failed_self_check_draws_every_row_by_scalar_generator(monkeypatch):
    monkeypatch.setattr(keyed, "matches_numpy", lambda: False)
    made = []
    default_rng = np.random.default_rng

    def counting(*args):
        made.append(args)
        return default_rng(*args)

    monkeypatch.setattr(np.random, "default_rng", counting)
    ts = np.arange(5, 12)
    got_u = keyed.uniform(4, ts, 3)
    got_i = keyed.integers(4, ts, 200, 16)
    assert made == [((4, t),) for t in range(5, 12)] * 2
    monkeypatch.setattr(np.random, "default_rng", default_rng)
    np.testing.assert_array_equal(got_u, scalar_uniform(4, ts, 3))
    np.testing.assert_array_equal(got_i, scalar_integers(4, ts, 200, 16))


def test_self_check_is_lazy():
    # importing the package and building problems draws nothing, so the
    # self-check runs at the first block fill and not at start-up
    code = ("from adamxlab import keyed, quadratic_problem, toy_training_problem\n"
            "quadratic_problem(0, 5); toy_training_problem(0)\n"
            "assert keyed.matches_numpy.cache_info().currsize == 0\n"
            "quadratic_problem(0, 5).cost(1, __import__('numpy').zeros(5))\n"
            "assert keyed.matches_numpy.cache_info().currsize == 1\n")
    subprocess.run([sys.executable, "-c", code], check=True)


# ------------------------------------------------------------ KeyedTable

def test_table_fills_each_block_once_in_any_order(keyed_fills):
    table = keyed.KeyedTable(lambda ts: keyed.uniform(2, ts, 2))
    B = keyed.BLOCK
    order = [2 * B + 5, B, B - 1, 1, 2 * B + 5, B + 7]
    got = [table.row(t).copy() for t in order]
    assert keyed_fills == [(2 * B, B), (B, B), (0, B)]
    np.testing.assert_array_equal(np.array(got), scalar_uniform(2, order, 2))
    # a slice across the three filled blocks reads the same rows
    np.testing.assert_array_equal(table.rows(B - 1, 2 * B + 6),
                                  np.array([table.row(t) for t in range(B - 1, 2 * B + 6)]))
    assert keyed_fills == [(2 * B, B), (B, B), (0, B)]


@pytest.mark.parametrize("T", [1, keyed.BLOCK - 1, keyed.BLOCK, keyed.BLOCK + 1, 2 * keyed.BLOCK + 1])
def test_table_slice_equals_concatenated_rows(T):
    table = keyed.KeyedTable(lambda ts: keyed.integers(3, ts, 200, 16))
    np.testing.assert_array_equal(table.rows(1, T + 1).reshape(-1),
                                  np.concatenate([table.row(t) for t in range(1, T + 1)]))


@pytest.mark.parametrize("start, stop", [(1, 5001), (keyed.BLOCK - 1, keyed.BLOCK + 1),
                                         (3, 2 * keyed.BLOCK + 7)])
def test_a_request_across_blocks_draws_its_rows_once(keyed_fills, start, stop):
    table = keyed.KeyedTable(lambda ts: keyed.uniform(2, ts, 3))
    got = table.rows(start, stop).copy()
    assert keyed_fills == [(start, stop - start)]
    np.testing.assert_array_equal(got, scalar_uniform(2, range(start, stop), 3))
    # every row and slice inside it, in any order, is read from it
    inner = [start, stop - 1, keyed.BLOCK, (start + stop) // 2]
    for t in np.random.default_rng(stop).permutation(inner).tolist():
        np.testing.assert_array_equal(table.row(t), got[t - start])
    np.testing.assert_array_equal(table.rows(start + 1, stop), got[1:])
    np.testing.assert_array_equal(table.rows(start, stop - 1), got[:-1])
    np.testing.assert_array_equal(table.rows(start, stop), got)
    assert keyed_fills == [(start, stop - start)]
    # a row outside it fills its block, and the span still serves its rows
    outside = stop + keyed.BLOCK
    np.testing.assert_array_equal(table.row(outside), scalar_uniform(2, [outside], 3)[0])
    np.testing.assert_array_equal(table.rows(start, stop), got)
    assert len(keyed_fills) == 2


def test_row_order_does_not_change_a_value():
    # blocks first, then a request across them, or the request first: the
    # same rows either way, equal to one generator per key
    B = keyed.BLOCK
    ts = [B - 2, B - 1, B, B + 1, 2 * B + 3]
    expected = scalar_uniform(5, ts, 2)
    by_rows = keyed.KeyedTable(lambda ts: keyed.uniform(5, ts, 2))
    rows_first = [by_rows.row(t).copy() for t in ts]
    span = by_rows.rows(B - 2, 2 * B + 4)
    by_span = keyed.KeyedTable(lambda ts: keyed.uniform(5, ts, 2))
    span_first = by_span.rows(B - 2, 2 * B + 4)
    np.testing.assert_array_equal(np.array(rows_first), expected)
    np.testing.assert_array_equal(span, span_first)
    np.testing.assert_array_equal(np.array([by_span.row(t) for t in ts]), expected)


@pytest.mark.parametrize("start", [0, 5, keyed.BLOCK - 1, keyed.BLOCK, 2 * keyed.BLOCK])
def test_an_empty_request_returns_no_rows_of_the_row_shape(start):
    # on a block edge too, fresh or after a span across that edge was drawn
    fresh = keyed.KeyedTable(lambda ts: keyed.integers(3, ts, 200, 16))
    spanned = keyed.KeyedTable(lambda ts: keyed.integers(3, ts, 200, 16))
    spanned.rows(1, 2 * keyed.BLOCK + 1)
    for table in (fresh, spanned):
        for stop in (start, start - 1):
            empty = table.rows(start, stop)
            assert empty.shape == (0, 16) and empty.dtype == np.int64


def test_a_longer_request_draws_only_its_new_rows(keyed_fills):
    # a problem run at growing horizons: each request extends the span that
    # holds its start, so 9000 keys draw 9000 rows and one span keeps them
    table = keyed.KeyedTable(lambda ts: keyed.uniform(6, ts, 2))
    for start, stop in ((1, 5001), (1, 8001), (2, 9001)):
        np.testing.assert_array_equal(table.rows(start, stop),
                                      scalar_uniform(6, range(start, stop), 2))
    assert keyed_fills == [(1, 5000), (5001, 3000), (8001, 1000)]
    assert [(lo, hi) for lo, hi, _ in table.spans] == [(1, 9001)]
    # a block that the span partly holds draws only its other keys
    np.testing.assert_array_equal(table.row(9100), scalar_uniform(6, [9100], 2)[0])
    assert keyed_fills[3:] == [(9001, 3 * keyed.BLOCK - 9001)]
