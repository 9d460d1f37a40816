import math

import numpy as np
import pytest

import circhad.hadamard as hadamard
from circhad import (
    SignMatrix,
    admissible_negative_counts,
    c2c8_matrix,
    circulant_sign_matrix,
    gram,
    is_hadamard,
    is_regular,
    paf,
    paf_is_flat,
    quaternion_c2_matrix,
)
from circhad.constructions import FAMILIES, kronecker_extend, with_recovered_listing
from circhad.searchengine import _pykernel
from circhad.signs import masks_to_rows
from sign_reference import mask_to_signs

EQ1 = np.array([[1, 1, 1, -1], [-1, 1, 1, 1], [1, -1, 1, 1], [1, 1, -1, 1]])


def paf_oracle(row, s):
    # direct summation, independent of the library implementation
    m = len(row)
    return sum(row[k] * row[(k + s) % m] for k in range(m))


def test_gram_of_eq1_is_4I():
    assert np.array_equal(gram(EQ1), 4 * np.eye(4, dtype=np.int64))


def test_gram_of_all_ones_two_by_two():
    assert gram(np.ones((2, 2), dtype=int)).tolist() == [[2, 2], [2, 2]]


def test_gram_of_c2c8_display_is_16I():
    assert np.array_equal(gram(c2c8_matrix().matrix), 16 * np.eye(16, dtype=np.int64))


def test_gram_is_symmetric_with_diagonal_m():
    rng = np.random.default_rng(3)
    for m in (1, 2, 5, 8):
        arr = rng.choice([1, -1], (m, m))
        g = gram(arr)
        assert np.array_equal(g, g.T)
        assert np.all(np.diagonal(g) == m)


def test_is_hadamard_eq1():
    report = is_hadamard(EQ1)
    assert report.is_hadamard
    assert report.negatives_per_row == [1, 1, 1, 1]
    assert report.diagonal_values == {4}
    assert report.max_off_diagonal == 0


def test_is_hadamard_all_plus_false():
    report = is_hadamard(np.ones((4, 4), dtype=int))
    assert not report.is_hadamard
    assert report.max_off_diagonal == 4


def test_is_hadamard_row_swap_invariant():
    swapped = EQ1[[0, 1, 3, 2]]
    assert is_hadamard(swapped).is_hadamard


def test_is_hadamard_permutation_and_negation_invariance():
    rng = np.random.default_rng(5)
    base = c2c8_matrix().matrix.entries
    for _ in range(10):
        perm_r = rng.permutation(16)
        perm_c = rng.permutation(16)
        assert is_hadamard(base[np.ix_(perm_r, perm_c)]).is_hadamard
    assert is_hadamard(-base).is_hadamard


def test_is_hadamard_rejects_non_sign_entries():
    with pytest.raises(ValueError):
        is_hadamard(np.eye(4))


def test_paf_of_eq1_row():
    assert paf([1, 1, 1, -1]).tolist() == [4, 0, 0, 0]
    for s in range(4):
        assert paf([1, 1, 1, -1])[s] == paf_oracle([1, 1, 1, -1], s)


def test_paf_all_plus():
    assert paf([1, 1, 1, 1]).tolist() == [4, 4, 4, 4]


def test_paf_matches_oracle_on_random_rows():
    rng = np.random.default_rng(9)
    for m in (1, 2, 3, 7, 12):
        row = rng.choice([1, -1], m)
        got = paf(row)
        assert got[0] == m
        for s in range(m):
            assert got[s] == paf_oracle(list(row), s)


def test_paf_of_empty_row_is_empty():
    got = paf([])
    assert got.dtype == np.int64 and got.size == 0


def test_paf_refuses_a_row_that_is_not_1d():
    with pytest.raises(ValueError, match="1-D"):
        paf([[1, 1], [1, -1]])
    with pytest.raises(ValueError, match="1-D"):
        paf(1)


def autocorrelation_by_shift(x, s, wrap):
    # the definition: each product x[k] * x[(k+s) mod L] that wraps past the end is times wrap
    k = np.arange(len(x))
    return int(np.sum(x * x[(k + s) % len(x)] * np.where(k + s >= len(x), wrap, 1)))


# lags None asks for all L lags and keeps the ids "<length>-<wrap>";
# matching_report asks for n + 1 of its 2n
@pytest.mark.parametrize("length, wrap, lags", [
    pytest.param(length, wrap, lags, id=f"{length}-{wrap}" + (f"-{lags}" if lags else ""))
    for lags in (None, 1, "n+1") for wrap in (1, -1) for length in (1, 2, 3, 7, 15, 4096)])
def test_autocorrelation_matches_its_per_shift_definition(length, wrap, lags):
    x = np.random.default_rng(length).integers(-3, 4, length)
    if lags == "n+1":
        lags = length // 2 + 1
    got = hadamard._autocorrelation(x, wrap, lags)
    assert got.dtype == np.int64
    assert got.tolist() == [autocorrelation_by_shift(x, s, wrap) for s in range(lags or length)]


@pytest.mark.parametrize("m", [4, 8, 12])
def test_paf_flat_iff_gram_hadamard_exhaustive(m):
    # cross-oracle equivalence over the whole 2^m row space
    for mask in range(1 << m):
        row = mask_to_signs(mask, m)
        assert paf_is_flat(row) == is_hadamard(circulant_sign_matrix(row)).is_hadamard


@pytest.mark.parametrize("m", [4, 8, 12])
def test_circulant_gram_rows_are_shifted_paf_exhaustive(m):
    shifts = np.arange(m - 1, -1, -1, dtype=np.uint64)
    masks = np.arange(1 << m, dtype=np.uint64)
    rows = 1 - 2 * ((masks[:, None] >> shifts[None, :]) & 1).astype(np.int64)
    circ_idx = (np.arange(m)[None, :] - np.arange(m)[:, None]) % m
    pafs = np.stack([(rows * np.roll(rows, -s, axis=1)).sum(axis=1) for s in range(m)], axis=1)
    for start in range(0, len(rows), 2048):
        chunk = rows[start : start + 2048]
        circs = chunk[:, circ_idx]
        grams = circs @ circs.transpose(0, 2, 1)
        expected = np.stack(
            [np.roll(pafs[start : start + len(chunk)], i, axis=1) for i in range(m)], axis=1
        )
        assert np.array_equal(grams, expected)
    # anchor the vectorization to the public operations on a few rows
    rng = np.random.default_rng(m)
    for mask in rng.integers(0, 1 << m, 10):
        row = mask_to_signs(int(mask), m)
        g = gram(circulant_sign_matrix(row))
        p = paf(row)
        assert np.array_equal(p, pafs[mask])
        for i in range(m):
            assert np.array_equal(g[i], np.roll(p, i))


def int_gram_report(arr):
    # int64 reference for every field of the gram report
    arr = np.asarray(arr, dtype=np.int64)
    g = arr @ arr.T
    off = g[~np.eye(len(arr), dtype=bool)]
    return {
        "gram": g,
        "diagonal_values": set(np.diagonal(g).tolist()),
        "max_off_diagonal": int(np.abs(off).max()) if off.size else 0,
        "row_sums": arr.sum(axis=1).tolist(),
        "col_sums": arr.sum(axis=0).tolist(),
        "negatives_per_row": (arr == -1).sum(axis=1).tolist(),
    }


def c4_power(times):
    construction = with_recovered_listing(FAMILIES["c4"]())
    for _ in range(times):
        construction = kronecker_extend(construction, FAMILIES["c4"]())
    return construction.matrix.entries


@pytest.mark.parametrize("n", [1, 2, 3, 16, 64, 256, 2048])
def test_gram_is_exact_against_int64_reference(n):
    rng = np.random.default_rng(n)
    same_rows = np.tile(rng.choice([1, -1], n), (n, 1))
    cases = []
    if n <= 256:  # the int64 reference product takes too long at 2048
        cases = [rng.choice([1, -1], (n, n)) for _ in range(3)] + [same_rows]
    if n in (16, 64, 256):
        cases.append(c4_power({16: 1, 64: 2, 256: 3}[n]))
    for arr in cases:
        ref = int_gram_report(arr)
        g = gram(arr)
        assert g.dtype == np.int64
        assert np.array_equal(g, ref["gram"])
        report = is_hadamard(arr)
        assert report.is_hadamard == (ref["diagonal_values"] == {n} and ref["max_off_diagonal"] == 0)
        for name in ("diagonal_values", "max_off_diagonal", "row_sums", "col_sums",
                     "negatives_per_row"):
            assert getattr(report, name) == ref[name], name
    # identical rows: every off-diagonal entry is n, the largest a gram entry can be
    assert np.array_equal(gram(same_rows), np.full((n, n), n))
    report = is_hadamard(same_rows)
    assert report.max_off_diagonal == (n if n > 1 else 0)
    assert report.diagonal_values == {n}


def float64_gram_batch(masks, m):
    # the float64 product that the float32 one replaced
    bits = (masks[:, None] >> np.arange(m - 1, -1, -1, dtype=np.uint64)[None, :]) & 1
    circs = (1.0 - 2.0 * bits)[:, (np.arange(m)[None, :] - np.arange(m)[:, None]) % m]
    grams = circs @ circs.transpose(0, 2, 1)
    return np.all(grams == m * np.eye(m), axis=(1, 2))


@pytest.mark.parametrize("m", [16, 36, 64])
def test_gram_batch_agrees_with_float64_product(m):
    rng = np.random.default_rng(m)
    masks = rng.integers(0, 1 << m, 512, dtype=np.uint64)
    rows = masks_to_rows(masks, m)
    assert rows.dtype == np.int8
    assert rows.tolist() == [[1 - 2 * int(bit) for bit in format(int(mask), f"0{m}b")] for mask in masks]
    assert _pykernel.gram_hadamard_batch(masks, m).tolist() == float64_gram_batch(masks, m).tolist()


@pytest.mark.parametrize("m", range(1, 13))
def test_gram_batch_agrees_with_paf_on_every_row(m):
    masks = np.arange(1 << m, dtype=np.uint64)
    verdicts = _pykernel.gram_hadamard_batch(masks, m)
    assert verdicts.tolist() == [paf_is_flat(mask_to_signs(mask, m)) for mask in range(1 << m)]


def test_admissible_counts_order_4():
    assert admissible_negative_counts(4) == {1, 3}


def test_admissible_counts_order_16():
    assert admissible_negative_counts(16) == {(16 - 4) // 2, (16 + 4) // 2} == {6, 10}


def test_admissible_counts_order_12_empty():
    assert admissible_negative_counts(12) == set()


def test_admissible_counts_against_formula_up_to_100():
    for m in range(1, 101):
        counts = admissible_negative_counts(m)
        root = math.isqrt(m)
        if root * root == m:
            assert counts == {(m - root) // 2, (m + root) // 2}
        else:
            assert counts == set()


def test_is_regular_eq1():
    assert is_regular(EQ1)
    report = is_hadamard(EQ1)
    assert set(report.row_sums) == {2} and set(report.col_sums) == {2}


def test_is_regular_counterexample():
    assert not is_regular([[1, 1], [1, -1]])


def test_quaternion_display_is_regular():
    assert is_regular(quaternion_c2_matrix().matrix)


def test_sign_matrix_input_accepted():
    assert is_hadamard(SignMatrix(EQ1)).is_hadamard


@pytest.mark.parametrize("n", [1024, 2048])
@pytest.mark.parametrize("sign", [1, -1])
def test_report_sums_are_exact_on_constant_rows(n, sign):
    # int8 sums would wrap: n ones sum to 0 in int8 at n = 1024 and 2048
    arr = np.full((n, n), sign, dtype=np.int8)
    report = is_hadamard(arr)
    assert report.row_sums == [sign * n] * n
    assert report.col_sums == [sign * n] * n
    assert report.negatives_per_row == [n if sign < 0 else 0] * n
    assert report.diagonal_values == {n}
    assert report.max_off_diagonal == n
    assert is_regular(arr)
    g = gram(arr)
    assert g.dtype == np.int64
    assert int(g.min()) == int(g.max()) == n


def duplicate_row_cases(n):
    # A Hadamard matrix with row j replaced by +-row i: the gram's only
    # off-diagonal defect is the pair (i, j), so each case puts it in one place.
    base = c4_power({16: 1, 64: 2, 256: 3}[n])
    for i, j, sign in ((n - 2, n - 1, 1), (0, 1, -1), (0, n - 1, 1), (n // 2, n // 2 + 1, 1),
                       (3, n - 3, -1)):
        arr = base.copy()
        arr[j] = sign * arr[i]
        yield (i, j), arr
    yield None, base


@pytest.mark.parametrize("block", [1, 3, 5, 16, 64, 300])
def test_blocked_is_hadamard_equals_the_full_product(monkeypatch, block):
    monkeypatch.setattr(hadamard, "GRAM_BLOCK_ROWS", block)
    for n in (16, 64):
        for where, arr in duplicate_row_cases(n):
            ref = int_gram_report(arr)
            report = is_hadamard(arr)
            assert report.is_hadamard == (where is None), where
            for name in ("diagonal_values", "max_off_diagonal", "row_sums", "col_sums",
                         "negatives_per_row"):
                assert getattr(report, name) == ref[name], (where, name)


def test_blocked_is_hadamard_finds_a_defect_in_the_last_block_only():
    n = 256
    assert n > hadamard.GRAM_BLOCK_ROWS
    for where, arr in duplicate_row_cases(n):
        ref = int_gram_report(arr)
        report = is_hadamard(arr)
        assert report.max_off_diagonal == ref["max_off_diagonal"] == (0 if where is None else n)
        assert report.is_hadamard == (where is None)


def test_gram_batch_refuses_orders_beyond_int8():
    masks = np.zeros(1, dtype=np.uint64)
    assert _pykernel.gram_hadamard_batch(masks, 64).tolist() == [False]
    with pytest.raises(ValueError, match="order <= 127"):
        _pykernel.gram_hadamard_batch(masks, 128)
