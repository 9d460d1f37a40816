"""Acceptance suite: one test per criterion, each printing a pass line with its
runtime. Run as `pytest tests/test_acceptance.py -v -s`."""

import json
import math
import time

import numpy as np

import circhad.searchengine as engine
from circhad import (
    SearchConfig,
    admissible_negative_counts,
    assemble_block_matrix,
    block_system,
    c2c2_matrix,
    c2c8_matrix,
    circulant_c4,
    circulant_from_row,
    circulant_sign_matrix,
    conditions_report,
    cyclic_group,
    is_hadamard,
    is_regular,
    is_rg_matrix,
    kronecker_extend,
    matching_report,
    natural_listing,
    paf_is_flat,
    paired_listing,
    quaternion_c2_matrix,
    recover_listing,
    relist,
    rg_matrix,
    rg_sign_matrix,
    row_from_blocks,
    search,
    with_recovered_listing,
)
from circhad.groups import Listing
from sign_reference import mask_to_signs

EQ1 = np.array([[1, 1, 1, -1], [-1, 1, 1, 1], [1, -1, 1, 1], [1, 1, -1, 1]])
BLOCKED = np.array([[1, 1, 1, -1], [1, 1, -1, 1], [-1, 1, 1, 1], [1, -1, 1, 1]])


def _report(criterion: int, elapsed: float, limit: float, detail: str) -> None:
    print(f"criterion {criterion}: PASS ({elapsed:.3f}s, limit {limit:g}s) - {detail}")
    assert elapsed < limit, f"criterion {criterion} exceeded its {limit}s budget ({elapsed:.3f}s)"


def _all_rows(m: int) -> np.ndarray:
    masks = np.arange(1 << m, dtype=np.uint64)
    shifts = np.arange(m - 1, -1, -1, dtype=np.uint64)
    bits = (masks[:, None] >> shifts[None, :]) & 1
    return 1 - 2 * bits.astype(np.int64)


def _batch_gram_flags(rows: np.ndarray, m: int, chunk: int = 4096) -> np.ndarray:
    circ_idx = (np.arange(m)[None, :] - np.arange(m)[:, None]) % m
    target = m * np.eye(m, dtype=np.int64)
    flags = np.empty(len(rows), dtype=bool)
    for start in range(0, len(rows), chunk):
        circs = rows[start : start + chunk][:, circ_idx]
        grams = circs @ circs.transpose(0, 2, 1)
        flags[start : start + len(circs)] = np.all(grams == target, axis=(1, 2))
    return flags


def test_criterion_01_eq1_round_trip():
    w = circulant_from_row([1, 1, 1, -1])
    nat = natural_listing(w.group)
    paired = Listing(w.group, [0, 2, 1, 3])

    def round_trip():
        matrix = rg_sign_matrix(w, nat)
        assert np.array_equal(matrix.entries, EQ1)
        assert is_hadamard(matrix).is_hadamard
        assert np.array_equal(relist(matrix, nat, paired).entries, BLOCKED)

    round_trip()  # warm-up
    elapsed = min(_timed(round_trip) for _ in range(5))
    _report(1, elapsed, 1e-3, "rg-matrix reproduces the 4x4 circulant and its blocked relisting")


def _timed(fn) -> float:
    start = time.perf_counter()
    fn()
    return time.perf_counter() - start


def test_criterion_02_admissible_negative_counts():
    start = time.perf_counter()
    assert admissible_negative_counts(4) == {1, 3}
    assert admissible_negative_counts(16) == {6, 10}
    for m in range(1, 101):
        if math.isqrt(m) ** 2 != m:
            assert admissible_negative_counts(m) == set()
    for construction in (c2c8_matrix(), quaternion_c2_matrix()):
        entries = construction.matrix.entries
        assert set((entries == -1).sum(axis=1)) == {6}
        assert set((entries == -1).sum(axis=0)) == {6}
    _report(2, time.perf_counter() - start, 1.0,
            "count formula on orders 1..100; both 16x16 displays have 6 negatives per line")


def test_criterion_03_order_4_census():
    start = time.perf_counter()
    # independent oracle: gram sweep over all 2^4 rows
    rows = _all_rows(4)
    oracle_flags = _batch_gram_flags(rows, 4)
    oracle_raw = {tuple(r) for r in rows[oracle_flags]}
    assert len(oracle_raw) == 8

    raw = search(SearchConfig(order=4, canonicalization="none"))
    assert raw.found_raw_count == 8
    assert {tuple(mask_to_signs(_str_to_mask(s), 4)) for s in raw.found} == oracle_raw
    classes = search(SearchConfig(order=4))
    assert classes.found == ["+++-"]
    for row_string in raw.found:
        negatives = row_string.count("-")
        assert negatives in {1, 3}
    _report(3, time.perf_counter() - start, 1.0, "8 raw rows, 1 class, negative counts in {1,3}")


def _str_to_mask(s: str) -> int:
    mask = 0
    for ch in s:
        mask = (mask << 1) | (1 if ch == "-" else 0)
    return mask


def test_criterion_04_small_order_nonexistence():
    start = time.perf_counter()
    for m in (8, 12, 16, 20, 24, 28):
        result = search(SearchConfig(order=m))
        assert result.found == [], f"unexpected circulant Hadamard rows at order {m}"
        if math.isqrt(m) ** 2 != m:
            assert result.stage_counts["row_sum"] == 0
    sweep = search(
        SearchConfig(order=16, row_sum=False, balance=False, paf_prefix=False,
                     crosscheck_fraction=1.0, fix_first=False, canonicalization="none")
    )
    filtered = search(SearchConfig(order=16, canonicalization="none"))
    assert sweep.crosscheck["checked"] == 1 << 16
    assert sweep.crosscheck["mismatches"] == 0
    assert sweep.found == filtered.found == []
    _report(4, time.perf_counter() - start, 60.0,
            "orders 8..28 empty; full 2^16 gram sweep and filtered pipeline agree")


def test_criterion_05_filter_soundness_exhaustive():
    start = time.perf_counter()
    rng = np.random.default_rng(71)
    for m in (4, 8, 12, 16):
        rows = _all_rows(m)
        half = m // 2

        flat = np.ones(len(rows), dtype=bool)
        for s in range(1, half + 1):
            flat &= (rows * np.roll(rows, -s, axis=1)).sum(axis=1) == 0
        gram_ok = _batch_gram_flags(rows, m)
        assert np.array_equal(flat, gram_ok), f"paf/gram mismatch at order {m}"

        balanced = (rows[:, :half] == rows[:, half:]).sum(axis=1) == m // 4
        perm = np.asarray(paired_listing(m).perm)
        row0 = rows[:, perm]
        row1 = rows[:, (perm + half) % m]
        orthogonal = (row0 * row1).sum(axis=1) == 0
        assert np.array_equal(balanced, orthogonal), f"balance/orthogonality mismatch at order {m}"

        # anchor the vectorized predicates to the actual library operations
        for mask in rng.integers(0, 1 << m, 25):
            row = mask_to_signs(int(mask), m)
            assert paf_is_flat(row) == bool(flat[mask])
            assert is_hadamard(circulant_sign_matrix(row)).is_hadamard == bool(gram_ok[mask])
            assert conditions_report(block_system(row)).balance_ok == bool(balanced[mask])
            matrix = rg_matrix(circulant_from_row(row), paired_listing(m))
            assert (int(np.dot(matrix[0], matrix[1])) == 0) == bool(orthogonal[mask])
    _report(5, time.perf_counter() - start, 60.0,
            "paf-flat <=> gram-Hadamard and balance <=> row orthogonality on all rows, m in {4,8,12,16}")


def test_criterion_06_block_reconstruction():
    start = time.perf_counter()
    for mask in range(1 << 8):
        row = mask_to_signs(mask, 8)
        lhs = assemble_block_matrix(block_system(row)).entries
        rhs = rg_matrix(circulant_from_row(row), paired_listing(8))
        assert np.array_equal(lhs, rhs)
    rng = np.random.default_rng(73)
    for m in (16, 24):
        for _ in range(500):
            row = rng.choice([1, -1], m)
            lhs = assemble_block_matrix(block_system(row)).entries
            rhs = rg_matrix(circulant_from_row(row), paired_listing(m))
            assert np.array_equal(lhs, rhs)
    _report(6, time.perf_counter() - start, 10.0,
            "assembled block matrix equals the paired-listing matrix (2^8 rows at m=8, 500 at m=16,24)")


def test_criterion_07_explicit_constructions():
    start = time.perf_counter()
    for construction in (c2c2_matrix(), c2c8_matrix(), quaternion_c2_matrix()):
        assert is_hadamard(construction.matrix).is_hadamard
        assert is_regular(construction.matrix)
        listing = recover_listing(construction.matrix, construction.group)
        assert listing is not None, f"no listing found for {construction.name}"
        assert is_rg_matrix(construction.matrix, construction.group, listing)
    assert recover_listing(c2c8_matrix().matrix, cyclic_group(16)) is None
    _report(7, time.perf_counter() - start, 30.0,
            "all displays Hadamard+regular with recovered listings; C16 recovery correctly fails")


def test_criterion_08_kronecker_extensions():
    start = time.perf_counter()
    c2c8 = with_recovered_listing(c2c8_matrix())
    q8c2 = with_recovered_listing(quaternion_c2_matrix())
    c4 = circulant_c4()
    cases = [
        (kronecker_extend(c2c8, c4), 64),
        (kronecker_extend(kronecker_extend(c2c8, c4), c4), 256),
        (kronecker_extend(q8c2, c2c2_matrix()), 64),
    ]
    for extension, size in cases:
        assert extension.size == size
        assert is_hadamard(extension.matrix).is_hadamard
        assert is_rg_matrix(extension.matrix, extension.group, extension.listing)
    _report(8, time.perf_counter() - start, 10.0,
            "64x64 and 256x256 extensions are Hadamard RG-matrices under product listings")


def test_criterion_09_four_symmetric_odd_blocks_never_match():
    start = time.perf_counter()
    systems = 0
    for i in range(4):
        for j in range(i + 1, 4):
            odd_positions = {i, j, i + 4, j + 4}
            kinds = ["odd" if p in odd_positions else "even" for p in range(8)]
            for odd_bits in range(16):
                for even_bits in range(16):
                    odd_signs = iter(1 if (odd_bits >> k) & 1 else -1 for k in range(4))
                    even_signs = iter(1 if (even_bits >> k) & 1 else -1 for k in range(4))
                    signs = [next(odd_signs) if kind == "odd" else next(even_signs) for kind in kinds]
                    system = block_system(row_from_blocks(kinds, signs))
                    report = matching_report(system, "odd")
                    assert not report.perfect_matching_found
                    assert report.failure_certificate is not None
                    systems += 1
    assert systems == 6 * 16 * 16
    _report(9, time.perf_counter() - start, 30.0,
            f"no perfect odd matching in any of the {systems} placements/sign assignments")


def test_criterion_10_worker_determinism(monkeypatch):
    start = time.perf_counter()
    payloads = []
    # every search forked, then every search in-process
    for fork_above in (-1, math.inf):
        monkeypatch.setattr(engine, "FORK_ABOVE_ROWS", fork_above)
        for workers in (1, 2, 8):
            result = search(SearchConfig(order=16, workers=workers))
            payloads.append(result.deterministic_payload())
    assert all(p == payloads[0] for p in payloads)
    blobs = {json.dumps(p, sort_keys=True) for p in payloads}
    assert len(blobs) == 1
    _report(10, time.perf_counter() - start, 60.0,
            "order-16 search results bit-identical for 1, 2 and 8 workers, forked or in-process")
