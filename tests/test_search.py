import itertools
import json
import math
import os
import random

import numpy as np
import pytest

import circhad.searchengine as engine
from circhad import CapacityError, FormatError, SearchConfig, canonicalize, search
from circhad.cli import main
from circhad.searchengine import _npkernel, _pykernel
from circhad.signs import mask_signs
from sign_reference import mask_to_signs, mask_to_string, signs_to_mask

KERNELS = [_pykernel, _npkernel]


@pytest.fixture(params=[k.BACKEND for k in KERNELS])
def kernel(request, monkeypatch):
    module = next(k for k in KERNELS if k.BACKEND == request.param)
    monkeypatch.setattr(engine, "_kernel", module)
    return request.param


def listed(result):
    """A kernel result tuple with its sampled-mask array as a list, so `==` checks every field."""
    return tuple(field.tolist() if isinstance(field, np.ndarray) else field for field in result)


def scanned(module, m, prefixes, depth, *filters):
    """`module.scan_partitions` as a list of `listed` tuples."""
    return [listed(entry) for entry in module.scan_partitions(m, prefixes, depth, *filters)]


def subtree_scans(m, prefixes, depth, *filters):
    """The reference: `_pykernel.scan_partitions` of each prefix alone."""
    return [entry for p in prefixes for entry in scanned(_pykernel, m, [p], depth, *filters)]


def gram_oracle_rows(m):
    # independent sweep: every row whose circulant satisfies M M^T = mI
    eye = m * np.eye(m, dtype=np.int64)
    hits = []
    for mask in range(1 << m):
        row = mask_to_signs(mask, m)
        circ = np.stack([np.roll(row, r) for r in range(m)])
        if np.array_equal(circ @ circ.T, eye):
            hits.append(mask_to_string(mask, m))
    return sorted(hits)


def test_order_4_census(kernel):
    result = search(SearchConfig(order=4, canonicalization="none"))
    assert result.found == gram_oracle_rows(4)
    assert result.found_raw_count == 8
    assert result.total_rows == 16
    canon = search(SearchConfig(order=4))
    assert canon.found == ["+++-"]
    assert canon.found_raw_count == 8


def test_order_8_empty_with_zero_row_sum_stage(kernel):
    result = search(SearchConfig(order=8))
    assert result.stage_counts["row_sum"] == 0
    assert result.found == []
    assert gram_oracle_rows(8) == []


@pytest.mark.parametrize("m", [4, 8, 12])
def test_filter_soundness_filtered_vs_sweep(kernel, m):
    filtered = search(SearchConfig(order=m, canonicalization="none"))
    sweep = search(
        SearchConfig(order=m, row_sum=False, balance=False, paf_prefix=False,
                     fix_first=False, canonicalization="none")
    )
    assert filtered.found == sweep.found
    assert sweep.found == gram_oracle_rows(m)


def test_stage_counts_match_direct_enumeration(kernel):
    # closed-form row_sum/balance stage counts against a literal count
    for m in (4, 8, 12):
        result = search(SearchConfig(order=m))
        admissible = {r for r in range(m + 1) if (m - 2 * r) ** 2 == m}
        rows = np.array([mask_to_signs(mask, m) for mask in range(1 << m)])
        negs = (rows == -1).sum(axis=1)
        row_sum_pass = np.isin(negs, sorted(admissible))
        assert result.stage_counts["row_sum"] == int(row_sum_pass.sum())
        half = m // 2
        evens = (rows[:, : half] == rows[:, half:]).sum(axis=1)
        balance_pass = row_sum_pass & (evens == m // 4)
        assert result.stage_counts["balance"] == int(balance_pass.sum())


def test_stage_counts_non_increasing(kernel):
    for config in (
        SearchConfig(order=16),
        SearchConfig(order=16, row_sum=False),
        SearchConfig(order=12, balance=False),
        SearchConfig(order=8, paf_prefix=False),
    ):
        result = search(config)
        counts = list(result.stage_counts.values())
        assert counts == sorted(counts, reverse=True)
        assert result.total_rows >= counts[0]


def test_paf_prefix_disabled_matches_closed_form(kernel):
    result = search(SearchConfig(order=12, row_sum=False, paf_prefix=False))
    assert result.stage_counts["paf_prefix"] == result.stage_counts["balance"]


def test_fix_first_and_full_space_agree(kernel):
    for m in (4, 8, 12):
        fixed = search(SearchConfig(order=m)).deterministic_payload()
        full = search(SearchConfig(order=m, fix_first=False)).deterministic_payload()
        fixed.pop("crosscheck")
        full.pop("crosscheck")
        assert fixed == full


@pytest.mark.parametrize("m", [1, 2, 3, 4, 5, 6, 8, 12, 16])
@pytest.mark.parametrize("row_sum, balance, paf_prefix", itertools.product([False, True], repeat=3))
def test_kernels_agree(m, row_sum, balance, paf_prefix):
    _, adm_mask = engine._admissible_mask(m)
    for depth in sorted(d for d in {0, 1, 3, 5, m} if d <= m):
        prefixes = sorted({0, 1, (1 << depth) // 3, (1 << depth) - 1} & set(range(1 << depth)))
        # these prefixes cover half the row space or more below depth 5, which the Python
        # kernel scans in about 0.5 s at order 16 unfiltered, so there it samples once
        for threshold in (1 << 31,) if m == 16 and depth < 5 else (0, 1 << 31, 1 << 32):
            args = (m, prefixes, depth, row_sum, adm_mask, balance, paf_prefix, threshold)
            assert scanned(_npkernel, *args) == scanned(_pykernel, *args), args


def partition_lists(reference):
    """The prefix lists the batched scan is held to, from every prefix's reference result."""
    prefixes = [entry[0] for entry in reference]
    lists = {"all": prefixes, "every other": prefixes[1::2], "single": prefixes[len(prefixes) // 2 :][:1]}
    empty = [entry[0] for entry in reference if entry[1] == 0 and not entry[2]]
    if empty:
        lists["pruned empty"] = sorted({prefixes[0], empty[0], prefixes[-1]})
    return lists


@pytest.mark.parametrize("m", [1, 2, 3, 4, 5, 6, 8, 12, 16])
@pytest.mark.parametrize("row_sum, balance, paf_prefix", itertools.product([False, True], repeat=3))
def test_scan_partitions_matches_per_prefix_scans(m, row_sum, balance, paf_prefix):
    _, adm_mask = engine._admissible_mask(m)
    depths = sorted(d for d in {1, 3, 5, m} if d <= m and (m < 16 or d == 5))
    # the reference scans each prefix apart, so orders 12 and 16 trim the thresholds
    thresholds = {12: (1 << 31,), 16: (0,)}.get(m, (0, 1 << 31))
    for depth, threshold in itertools.product(depths, thresholds):
        filters = (row_sum, adm_mask, balance, paf_prefix, threshold)
        reference = subtree_scans(m, range(1 << depth), depth, *filters)
        by_prefix = {entry[0]: entry for entry in reference}
        for name, prefixes in partition_lists(reference).items():
            expected = [by_prefix[p] for p in prefixes]
            for module in KERNELS:
                got = scanned(module, m, prefixes, depth, *filters)
                assert got == expected, (module.BACKEND, name, depth, filters)


@pytest.mark.parametrize("cap", [1, 7])
def test_scan_partitions_in_order_through_small_frontiers(monkeypatch, cap):
    # tiny caps split nearly every level, so partitions finish across many batches
    monkeypatch.setattr(_npkernel, "FRONTIER_CAP", cap)
    m, depth = 12, 4
    _, adm_mask = engine._admissible_mask(m)
    for filters in ((False, adm_mask, False, False, 1 << 31), (True, adm_mask, True, True, 1 << 31),
                    (False, adm_mask, True, True, 0)):
        reference = subtree_scans(m, range(1 << depth), depth, *filters)
        for prefixes in partition_lists(reference).values():
            expected = [entry for entry in reference if entry[0] in prefixes]
            assert scanned(_npkernel, m, prefixes, depth, *filters) == expected


@pytest.mark.parametrize("m", range(8, 21))
def test_kernels_agree_around_the_seed_level(m):
    # the numpy kernel seeds its frontier at depth, or deeper up to level m // 2 while
    # the nodes fit the cap, and tests only the shifts that can fail from m // 2 + 1 on
    _, adm_mask = engine._admissible_mask(m)
    for depth in (m // 2 - 1, m // 2, m // 2 + 1, m):
        prefixes = sorted({0, 1, (1 << depth) // 3, (1 << depth) - 1})
        for row_sum, balance, paf_prefix in itertools.product([False, True], repeat=3):
            args = (m, prefixes, depth, row_sum, adm_mask, balance, paf_prefix, 1 << 31)
            assert scanned(_npkernel, *args) == scanned(_pykernel, *args), args


def test_seed_is_chunked_when_the_prefixes_outnumber_the_cap(monkeypatch):
    # 171 prefixes against a cap of 32: the seed is cut into 6 chunks, each scanned
    # before the next is seeded, and the results still arrive in prefix order
    m, depth, cap = 16, 9, 32
    _, adm_mask = engine._admissible_mask(m)
    prefixes = list(range(0, 1 << depth, 3))
    assert len(prefixes) > cap
    monkeypatch.setattr(_npkernel, "FRONTIER_CAP", cap)
    # the kernel reads the signs of every seed chunk, frontier and set of leaves it holds
    widths = []
    mask_signs = _npkernel.mask_signs

    def recording_mask_signs(masks, count):
        widths.append(len(masks))
        return mask_signs(masks, count)

    monkeypatch.setattr(_npkernel, "mask_signs", recording_mask_signs)
    for filters in ((False, adm_mask, True, True, 1 << 31), (True, adm_mask, True, True, 0),
                    (False, adm_mask, False, False, 1 << 28)):
        expected = scanned(_pykernel, m, prefixes, depth, *filters)
        assert [entry[0] for entry in expected] == prefixes
        assert scanned(_npkernel, m, prefixes, depth, *filters) == expected, filters
    # a seed chunk of 32 prefixes fills the cap, and no array of nodes outgrows it
    assert max(widths) == cap


def test_default_frontier_cap_scans_like_a_small_one(monkeypatch):
    # the unfiltered order-24 tree is wider than the default cap, so the default splits
    # its frontier where a cap of 512 splits it too, at other widths
    widths = []

    class RecordingCap(int):
        def __lt__(self, width):  # `width > FRONTIER_CAP` asks the cap first
            widths.append(width)
            return int(self) < width

    m, depth = 24, 4
    _, adm_mask = engine._admissible_mask(m)
    prefixes = list(range(1 << (depth - 1)))  # every row[0] = + partition
    filters = (False, adm_mask, True, True, 1 << 28)
    monkeypatch.setattr(_npkernel, "FRONTIER_CAP", RecordingCap(_npkernel.FRONTIER_CAP))
    at_default = scanned(_npkernel, m, prefixes, depth, *filters)
    assert max(widths) > _npkernel.FRONTIER_CAP
    assert sum(entry[1] for entry in at_default) > 0
    monkeypatch.setattr(_npkernel, "FRONTIER_CAP", 512)
    assert scanned(_npkernel, m, prefixes, depth, *filters) == at_default


@pytest.mark.parametrize(
    "m, depth, prefixes",
    [
        # random row[0] = + prefixes, from random.Random(m).getrandbits(depth - 1)
        (36, 20, [0x2A12D, 0x778A, 0x7DD9F, 0x2AB3, 0x7AC89]),
        (64, 46, [0x139DA1560927, 0x11286769FC6F, 0x15FAEB86B180]),
        (35, 18, [0x4371, 0xABB5, 0x118EE, 0x18046]),
        (63, 44, [0x206E8D054B6, 0x38D71F4A4E4, 0x5477BFB8024, 0x7714B4961F1]),
    ],
)
def test_kernels_agree_on_deep_subtrees_of_large_orders(m, depth, prefixes):
    assert m <= engine.KERNEL_ORDER_LIMIT
    _, adm_mask = engine._admissible_mask(m)
    filter_sets = [(True, adm_mask, True, True, 1 << 31)]
    if not adm_mask:
        # no row sum is admissible at an odd order, so that filter empties the
        # frontier at its first level; the other filters also run without it
        filter_sets.append((False, adm_mask, True, True, 1 << 31))
    for filters in filter_sets:
        expected = subtree_scans(m, sorted(prefixes), depth, *filters)
        assert scanned(_npkernel, m, sorted(prefixes), depth, *filters) == expected
        for entry in expected:
            assert listed(_npkernel.scan_subtree(m, entry[0], depth, *filters)) == entry[1:]
    assert sum(entry[1] for entry in expected) > 0


def paf_is_flat(mask, m):
    row = mask_to_signs(mask, m)
    return all(sum(row[i] * row[(i + s) % m] for i in range(m)) == 0 for s in range(1, m))


@pytest.mark.parametrize("m", [1, 2, 3, 4, 5, 63, 64])
def test_leaf_signs_and_flatness_match_the_python_paf(m):
    # every mask up to order 5, so order 4 holds the flat +++- orbit; at 63 and 64,
    # random masks, half with the top bit set, and 0, 1 and all ones
    if m <= 5:
        masks = list(range(1 << m))
    else:
        rng = random.Random(m)
        masks = sorted({rng.getrandbits(m) | 1 << (m - 1) for _ in range(20)}
                       | {rng.getrandbits(m) for _ in range(20)} | {0, 1, (1 << m) - 1})
    # the leaves read bits 0 to half-1 and, shifted down by m - half, the first half of
    # the row; a seed reads all its bits, which crosses the word widths of 16 and 32 bits
    # (32 bits from bit 0 are all bits below order 6)
    half = m // 2
    widths = (min(m, 32),) if m < 32 else (16, 17, 32, 33, m)
    for shift, count in [(0, width) for width in widths] + [(m - half, half)]:
        expected = np.array([[1 - 2 * (mask >> (shift + s) & 1) for s in range(count)] for mask in masks])
        got = mask_signs(np.array(masks, dtype=np.uint64) >> np.uint64(shift), count)
        assert got.dtype == np.int8 and np.array_equal(got, expected.reshape(len(masks), count).T)
        # bit u of a leaf's mask is entry m-1-u of its row
        entries = np.array([mask_to_signs(mask, m)[::-1][shift : shift + count] for mask in masks])
        assert np.array_equal(got, entries.reshape(len(masks), count).T)
    if m == 4:
        assert [mask for mask in masks if paf_is_flat(mask, m)] == [1, 2, 4, 7, 8, 11, 13, 14]
    # every entry lies inside the prefix at depth m, all but the last at depth m - 1;
    # either way the gathers drop the first entries, which the leaves rebuild from the masks
    for depth in (m, m - 1):
        prefixes = sorted({mask >> (m - depth) for mask in masks})
        expected = []
        for prefix in prefixes:
            leaves = [prefix << (m - depth) | low for low in range(1 << (m - depth))]
            found = [leaf for leaf in leaves if paf_is_flat(leaf, m)]
            expected.append((prefix, len(leaves), found, leaves))
        assert scanned(_npkernel, m, prefixes, depth, False, 0, False, False, 1 << 32) == expected


def test_order_limit_is_the_mask_width(capsys):
    assert engine.KERNEL_ORDER_LIMIT == 64
    # orders 65 to 80 admit no row sum, so they are answered without a kernel
    assert main(["search", "--order", "65", "--force"]) == 0
    assert "stage row_sum: 0" in capsys.readouterr().out
    # 81 is the first order above the limit that leaves rows to enumerate
    assert main(["search", "--order", "81", "--force"]) == 3
    assert capsys.readouterr().err == "capacity error: enumeration kernels support orders up to 64\n"


def test_kernels_agree_through_search(monkeypatch):
    results = []
    for module in KERNELS:
        monkeypatch.setattr(engine, "_kernel", module)
        results.append(search(SearchConfig(order=16)).deterministic_payload())
    assert results[0] == results[1]


def test_kernel_selection():
    assert engine._kernel is _npkernel
    assert engine.KERNEL_BACKEND == "numpy"


def test_determinism_across_workers_and_partitions(monkeypatch):
    monkeypatch.setattr(engine, "FORK_ABOVE_ROWS", -1)
    payloads = [
        search(SearchConfig(order=12, row_sum=False, workers=w, partition_depth=d)).deterministic_payload()
        for w, d in ((1, None), (2, None), (8, None), (1, 0), (3, 5), (8, 8))
    ]
    assert all(p == payloads[0] for p in payloads)


FILTER_SETS = {
    "default": {},
    "no-row-sum": {"row_sum": False},
    "no-row-sum-or-balance": {"row_sum": False, "balance": False},
    "crosscheck": {"crosscheck_fraction": 1.0},
}


def depth_sweeps():
    """(kernel, order, fix_first, filter set, depths from 0 through the full row)."""
    for module, m, fix_first, name in itertools.product(KERNELS, (4, 8, 12, 16), (True, False), FILTER_SETS):
        full_row = m - 1 if fix_first else m
        depths = list(range(full_row + 1))
        if module is _pykernel and m == 16 and not (fix_first and name in ("default", "no-row-sum")):
            # the Python kernel's whole order-16 grid takes about 22 s, these two sets 3 s
            continue
        yield pytest.param(module, m, fix_first, name, depths,
                           id=f"{module.BACKEND}-{m}-{'fixed' if fix_first else 'full'}-{name}")


@pytest.mark.parametrize("module, m, fix_first, filters, depths", list(depth_sweeps()))
def test_counts_do_not_depend_on_partition_depth(monkeypatch, module, m, fix_first, filters, depths):
    # every level is pruned alike, the entries inside a partition's prefix included,
    # so the full row (one partition per row) counts what the default depth does
    monkeypatch.setattr(engine, "_kernel", module)
    config = {"order": m, "fix_first": fix_first, **FILTER_SETS[filters]}
    expected = search(SearchConfig(**config)).deterministic_payload()
    for depth in depths:
        assert search(SearchConfig(partition_depth=depth, **config)).deterministic_payload() == expected, depth


def test_prefixes_pruned_inside_themselves_are_yielded_empty():
    # at depth 12 these 13 prefixes hold 11 or more negatives, more than any
    # admissible count at order 16, so the row-sum window prunes each inside itself
    m, depth = 16, 12
    counts, adm_mask = engine._admissible_mask(m)
    assert max(counts) == 10
    prefixes = [p for p in range(1 << depth) if bin(p).count("1") >= 11]
    assert len(prefixes) == 13
    for module in KERNELS:
        scan = list(module.scan_partitions(m, prefixes, depth, True, adm_mask, True, True, 1 << 32))
        assert [entry[0] for entry in scan] == prefixes, module.BACKEND
        for _, reached, found, sampled in scan:
            assert (reached, list(found), sampled.dtype, len(sampled)) == (0, [], np.uint64, 0)


@pytest.mark.parametrize("module", KERNELS, ids=lambda module: module.BACKEND)
def test_no_prefixes_yield_nothing(module):
    # resuming a finished --partition-depth 0 checkpoint leaves no prefix to scan
    _, adm_mask = engine._admissible_mask(8)
    for depth in (0, 3, 8):
        assert list(module.scan_partitions(8, [], depth, True, adm_mask, True, True, 1 << 32)) == []


def test_workers_beyond_the_cpus_fork_one_child_per_cpu(monkeypatch):
    monkeypatch.setattr(engine, "FORK_ABOVE_ROWS", -1)
    forks = []
    real_fork = os.fork

    def counting_fork():
        forks.append(1)
        return real_fork()

    monkeypatch.setattr(os, "fork", counting_fork)
    # 64 partitions, so not even a broken cap can fork more than 64 children
    result = search(SearchConfig(order=12, row_sum=False, workers=10_000, partition_depth=6))
    assert len(forks) == min(64, len(os.sched_getaffinity(0)))
    assert result.meta["workers"] == 10_000
    serial = search(SearchConfig(order=12, row_sum=False, partition_depth=6))
    assert result.deterministic_payload() == serial.deterministic_payload()


def test_two_workers_on_one_cpu_scan_in_process(monkeypatch, tmp_path, capsys):
    monkeypatch.setattr(engine, "FORK_ABOVE_ROWS", -1)
    monkeypatch.setattr(os, "fork", lambda: pytest.fail("forked a child"))
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0})
    runs = {}
    for workers in ("1", "2"):
        checkpoint = tmp_path / f"workers{workers}.txt"
        argv = ["search", "--order", "16", "--workers", workers, "--partition-depth", "4",
                "--checkpoint", str(checkpoint)]
        assert main(argv) == 0
        stdout = [line for line in capsys.readouterr().out.splitlines() if not line.startswith("time ")]
        runs[workers] = (stdout, checkpoint.read_bytes())
    assert runs["2"] == runs["1"]


def test_crosscheck_runs_and_agrees(kernel):
    full = search(SearchConfig(order=12, row_sum=False, crosscheck_fraction=1.0))
    assert full.crosscheck["checked"] == full.stage_counts["paf_prefix"] // 2
    assert full.crosscheck["mismatches"] == 0
    sampled = search(SearchConfig(order=12, row_sum=False, crosscheck_fraction=0.5))
    assert 0 < sampled.crosscheck["checked"] < full.crosscheck["checked"]
    assert sampled.crosscheck["mismatches"] == 0


def reached_leaves(m, prefix, depth, row_sum, adm_mask, balance, paf_prefix):
    """Brute force: the masks under the prefix that pass every enabled filter at every entry."""
    leaves = []
    for mask in range(prefix << (m - depth), (prefix + 1) << (m - depth)):
        row = mask_to_signs(mask, m).tolist()
        if row_sum and not (adm_mask >> row.count(-1)) & 1:
            continue
        if balance and m % 4 == 0 and sum(row[i] == row[i + m // 2] for i in range(m // 2)) != m // 4:
            continue
        # after entry k, shift s has settled k+1-s of its m products
        if paf_prefix and any(abs(sum(row[j - s] * row[j] for j in range(s, k + 1))) > m - (k + 1 - s)
                              for k in range(m) for s in range(1, min(k, m // 2) + 1)):
            continue
        leaves.append(mask)
    return leaves


def test_kernels_sample_without_asking_the_oracle(monkeypatch):
    def oracle(masks, m):
        raise AssertionError("a kernel asked the gram oracle")

    monkeypatch.setattr(_pykernel, "gram_hadamard_batch", oracle)
    # order 16 admits a row sum, and the partitions of one batch end at every level
    m, depth = 16, 10
    _, adm_mask = engine._admissible_mask(m)
    prefixes = list(range(0, 1 << depth, 29))
    total = 0
    for row_sum, balance, paf_prefix in itertools.product([False, True], repeat=3):
        filters = (row_sum, adm_mask, balance, paf_prefix)
        for module in KERNELS:
            scan = module.scan_partitions(m, prefixes, depth, *filters, 1 << 32)
            for prefix, reached, found, sampled in scan:
                assert sampled.dtype == np.uint64
                assert sampled.tolist() == reached_leaves(m, prefix, depth, *filters), module.BACKEND
                assert reached == len(sampled) and set(found) <= set(sampled.tolist())
                total += reached
    assert total > 0


def test_capacity_rules():
    with pytest.raises(CapacityError):
        search(SearchConfig(order=36))
    with pytest.raises(CapacityError):
        search(SearchConfig(order=36, row_sum=False))
    with pytest.raises(CapacityError):
        search(SearchConfig(order=100))
    # the override lifts the survivor-count refusal but not the kernel's order cap
    with pytest.raises(CapacityError, match="orders up to"):
        search(SearchConfig(order=81, allow_large=True))
    # non-square orders above the raw limit are emptied by the row-sum filter
    result = search(SearchConfig(order=40))
    assert result.stage_counts["row_sum"] == 0
    assert result.found == []


def test_config_validation():
    with pytest.raises(ValueError):
        search(SearchConfig(order=0))
    with pytest.raises(ValueError):
        search(SearchConfig(order=4, crosscheck_fraction=1.5))
    with pytest.raises(ValueError):
        search(SearchConfig(order=4, canonicalization="reversal"))
    with pytest.raises(ValueError):
        search(SearchConfig(order=4, workers=0))


def test_order_one_and_two(kernel):
    one = search(SearchConfig(order=1))
    assert one.found == ["+"]
    assert one.found_raw_count == 2
    two = search(SearchConfig(order=2))
    assert two.found == []


def test_canonicalize_orbit_of_eq1_row():
    base = np.array([1, 1, 1, -1])
    expected = canonicalize(base)
    orbit = []
    for k in range(4):
        rotated = np.roll(base, k)
        orbit.append(rotated)
        orbit.append(-rotated)
    assert len({signs_to_mask(r)[0] for r in orbit}) == 8
    for member in orbit:
        assert np.array_equal(canonicalize(member), expected)
    assert np.array_equal(expected, base)


def test_canonicalize_all_plus_fixed_point():
    row = np.ones(6, dtype=np.int64)
    assert np.array_equal(canonicalize(row), row)
    assert np.array_equal(canonicalize(-row), row)


def test_canonicalize_idempotent():
    rng = np.random.default_rng(59)
    for _ in range(50):
        row = rng.choice([1, -1], int(rng.integers(1, 20)))
        once = canonicalize(row)
        assert np.array_equal(canonicalize(once), once)


def test_checkpoint_roundtrip(tmp_path):
    path = tmp_path / "search.ckpt"
    config = SearchConfig(order=12, row_sum=False, checkpoint_path=path, partition_depth=4)
    first = search(config)
    lines = path.read_text().splitlines()
    assert lines[0].startswith("# circhad-checkpoint v3 ")
    body = [line for line in lines[1:] if line.strip()]
    assert len(body) == 16
    for line in body:
        assert line.startswith("prefix=0x")
        assert " survivors=" in line
    # resuming with every partition done must not change anything
    resumed = search(config)
    assert resumed.deterministic_payload() == first.deterministic_payload()
    # drop half the partitions and resume
    path.write_text("\n".join(lines[:1] + body[:8]) + "\n")
    partial = search(config)
    assert partial.deterministic_payload() == first.deterministic_payload()


@pytest.mark.parametrize("order, depth", [(4, 2), (12, 3)])
def test_checkpoint_resume_after_torn_last_line(tmp_path, order, depth):
    # order 4 puts a found mask on the last line, so cuts inside masks= occur too
    path = tmp_path / "search.ckpt"
    config = SearchConfig(order=order, row_sum=False, checkpoint_path=path, partition_depth=depth)
    expected = search(config).deterministic_payload()
    lines = path.read_text().splitlines(keepends=True)
    head, last = "".join(lines[:-1]), lines[-1]
    # a write cut at any byte, and a line ended early between two fields
    cuts = [last[:cut] for cut in range(len(last))]
    cuts += [last[:cut] + "\n" for cut in range(len(last)) if last[cut] == " "]
    for tail in cuts:
        path.write_text(head + tail)
        assert search(config).deterministic_payload() == expected, tail
        # the good lines are kept byte for byte and the rescanned line is appended whole
        assert path.read_text() == head + last, tail
        # the torn line is gone, so a second resume finds a valid file
        assert search(config).deterministic_payload() == expected, tail


@pytest.mark.parametrize(
    "corrupt",
    [
        lambda line: line[: line.index(" crosschecked=")],
        lambda line: line.replace("survivors=0", "survivors=1"),
        lambda line: line.replace("prefix=0x1 ", "prefix=0x40 "),
        lambda line: line.replace("reached=", "reached=x"),
    ],
)
def test_checkpoint_rejects_bad_line_before_the_last(tmp_path, corrupt):
    path = tmp_path / "search.ckpt"
    config = SearchConfig(order=12, row_sum=False, checkpoint_path=path, partition_depth=3)
    search(config)
    lines = path.read_text().splitlines()
    assert lines[2].startswith("prefix=0x1 ")
    lines[2] = corrupt(lines[2])
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(FormatError):
        search(config)


@pytest.mark.parametrize(
    "fields",
    [
        "survivors=1 reached=3 crosschecked=0 mismatches=0 masks=",
        "reached=3 survivors=0 crosschecked=0 mismatches=0 masks=",
        "survivors=0 reached=3 crosschecked=0 mismatches=0",
    ],
    ids=["survivors", "order", "missing"],
)
def test_checkpoint_refuses_partition_fields_that_disagree(tmp_path, fields):
    # the line's crc matches, so only the plain scan's parser can refuse it
    path = tmp_path / "search.ckpt"
    config = SearchConfig(order=12, row_sum=False, checkpoint_path=path, partition_depth=3)
    search(config)
    lines = path.read_text().splitlines(keepends=True)
    body = f"prefix=0x0 {fields}"
    path.write_text("".join([lines[0], f"{body} crc={engine._crc(body)}\n", *lines[2:]]))
    with pytest.raises(FormatError):
        search(config)


def order4_resume_argv(path):
    # the CLI form of SearchConfig(order=4, row_sum=False, partition_depth=2, checkpoint_path=path)
    return ["search", "--order", "4", "--no-filter", "row_sum", "--partition-depth", "2",
            "--checkpoint", str(path)]


@pytest.mark.parametrize(
    "damage",
    [
        # a write cut inside masks= that still ends with a newline: the mask parses
        lambda line: line[: line.index("masks=0x7") + len("masks=0")] + "\n",
        # one changed digit: every field is there and survivors= still matches
        lambda line: line.replace("masks=0x7", "masks=0x6"),
    ],
    ids=["cut-mask", "changed-digit"],
)
def test_checkpoint_crc_catches_a_damaged_mask(tmp_path, capsys, damage):
    path = tmp_path / "search.ckpt"
    config = SearchConfig(order=4, row_sum=False, checkpoint_path=path, partition_depth=2)
    expected = search(config).deterministic_payload()
    lines = path.read_text().splitlines(keepends=True)
    damaged = damage(lines[-1])
    path.write_text("".join(lines[:-1]) + damaged)
    assert search(config).deterministic_payload() == expected
    assert path.read_text() == "".join(lines)
    # the same damage on an earlier line is refused
    path.write_text("".join(lines[:-2]) + damaged + lines[-2])
    assert main(order4_resume_argv(path)) == 2
    assert "line 4" in capsys.readouterr().err


@pytest.mark.parametrize("version", ["v1", "v2"])
def test_checkpoint_refuses_older_versions(tmp_path, capsys, version):
    path = tmp_path / "search.ckpt"
    config = SearchConfig(order=4, row_sum=False, checkpoint_path=path, partition_depth=2)
    search(config)
    path.write_text(path.read_text().replace("# circhad-checkpoint v3 ", f"# circhad-checkpoint {version} "))
    assert main(order4_resume_argv(path)) == 2
    err = capsys.readouterr().err
    assert "older format" in err and err.count("\n") == 1


def test_checkpoint_rejects_other_config(tmp_path):
    path = tmp_path / "search.ckpt"
    search(SearchConfig(order=12, row_sum=False, checkpoint_path=path, partition_depth=4))
    with pytest.raises(ValueError):
        search(SearchConfig(order=12, row_sum=False, balance=False,
                            checkpoint_path=path, partition_depth=4))


def test_found_rows_sorted_lexicographically(kernel):
    result = search(SearchConfig(order=4, canonicalization="none"))
    assert result.found == sorted(result.found)


def test_total_rows_and_meta():
    result = search(SearchConfig(order=16, workers=2))
    assert result.total_rows == 1 << 16
    assert result.meta["backend"] == engine.KERNEL_BACKEND
    assert result.meta["workers"] == 2
    assert set(result.timings) == {"analytic", "enumeration", "finalize"}


def test_row_sum_stage_is_binomial_sum():
    result = search(SearchConfig(order=16))
    assert result.stage_counts["row_sum"] == math.comb(16, 6) + math.comb(16, 10)


def test_deterministic_payload_serializes_stably():
    a = search(SearchConfig(order=12))
    b = search(SearchConfig(order=12))
    assert json.dumps(a.deterministic_payload(), sort_keys=True) == json.dumps(
        b.deterministic_payload(), sort_keys=True
    )
