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
from sign_reference import mask_to_signs, mask_to_string, signs_to_mask

KERNELS = [_pykernel, _npkernel]


@pytest.fixture(params=[k.BACKEND for k in KERNELS])
def kernel(request, monkeypatch):
    module = next(k for k in KERNELS if k.BACKEND == request.param)
    monkeypatch.setattr(engine, "_kernel", module)
    return request.param


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
    # every depth here runs on the whole row space except at order 16, where
    # the shallow subtrees would make the Python kernel slow
    _, adm_mask = engine._admissible_mask(m)
    depths = sorted(d for d in {0, 1, 3, 5, m} if d <= m and (m < 16 or d >= 5))
    for depth in depths:
        prefixes = {0, 1, (1 << depth) // 3, (1 << depth) - 1} & set(range(1 << depth))
        for prefix in sorted(prefixes):
            for threshold in (0, 1 << 31, 1 << 32):
                args = (m, prefix, depth, row_sum, adm_mask, balance, paf_prefix, threshold)
                assert _npkernel.scan_subtree(*args) == _pykernel.scan_subtree(*args), args


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
    # the Python kernel's loop over all prefixes is the reference itself, so
    # it runs on the shorter lists only; orders 12 and 16 trim the thresholds
    thresholds = {12: (1 << 31,), 16: (0,)}.get(m, (0, 1 << 31))
    for depth, threshold in itertools.product(depths, thresholds):
        filters = (row_sum, adm_mask, balance, paf_prefix, threshold)
        reference = [(p, *_pykernel.scan_subtree(m, p, depth, *filters)) for p in range(1 << depth)]
        by_prefix = {entry[0]: entry for entry in reference}
        for name, prefixes in partition_lists(reference).items():
            expected = [by_prefix[p] for p in prefixes]
            for module in KERNELS if name != "all" else [_npkernel]:
                got = list(module.scan_partitions(m, prefixes, depth, *filters))
                assert got == expected, (module.BACKEND, name, depth, filters)


@pytest.mark.parametrize("cap", [1, 7])
def test_scan_partitions_in_order_through_small_frontiers(monkeypatch, cap):
    # tiny caps split nearly every level, so partitions finish across many batches
    monkeypatch.setattr(_npkernel, "FRONTIER_CAP", cap)
    m, depth = 12, 4
    _, adm_mask = engine._admissible_mask(m)
    for filters in ((False, adm_mask, False, False, 1 << 31), (True, adm_mask, True, True, 1 << 31),
                    (False, adm_mask, True, True, 0)):
        reference = [(p, *_pykernel.scan_subtree(m, p, depth, *filters)) for p in range(1 << depth)]
        for prefixes in partition_lists(reference).values():
            expected = [entry for entry in reference if entry[0] in prefixes]
            assert list(_npkernel.scan_partitions(m, prefixes, depth, *filters)) == expected


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
        expected = [(p, *_pykernel.scan_subtree(m, p, depth, *filters)) for p in sorted(prefixes)]
        assert list(_npkernel.scan_partitions(m, sorted(prefixes), depth, *filters)) == expected
        for entry in expected:
            assert _npkernel.scan_subtree(m, entry[0], depth, *filters) == entry[1:]
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
    for count in (m // 2, m):
        expected = np.array([mask_to_signs(mask, m)[:count] for mask in masks]).reshape(len(masks), count).T
        got = _npkernel._leading_signs(np.array(masks, dtype=np.uint64), m, count)
        assert got.dtype == np.int8 and np.array_equal(got, expected)
    if m == 4:
        assert [mask for mask in masks if paf_is_flat(mask, m)] == [1, 2, 4, 7, 8, 11, 13, 14]
    # depth m installs every entry; at depth m - 1 the last level's gather drops
    # the first entries, which the leaves rebuild from the masks
    for depth in (m, m - 1):
        prefixes = sorted({mask >> (m - depth) for mask in masks})
        expected = []
        for prefix in prefixes:
            leaves = [prefix << (m - depth) | low for low in range(1 << (m - depth))]
            found = [leaf for leaf in leaves if paf_is_flat(leaf, m)]
            expected.append((prefix, len(leaves), found, len(leaves), 0))
        assert list(_npkernel.scan_partitions(m, prefixes, depth, False, 0, False, False, 1 << 32)) == expected


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


def test_determinism_across_workers_and_partitions():
    payloads = [
        search(SearchConfig(order=12, row_sum=False, workers=w, partition_depth=d)).deterministic_payload()
        for w, d in ((1, None), (2, None), (8, None), (1, 0), (3, 5), (8, 8))
    ]
    assert all(p == payloads[0] for p in payloads)


def test_workers_beyond_the_cpus_fork_one_child_per_cpu(monkeypatch):
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


def test_crosscheck_runs_and_agrees(kernel):
    full = search(SearchConfig(order=12, row_sum=False, crosscheck_fraction=1.0))
    assert full.crosscheck["checked"] == full.stage_counts["paf_prefix"] // 2
    assert full.crosscheck["mismatches"] == 0
    sampled = search(SearchConfig(order=12, row_sum=False, crosscheck_fraction=0.5))
    assert 0 < sampled.crosscheck["checked"] < full.crosscheck["checked"]
    assert sampled.crosscheck["mismatches"] == 0


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
    assert lines[0].startswith("# circhad-checkpoint v2 ")
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


def test_checkpoint_refuses_version_one(tmp_path, capsys):
    path = tmp_path / "search.ckpt"
    config = SearchConfig(order=4, row_sum=False, checkpoint_path=path, partition_depth=2)
    search(config)
    path.write_text(path.read_text().replace("# circhad-checkpoint v2 ", "# circhad-checkpoint v1 "))
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
