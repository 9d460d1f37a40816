"""Each benchmark checker accepts real circhad output and rejects a corrupted copy.

    python3 -m pytest perfbench
"""

import contextlib
import copy
import io
import json
import math
import sys
from pathlib import Path

import numpy as np
import pytest

import checks
from checks import CheckFailed

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

from circhad.cli import main  # noqa: E402


def cli(*argv):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = main(list(argv))
    text = out.getvalue()
    return code, json.loads(text) if text.startswith("{") else text


def rejects(check, *args, **kwargs):
    with pytest.raises(CheckFailed):
        check(*args, **kwargs)


def test_reference_known_facts():
    assert checks.search_reference(4, True, True).found == ["+++-"]
    assert checks.search_reference(16, True, True).found == []
    ref = checks.search_reference(16, row_sum=True, balance=False)
    assert ref.row_sum == math.comb(16, 6) + math.comb(16, 10)
    assert checks.search_reference(20, row_sum=False, balance=True).balance == math.comb(10, 5) << 10
    assert checks.search_reference(20, row_sum=False, balance=True).found == []


@pytest.mark.parametrize("order", [4, 16])
def test_check_search(order):
    code, payload = cli("search", "--order", str(order), "--format", "json")
    assert code == 0
    ref = checks.search_reference(order, True, True)
    checks.check_search(payload, ref)
    corruptions = [
        lambda p: p["found"].append("+" * order),
        lambda p: p["found"].clear(),
        lambda p: p["stage_counts"].__setitem__("balance", p["stage_counts"]["balance"] + 1),
        lambda p: p["stage_counts"].__setitem__("row_sum", p["stage_counts"]["row_sum"] - 2),
        lambda p: p["stage_counts"].__setitem__("paf_prefix", p["stage_counts"]["paf"] - 1),
        lambda p: p["crosscheck"].__setitem__("mismatches", 1),
        lambda p: p.__setitem__("total_rows", 1 << (order - 1)),
    ]
    for corrupt in corruptions:
        bad = copy.deepcopy(payload)
        corrupt(bad)
        if bad != payload:
            rejects(checks.check_search, bad, ref)


def test_check_search_crosscheck_count():
    code, payload = cli("search", "--order", "8", "--no-filter", "row_sum", "--no-filter", "balance",
                        "--no-filter", "paf_prefix", "--crosscheck", "1.0", "--format", "json")
    ref = checks.search_reference(8, row_sum=False, balance=False)
    checks.check_search(payload, ref, paf_prefix=False, crosschecked=1 << 7)
    rejects(checks.check_search, payload, ref, paf_prefix=False, crosschecked=1 << 8)
    bad = copy.deepcopy(payload)
    bad["stage_counts"]["paf_prefix"] -= 1
    rejects(checks.check_search, bad, ref, paf_prefix=False, crosschecked=1 << 7)


def test_check_same_payload_rejects_a_torn_resume():
    _, one = cli("search", "--order", "16", "--format", "json")
    _, two = cli("search", "--order", "16", "--workers", "2", "--partition-depth", "4", "--format", "json")
    checks.check_same_payload({"serial": one, "parallel": two})
    torn = copy.deepcopy(two)
    torn["stage_counts"]["paf_prefix"] -= 3
    rejects(checks.check_same_payload, {"serial": one, "resumed": torn})


def test_check_checkpoints(tmp_path):
    full, half = tmp_path / "full.txt", tmp_path / "half.txt"
    argv = ["search", "--order", "12", "--no-filter", "row_sum", "--partition-depth", "3", "--format", "json"]
    cli(*argv, "--checkpoint", str(full))
    half_before = checks.half_checkpoint(full.read_text())
    half.write_text(half_before)
    cli(*argv, "--checkpoint", str(half))
    whole, resumed = full.read_text(), half.read_text()
    checks.check_checkpoints(whole, resumed, 8)

    lines = resumed.splitlines(keepends=True)
    torn_last = "".join(lines[:-1]) + lines[-1].split(" reached=")[0] + "\n"
    rejects(checks.check_checkpoints, whole, torn_last, 8)
    rejects(checks.check_checkpoints, whole, resumed + lines[-1], 8)
    rejects(checks.check_checkpoints, whole, "".join(lines[:-1]), 8)
    rejects(checks.check_checkpoints, whole, resumed.replace("reached=", "reached=1", 1), 8)
    rejects(checks.check_checkpoints, whole, resumed, 16)


def test_check_gram(tmp_path):
    path = tmp_path / "m64.txt"
    cli("construct", "--family", "c4", "--extend", "c4", "--times", "2", "--out", str(path))
    matrix = checks.parse_rows(path.read_text())
    assert np.array_equal(matrix, checks.c4_kronecker_power(2))
    code, payload = cli("verify", str(path), "--format", "json")
    summary = checks.gram_summary(matrix)
    assert code == 0 and summary["hadamard"]
    checks.check_gram(payload, summary)
    for key, value in (("hadamard", False), ("max_off_diagonal", 2), ("diagonal_values", [63]),
                       ("row_sums", payload["row_sums"][::-1][:-1] + [0])):
        rejects(checks.check_gram, {**payload, key: value}, summary)
    flipped = matrix.copy()
    flipped[0, 0] = -flipped[0, 0]
    assert not checks.gram_summary(flipped)["hadamard"]


def test_check_listings(tmp_path):
    q8c2, c2c8 = tmp_path / "q8c2.txt", tmp_path / "c2c8.txt"
    cli("construct", "--family", "q8c2", "--out", str(q8c2))
    cli("construct", "--family", "c2c8", "--out", str(c2c8))
    a = checks.parse_rows(q8c2.read_text())
    code, payload = cli("verify", str(q8c2), "--group", "Q8xC2", "--format", "json")
    assert code == 0
    checks.check_verify_rg(payload, a, "Q8xC2")
    swapped = copy.deepcopy(payload)
    listing = swapped["rg"]["listing"]
    listing[1], listing[2] = listing[2], listing[1]
    rejects(checks.check_verify_rg, swapped, a, "Q8xC2")
    rejects(checks.check_verify_rg, payload, a, "C2xC8")

    b = checks.parse_rows(c2c8.read_text())
    code, payload = cli("recover", "--file", str(c2c8), "--group", "C2xC8", "--format", "json")
    assert code == 0
    checks.check_recover(payload, b, "C2xC8", expect_found=True)
    rejects(checks.check_recover, payload, a, "C2xC8", expect_found=True)
    code, payload = cli("recover", "--file", str(c2c8), "--group", "C16", "--format", "json")
    assert code == 1
    checks.check_recover(payload, b, "C16", expect_found=False)
    rejects(checks.check_recover, {**payload, "found": True, "listing": list(range(16))}, b, "C16",
            expect_found=False)


def test_check_analyze():
    balanced, unbalanced = "+-" * 8 + "++" * 8, "++" * 16
    for row in (balanced, unbalanced):
        code, payload = cli("analyze", f"--row={row}", "--layout", "paired", "--format", "json")
        checks.check_analyze(payload, row, code)
        bad = copy.deepcopy(payload)
        bad["conditions"]["balance_ok"] = not bad["conditions"]["balance_ok"]
        rejects(checks.check_analyze, bad, row, code)
        bad = copy.deepcopy(payload)
        bad["conditions"]["even_count"] += 1
        rejects(checks.check_analyze, bad, row, code)
    rejects(checks.check_analyze, payload, unbalanced, 0)


def test_benchmark_json_matches_the_runner():
    import run
    from workloads import WORKLOADS

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.PER_LAYER
