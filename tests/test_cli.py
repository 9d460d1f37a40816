import contextlib
import hashlib
import itertools
import json
import os
import signal
import subprocess
import sys
import time
import types
from pathlib import Path

import numpy as np
import pytest

import circhad
import circhad.searchengine as engine
from circhad import block_system, group_by_name, is_rg_matrix, matching_report, pair_info
from circhad import parse_matrix_document
from circhad.cli import _parse_row, main
from circhad.groupring import RECOVERY_NODE_BUDGET
from circhad.groups import Listing
from circhad.searchengine import _npkernel

EQ1_TEXT = "+++-\n-+++\n+-++\n++-+\n"


@pytest.fixture
def eq1_file(tmp_path):
    path = tmp_path / "eq1.txt"
    path.write_text(EQ1_TEXT)
    return str(path)


def test_verify_hadamard_exit_zero(eq1_file, capsys):
    assert main(["verify", eq1_file]) == 0
    out = capsys.readouterr().out
    assert "hadamard: true" in out


def test_verify_with_group_and_listing(eq1_file, capsys):
    assert main(["verify", eq1_file, "--group", "C4", "--listing", "natural"]) == 0
    assert "rg-matrix over C4: true" in capsys.readouterr().out


def test_verify_non_hadamard_exit_one(tmp_path, capsys):
    path = tmp_path / "flat.txt"
    path.write_text("++\n++\n")
    assert main(["verify", str(path)]) == 1
    assert "hadamard: false" in capsys.readouterr().out


def test_verify_json_format(eq1_file, capsys):
    assert main(["verify", eq1_file, "--group", "C4", "--format", "json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["hadamard"] is True
    assert payload["rg"]["rg_matrix"] is True


def test_verify_missing_file_exit_two(capsys):
    assert main(["verify", "/nonexistent/matrix.txt"]) == 2


def test_verify_bad_format_exit_two(tmp_path, capsys):
    path = tmp_path / "bad.txt"
    path.write_text("++\n+\n")
    assert main(["verify", str(path)]) == 2


@pytest.mark.parametrize("argv", [
    ["verify", "{dir}"],
    ["recover", "--file", "{dir}", "--group", "C4"],
    ["search", "--order", "8", "--checkpoint", "{dir}"],
    ["construct", "--family", "c4", "--out", "{dir}"],
], ids=["verify", "recover", "search", "construct"])
def test_directory_path_exits_two_with_one_error_line(tmp_path, capsys, argv):
    assert main([arg.format(dir=tmp_path) for arg in argv]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and err.count("\n") == 1


def test_negative_times_exits_two_with_one_error_line(capsys):
    assert main(["construct", "--family", "c4", "--times", "-1"]) == 2
    out, err = capsys.readouterr()
    assert out == "" and err.startswith("error:") and err.count("\n") == 1


def test_repeated_calls_see_only_their_own_arguments(capsys):
    # main builds its parser once; no call may leak into the next, not even a usage error
    unfiltered = ["search", "--order", "16", "--no-filter", "row_sum", "--format", "json"]
    balance_counts = []
    for argv in (unfiltered + ["--no-filter", "balance"], unfiltered):
        assert main(argv) == 0
        balance_counts.append(json.loads(capsys.readouterr().out)["stage_counts"]["balance"])
    assert balance_counts == [65536, 17920]
    with pytest.raises(SystemExit) as exc:
        main(["search", "--no-filter", "balance"])
    assert exc.value.code == 2
    assert "--order" in capsys.readouterr().err
    assert main(unfiltered) == 0
    assert json.loads(capsys.readouterr().out)["stage_counts"]["balance"] == 17920


def test_search_order_8(capsys):
    assert main(["search", "--order", "8"]) == 0
    out = capsys.readouterr().out
    assert "found: 0" in out
    assert "stage row_sum: 0" in out


def test_search_json_and_filters(capsys):
    assert main(["search", "--order", "4", "--no-filter", "balance", "--format", "json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["found"] == ["+++-"]
    assert payload["stage_counts"]["balance"] == payload["stage_counts"]["row_sum"]


def test_search_capacity_exit_three(capsys):
    assert main(["search", "--order", "36"]) == 3
    assert "capacity" in capsys.readouterr().err


def test_search_with_checkpoint(tmp_path, capsys):
    ckpt = tmp_path / "run.ckpt"
    assert main(["search", "--order", "12", "--checkpoint", str(ckpt), "--workers", "2"]) == 0
    assert ckpt.read_text().startswith("# circhad-checkpoint v3 ")



def search_output(argv, capsys):
    """A search's stdout without its wall-clock lines, which differ run to run."""
    assert main(argv) == 0
    lines = capsys.readouterr().out.splitlines(keepends=True)
    return "".join(line for line in lines if not line.startswith("time "))


def partitioned_search(order, workers):
    return ["search", "--order", order, "--no-filter", "row_sum", "--partition-depth", "6",
            "--workers", workers, "--checkpoint"]


@pytest.mark.parametrize("order", ["4", "16"])
def test_checkpoint_bytes_do_not_depend_on_workers(tmp_path, capsys, order):
    files = []
    for workers in ("1", "2", "8"):
        path = tmp_path / f"workers{workers}.ckpt"
        search_output(partitioned_search(order, workers) + [str(path)], capsys)
        files.append(path.read_bytes())
    assert files[1] == files[0] and files[2] == files[0]


@pytest.mark.parametrize(
    "argv, checked, header, digest",
    [
        (["--order", "12", "--no-filter", "row_sum", "--crosscheck", "0.5", "--partition-depth", "3"],
         81, "fingerprint=171773f642f6 order=12", "d612ca7afd8eda5aaf9a6ab5731f15204109a6c335fa4df8db5660fb6c17043d"),
        (["--order", "16", "--crosscheck", "1.0", "--partition-depth", "4"],
         898, "fingerprint=33ea4840c8d2 order=16", "075c6a5698d6e85a3246e4d1dc1b5597bd55cc925bafbfba8f1480291010e0d0"),
    ],
    ids=["order12", "order16"],
)
def test_crosschecked_checkpoint_bytes_are_pinned(tmp_path, capsys, argv, checked, header, digest):
    path = tmp_path / "pinned.ckpt"
    assert main(["search", *argv, "--workers", "2", "--format", "json", "--checkpoint", str(path)]) == 0
    assert json.loads(capsys.readouterr().out)["crosscheck"] == {"checked": checked, "mismatches": 0}
    # the partition lines are the bytes the v2 format wrote; only the header's version moved
    first, partitions = path.read_bytes().split(b"\n", 1)
    assert first.decode() == f"# circhad-checkpoint v3 {header}"
    assert hashlib.sha256(partitions).hexdigest() == digest


@pytest.mark.parametrize("order", ["4", "16"])
def test_resume_from_half_checkpoint_with_two_workers(tmp_path, capsys, order):
    unbroken = tmp_path / "unbroken.ckpt"
    expected = search_output(partitioned_search(order, "2") + [str(unbroken)], capsys)
    assert expected == search_output(["search", "--order", order, "--no-filter", "row_sum"], capsys)
    lines = unbroken.read_text().splitlines(keepends=True)
    half = tmp_path / "half.ckpt"
    half.write_text("".join(lines[:1] + lines[1::2]))
    assert search_output(partitioned_search(order, "2") + [str(half)], capsys) == expected
    # the lines that were kept stay as they were, and the missing ones follow in order
    assert half.read_text() == "".join(lines[:1] + lines[1::2] + lines[2::2])

def test_analyze_balanced_row(capsys):
    assert main(["analyze", "--row", "+++-"]) == 0
    out = capsys.readouterr().out
    assert "even: 1, odd: 1, balanced: true" in out
    assert "perfect matching: true" in out


def test_analyze_unbalanced_row_exit_one(capsys):
    assert main(["analyze", "--row", "++++++++"]) == 1
    assert "balanced: false" in capsys.readouterr().out


def test_analyze_paired_layout(capsys):
    row = "++" "+-" "++" "+-" "++" "+-" "--" "-+"
    assert main(["analyze", "--row", row, "--layout", "paired", "--format", "json"]) in (0, 1)
    payload = json.loads(capsys.readouterr().out)
    assert payload["conditions"]["even_count"] == 4
    assert payload["conditions"]["odd_count"] == 4


def balanced_classes(system, kind):
    """Whether every difference class d <= n holds as many + as - pairs, read off pair_info."""
    totals = {}
    for i, j in itertools.permutations(system.kind_positions(kind), 2):
        info = pair_info(system, i, j)
        if info.difference <= system.n:
            totals[info.difference] = totals.get(info.difference, 0) + info.sign
    return not any(totals.values())


@contextlib.contextmanager
def deadline(seconds):
    """Raise TimeoutError inside the block after `seconds`, so a hang fails the test."""
    def expire(signum, frame):
        raise TimeoutError(f"still running after {seconds} s")

    previous = signal.signal(signal.SIGALRM, expire)
    signal.alarm(seconds)
    try:
        yield
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)


def test_analyze_of_an_order_256_row_finishes():
    signs = np.where(np.random.default_rng(1).integers(0, 2, 256) == 0, 1, -1)
    row = "".join("+" if v > 0 else "-" for v in signs)
    env = {**os.environ, "PYTHONPATH": str(Path(circhad.__file__).resolve().parents[1])}
    proc = subprocess.run([sys.executable, "-m", "circhad", "analyze", "--row", row, "--format", "json"],
                          env=env, capture_output=True, text=True, timeout=30)
    assert proc.returncode == 1
    system = block_system(signs)
    for kind, report in json.loads(proc.stdout)["matching"].items():
        assert report["perfect_matching_found"] == balanced_classes(system, kind)


@pytest.mark.parametrize("argv", [
    ["analyze", "--row", "+++-++-+", "--format", "json"],
    ["construct", "--family", "c4", "--extend", "c4", "--times", "4"],
], ids=["analyze", "construct-1024"])
def test_closed_stdout_pipe_exits_141_quietly(argv):
    env = {**os.environ, "PYTHONPATH": str(Path(circhad.__file__).resolve().parents[1])}
    reader, writer = os.pipe()
    os.close(reader)  # no reader is left before the command writes a byte
    try:
        proc = subprocess.run([sys.executable, "-m", "circhad", *argv], env=env, stdout=writer,
                              stderr=subprocess.PIPE, text=True, timeout=60)
    finally:
        os.close(writer)
    assert (proc.returncode, proc.stderr) == (141, "")


def test_matching_report_of_an_order_1024_row_finishes():
    system = block_system(np.random.default_rng(2).choice([1, -1], 1024))
    for kind in ("even", "odd"):
        with deadline(10):
            report = matching_report(system, kind)
        assert report.perfect_matching_found == balanced_classes(system, kind)


def test_analyze_rejects_garbage(capsys):
    assert main(["analyze", "--row", "+*+-"]) == 2


def test_parse_row_reads_signs_and_rejects_other_characters(capsys):
    assert _parse_row("+ -\t+-\n-").tolist() == [1, -1, 1, -1, -1]
    for row in ("+0+-", "++x-", "+\u2212+-", "+-.+"):
        assert main(["analyze", "--row", row]) == 2
        assert "row may only contain" in capsys.readouterr().err


def test_construct_to_stdout(capsys):
    assert main(["construct", "--family", "c4"]) == 0
    out = capsys.readouterr().out
    assert "order: 4" in out
    assert "+++-" in out


def test_construct_to_file_roundtrips(tmp_path, capsys):
    out_path = tmp_path / "c2c8.txt"
    assert main(["construct", "--family", "c2c8", "--out", str(out_path)]) == 0
    assert main(["verify", str(out_path), "--group", "C2xC8"]) == 0
    assert "hadamard: true" in capsys.readouterr().out


def test_construct_extended(tmp_path):
    out_path = tmp_path / "ext.txt"
    assert main(["construct", "--family", "c4", "--extend", "c4", "--times", "1",
                 "--out", str(out_path)]) == 0
    header = out_path.read_text().splitlines()[0]
    assert header == "order: 16"


def test_recover_found_exit_zero(eq1_file, capsys):
    assert main(["recover", "--file", eq1_file, "--group", "C4"]) == 0
    assert "0,1,2,3" in capsys.readouterr().out


def test_recover_not_found_exit_one(tmp_path, capsys):
    path = tmp_path / "c2c8.txt"
    main(["construct", "--family", "c2c8", "--out", str(path)])
    capsys.readouterr()
    assert main(["recover", "--file", path.as_posix(), "--group", "C16"]) == 1
    assert "not-found" in capsys.readouterr().out


def test_recover_json(eq1_file, capsys):
    assert main(["recover", "--file", eq1_file, "--group", "C4", "--format", "json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["found"] is True
    assert payload["listing"] == [0, 1, 2, 3]


def test_recover_and_verify_use_the_header_listing(tmp_path, capsys):
    # listing recovery alone gives up on this 64x64 matrix at the node budget
    path = tmp_path / "ext64.txt"
    assert main(["construct", "--family", "c2c8", "--extend", "c4", "--times", "1",
                 "--out", str(path)]) == 0
    doc = parse_matrix_document(path.read_text())
    group = group_by_name("C2xC8xC4")
    assert is_rg_matrix(doc.to_sign_matrix(), group, Listing(group, doc.listing))
    assert main(["recover", "--file", str(path), "--group", "C2xC8xC4", "--format", "json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["found"] is True
    assert payload["listing"] == list(doc.listing)
    assert main(["verify", str(path), "--group", "C2xC8xC4", "--format", "json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["rg"] == {"group": "C2xC8xC4", "rg_matrix": True, "listing": list(doc.listing)}


@pytest.mark.parametrize("construct, group", [
    (["--family", "c4"], "C4"),
    (["--family", "c2c2"], "C2xC2"),
    (["--family", "c2c8"], "C2xC8"),
    (["--family", "q8c2"], "Q8xC2"),
    (["--family", "c2c8", "--extend", "c4", "--times", "1"], "C2xC8xC4"),
], ids=["c4", "c2c2", "c2c8", "q8c2", "c2c8xc4"])
def test_json_matrix_documents_read_back_like_text(tmp_path, capsys, construct, group):
    outputs = {}
    for fmt in ("text", "json"):
        path = str(tmp_path / f"matrix.{fmt}")
        assert main(["construct", *construct, "--format", fmt, "--out", path]) == 0
        outputs[fmt] = [(main(argv), capsys.readouterr().out)
                        for argv in (["verify", path], ["recover", "--file", path, "--group", group])]
    assert outputs["json"] == outputs["text"]
    assert [code for code, _ in outputs["json"]] == [0, 0]


@pytest.mark.parametrize("text", [
    '{"format": "matrix", "rows": ["+++-", "-+++", "+-+", "++-+"]}',
    '{"format": "matrix", "rows": ["+++-", "-+x+", "+-++", "++-+"]}',
    '{"format": "matrix", "order": 8, "rows": ["+++-", "-+++", "+-++", "++-+"]}',
    '{"format": "matrix", "order": true, "rows": ["+++-", "-+++", "+-++", "++-+"]}',
    '{"report": "recover", "found": true}',
    '{"format": "matrix",\n "rows": ["+++-", ',
], ids=["ragged", "bad-character", "wrong-order", "boolean-order", "not-a-matrix", "broken-json"])
def test_malformed_json_matrix_document_exits_two(tmp_path, capsys, text):
    path = tmp_path / "bad.json"
    path.write_text(text)
    for argv in (["verify", str(path)], ["recover", "--file", str(path), "--group", "C4"]):
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert err.startswith("error:") and err.count("\n") == 1


def without_listing_header(path):
    lines = path.read_text().splitlines(keepends=True)
    path.write_text("".join(line for line in lines if not line.startswith("listing:")))


def test_recover_without_header_listing_stops_at_the_node_budget(tmp_path, capsys):
    path = tmp_path / "ext64.txt"
    assert main(["construct", "--family", "c2c8", "--extend", "c4", "--times", "1",
                 "--out", str(path)]) == 0
    without_listing_header(path)
    assert main(["recover", "--file", str(path), "--group", "C2xC8xC4"]) == 3
    err = capsys.readouterr().err
    assert err == ("capacity error: listing recovery over C2xC8xC4 gave up after exploring "
                   f"{RECOVERY_NODE_BUDGET} nodes\n")


def test_recover_without_header_listing_at_order_1024(tmp_path, capsys):
    # one placement per position: deeper than Python's recursion limit
    path = tmp_path / "m1024.txt"
    assert main(["construct", "--family", "c4", "--extend", "c4", "--times", "4",
                 "--out", str(path)]) == 0
    without_listing_header(path)
    group = group_by_name("C4xC4xC4xC4xC4")
    assert main(["recover", "--file", str(path), "--group", group.name, "--format", "json"]) == 0
    listing = json.loads(capsys.readouterr().out)["listing"]
    matrix = parse_matrix_document(path.read_text()).to_sign_matrix()
    assert is_rg_matrix(matrix, group, Listing(group, listing))


@pytest.mark.parametrize("group", ["Q8xC2", "C2xC8"])
def test_recover_without_header_listing_of_the_c2c2_square(tmp_path, capsys, group):
    # c2c2 (x) c2c2 is an RG-matrix over C2^4 but over neither of these groups
    path = tmp_path / "c2c2sq.txt"
    assert main(["construct", "--family", "c2c2", "--extend", "c2c2", "--times", "1",
                 "--out", str(path)]) == 0
    without_listing_header(path)
    capsys.readouterr()
    assert main(["recover", "--file", str(path), "--group", group]) == 1
    assert capsys.readouterr().out == f"listing over {group}: not-found\n"


def test_bad_header_listing_falls_back_to_recovery(tmp_path, capsys):
    # eq1 relabelled so that neither the natural nor the paired listing works
    path = tmp_path / "relabelled.txt"
    path.write_text("group: C4\nlisting: 0,0,1,2\n++-+\n-+++\n+++-\n+-++\n")
    assert main(["recover", "--file", str(path), "--group", "C4", "--format", "json"]) == 0
    assert json.loads(capsys.readouterr().out)["listing"] == [0, 1, 3, 2]
    assert main(["verify", str(path), "--listing", "auto", "--format", "json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["rg"] == {"group": "C4", "rg_matrix": True, "listing": [0, 1, 3, 2]}


NO_MASKS = np.empty(0, dtype=np.uint64)


def claims_a_bad_row(m, prefixes, *args):
    for prefix in prefixes:
        yield prefix, 1, [0b1], NO_MASKS  # +...+- is not flat, so the gram oracle rejects it


def hides_a_sampled_flat_row(m, prefixes, *args):
    for prefix in prefixes:
        yield prefix, 1, [], np.array([0b0001], dtype=np.uint64)  # +++- is flat at order 4


def miscounts_reached(m, prefixes, *args):
    for prefix, reached, *rest in _npkernel.scan_partitions(m, prefixes, *args):
        yield prefix, reached + 1, *rest


def raises(m, prefixes, *args):
    raise RuntimeError(f"kernel fault in process {os.getpid()}")


def test_internal_fault_exit_four(monkeypatch, capsys):
    faulty = types.SimpleNamespace(BACKEND="faulty", scan_partitions=claims_a_bad_row)
    monkeypatch.setattr(engine, "_kernel", faulty)
    assert main(["search", "--order", "12", "--no-filter", "row_sum"]) == 4
    err = capsys.readouterr().err
    assert err.startswith("internal error: RuntimeError: ")
    assert err.count("\n") == 1


def test_sampled_row_missing_from_the_found_rows_exits_four(monkeypatch, capsys):
    faulty = types.SimpleNamespace(BACKEND="faulty", scan_partitions=hides_a_sampled_flat_row)
    monkeypatch.setattr(engine, "_kernel", faulty)
    assert main(["search", "--order", "4", "--crosscheck", "1.0"]) == 4
    assert capsys.readouterr().err == ("internal error: RuntimeError: gram cross-check disagreed "
                                       "with the autocorrelation verdict on 1 rows\n")


def test_reached_count_off_the_closed_form_exits_four(monkeypatch, capsys):
    faulty = types.SimpleNamespace(BACKEND="faulty", scan_partitions=miscounts_reached)
    monkeypatch.setattr(engine, "_kernel", faulty)
    assert main(["search", "--order", "16", "--no-filter", "paf_prefix"]) == 4
    err = capsys.readouterr().err
    assert err.startswith("internal error: RuntimeError: stage accounting mismatch: enumerated ")


def test_capacity_rule_without_the_row_sum_filter(monkeypatch, capsys):
    # 2^29 rows are left after the analytic stages: refused without --force; with
    # it, the search reaches the kernel, whose fake bad row makes it exit 4
    faulty = types.SimpleNamespace(BACKEND="faulty", scan_partitions=claims_a_bad_row)
    monkeypatch.setattr(engine, "_kernel", faulty)
    assert main(["search", "--order", "29", "--no-filter", "row_sum"]) == 3
    assert capsys.readouterr().err == (
        "capacity error: order 29 leaves at least 2^29 rows after the analytic stages, more than 2^28; "
        "pass allow_large (--force) to run anyway\n"
    )
    assert main(["search", "--order", "29", "--no-filter", "row_sum", "--force"]) == 4
    assert capsys.readouterr().err.startswith("internal error: RuntimeError: a found row failed")
    # 119^2, the largest square order below the report's bound, leaves a count of
    # about 4,260 digits, which the message must not print
    assert main(["search", "--order", "14161"]) == 3
    assert capsys.readouterr().err.startswith("capacity error: order 14161 leaves at least 2^14154 rows")


@pytest.mark.parametrize("argv", [["--order", "15000"], ["--order", "19881"],
                                  ["--order", "1000000", "--no-filter", "row_sum"]])
def test_orders_whose_row_count_cannot_be_printed_are_refused_first(capsys, argv):
    start = time.perf_counter()
    assert main(["search"] + argv) == 3
    assert time.perf_counter() - start < 0.5
    order = argv[1]
    assert capsys.readouterr().err == (
        f"capacity error: order {order} is too large: its row count 2^{order} has more than "
        "4300 digits, more than the report can print\n"
    )


def test_largest_printable_order_is_reported(capsys):
    assert main(["search", "--order", "14284"]) == 0
    assert f"total rows: {1 << 14284}\n" in capsys.readouterr().out


def test_fault_inside_a_worker_process_exits_four(monkeypatch, capsys):
    monkeypatch.setattr(engine, "_kernel", types.SimpleNamespace(BACKEND="faulty", scan_partitions=raises))
    assert main(["search", "--order", "12", "--no-filter", "row_sum", "--workers", "2"]) == 4
    err = capsys.readouterr().err
    assert err.startswith("internal error: RuntimeError: kernel fault in process ")
    assert err.count("\n") == 1
    assert int(err.split()[-1]) != os.getpid()


def fails_at(bad_prefix):
    """The numpy kernel, except that it raises where it would yield `bad_prefix`."""
    def scan_partitions(m, prefixes, *args):
        for item in _npkernel.scan_partitions(m, prefixes, *args):
            if item[0] == bad_prefix:
                raise RuntimeError(f"kernel fault at prefix {bad_prefix:#x}")
            yield item
    return types.SimpleNamespace(BACKEND="faulty", scan_partitions=scan_partitions)


def test_partitions_finished_before_a_worker_fault_stay_in_the_checkpoint(monkeypatch, tmp_path, capsys):
    unbroken = tmp_path / "unbroken.ckpt"
    expected = search_output(partitioned_search("16", "2") + [str(unbroken)], capsys)
    faulted = tmp_path / "faulted.ckpt"
    with monkeypatch.context() as patch:
        patch.setattr(engine, "_kernel", fails_at(0x21))
        assert main(partitioned_search("16", "2") + [str(faulted)]) == 4
    assert capsys.readouterr().err == "internal error: RuntimeError: kernel fault at prefix 0x21\n"
    # the header and one line for each of the partitions 0x0 to 0x20, in order
    lines = unbroken.read_text().splitlines(keepends=True)
    assert faulted.read_text() == "".join(lines[: 1 + 0x21])
    assert search_output(partitioned_search("16", "2") + [str(faulted)], capsys) == expected
    assert faulted.read_bytes() == unbroken.read_bytes()


def waits_for_the_checkpoint(path):
    """The numpy kernel, except that before it yields the last partition p of its
    share it waits until the checkpoint records partitions 0 to p - 1. So it
    finishes only if results reach the checkpoint while the workers still run."""
    def scan_partitions(m, prefixes, *args):
        for item in _npkernel.scan_partitions(m, prefixes, *args):
            give_up = time.monotonic() + 20
            while item[0] == prefixes[-1] and path.read_text().count("\n") < 1 + item[0]:
                if time.monotonic() > give_up:
                    raise RuntimeError("earlier results did not reach the checkpoint")
                time.sleep(0.01)
            yield item
    return types.SimpleNamespace(BACKEND=_npkernel.BACKEND, scan_partitions=scan_partitions)


def test_results_are_recorded_while_workers_run(monkeypatch, tmp_path, capsys):
    unbroken = tmp_path / "unbroken.ckpt"
    expected = search_output(partitioned_search("16", "2") + [str(unbroken)], capsys)
    streamed = tmp_path / "streamed.ckpt"
    monkeypatch.setattr(engine, "_kernel", waits_for_the_checkpoint(streamed))
    assert search_output(partitioned_search("16", "2") + [str(streamed)], capsys) == expected
    assert streamed.read_bytes() == unbroken.read_bytes()


@contextlib.contextmanager
def deadline(seconds):
    def expire(signum, frame):
        raise TimeoutError(f"still running after {seconds} s")
    previous = signal.signal(signal.SIGALRM, expire)
    signal.alarm(seconds)
    try:
        yield
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)


def test_worker_that_dies_without_a_result_exits_four(monkeypatch, capsys):
    parent = os.getpid()

    def dies(m, prefixes, *args):
        if os.getpid() != parent:
            os._exit(9)
        raise AssertionError("the kernel ran in the parent process")

    monkeypatch.setattr(engine, "_kernel", types.SimpleNamespace(BACKEND="dies", scan_partitions=dies))
    with deadline(30):
        assert main(["search", "--order", "12", "--no-filter", "row_sum", "--workers", "2"]) == 4
    err = capsys.readouterr().err
    assert err.startswith("internal error: RuntimeError: worker process ")
    assert err.endswith(" exited without a result\n")
    assert err.count("\n") == 1
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def interrupted(m, prefixes, *args):
    raise KeyboardInterrupt


@pytest.mark.parametrize("workers", ["1", "2"])
def test_interrupt_exits_130_without_a_traceback(monkeypatch, capsys, workers):
    monkeypatch.setattr(engine, "_kernel", types.SimpleNamespace(BACKEND="stub", scan_partitions=interrupted))
    try:
        code = main(["search", "--order", "12", "--no-filter", "row_sum", "--workers", workers])
    except KeyboardInterrupt:
        pytest.fail("KeyboardInterrupt escaped main")
    assert code == 130
    assert capsys.readouterr() == ("", "interrupted\n")


def test_sigint_ends_a_forked_search_with_130_and_the_checkpoint_resumes(tmp_path, capsys):
    checkpoint = tmp_path / "interrupted.ckpt"
    argv = ["search", "--order", "28", "--no-filter", "row_sum", "--workers", "2",
            "--partition-depth", "8", "--checkpoint"]
    env = {**os.environ, "PYTHONPATH": str(Path(circhad.__file__).resolve().parents[1])}
    proc = subprocess.Popen([sys.executable, "-m", "circhad", *argv, str(checkpoint)], env=env,
                            stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True)
    try:
        give_up = time.monotonic() + 60
        # the header and 8 of the 256 partitions: the search is well under way
        while not checkpoint.exists() or checkpoint.read_text().count("\n") < 9:
            assert proc.poll() is None and time.monotonic() < give_up
            time.sleep(0.01)
        proc.send_signal(signal.SIGINT)
        out, err = proc.communicate(timeout=30)
    finally:
        proc.kill()
        proc.wait()
    assert (proc.returncode, out, err) == (130, "", "interrupted\n")
    assert checkpoint.read_text().count("\n") < 257
    unbroken = tmp_path / "unbroken.ckpt"
    expected = search_output(argv + [str(unbroken)], capsys)
    assert search_output(argv + [str(checkpoint)], capsys) == expected
    assert checkpoint.read_bytes() == unbroken.read_bytes()


def test_recover_wrong_order_exit_two(eq1_file, capsys):
    assert main(["recover", "--file", eq1_file, "--group", "C8"]) == 2


def test_subcommands_are_deterministic(eq1_file, capsys):
    outputs = []
    for _ in range(2):
        main(["verify", eq1_file, "--group", "C4", "--format", "json"])
        main(["search", "--order", "12", "--format", "json"])
        main(["analyze", "--row", "+++-", "--format", "json"])
        outputs.append(capsys.readouterr().out)
    # search timings vary run to run; everything else must match bit for bit
    import re

    scrub = [re.sub(r'"(analytic|enumeration|finalize)": [0-9.e-]+', r'"\1": 0', o)
             for o in outputs]
    assert scrub[0] == scrub[1]


BLOCKED_TEXT = "+++-\n++-+\n-+++\n+-++\n"  # eq1 under the paired listing of C4


@pytest.mark.parametrize("group, listing, code, found", [
    ("C4", "paired", 0, "paired"),
    ("C4", "auto", 0, "paired"),
    ("C1xC4", "paired", 0, "paired"),  # the same table as C4, under another name
    ("C4", "natural", 1, None),
])
def test_verify_paired_listing_only_over_a_cyclic_table(tmp_path, capsys, group, listing, code,
                                                        found):
    path = tmp_path / "blocked.txt"
    path.write_text(BLOCKED_TEXT)
    assert main(["verify", str(path), "--group", group, "--listing", listing,
                 "--format", "json"]) == code
    rg = json.loads(capsys.readouterr().out)["rg"]
    assert rg["rg_matrix"] == (found is not None) and rg["listing"] == found


def test_verify_paired_listing_refused_over_a_non_cyclic_group(tmp_path, capsys):
    path = tmp_path / "blocked.txt"
    path.write_text(BLOCKED_TEXT)
    assert main(["verify", str(path), "--group", "C2xC2", "--listing", "paired"]) == 2
    assert "paired listing needs a cyclic group" in capsys.readouterr().err
