import json
import os
import types

import pytest

import circhad.searchengine as engine
from circhad import group_by_name, is_rg_matrix, parse_matrix_document
from circhad.cli import _parse_row, main
from circhad.groupring import RECOVERY_NODE_BUDGET
from circhad.groups import Listing

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
    assert ckpt.read_text().startswith("# circhad-checkpoint v2 ")



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
    # listing recovery alone does not finish on this 64x64 matrix in any useful time
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


def test_recover_without_header_listing_stops_at_the_node_budget(tmp_path, capsys):
    path = tmp_path / "ext64.txt"
    assert main(["construct", "--family", "c2c8", "--extend", "c4", "--times", "1",
                 "--out", str(path)]) == 0
    lines = path.read_text().splitlines(keepends=True)
    path.write_text("".join(line for line in lines if not line.startswith("listing:")))
    assert main(["recover", "--file", str(path), "--group", "C2xC8xC4"]) == 3
    err = capsys.readouterr().err
    assert err == ("capacity error: listing recovery over C2xC8xC4 gave up after exploring "
                   f"{RECOVERY_NODE_BUDGET} nodes\n")



def test_recover_without_header_listing_at_order_1024(tmp_path, capsys):
    # one placement per position: deeper than Python's recursion limit
    path = tmp_path / "m1024.txt"
    assert main(["construct", "--family", "c4", "--extend", "c4", "--times", "4",
                 "--out", str(path)]) == 0
    lines = path.read_text().splitlines(keepends=True)
    path.write_text("".join(line for line in lines if not line.startswith("listing:")))
    group = group_by_name("C4xC4xC4xC4xC4")
    code = main(["recover", "--file", str(path), "--group", group.name, "--format", "json"])
    assert code in (0, 3)
    if code == 0:
        listing = json.loads(capsys.readouterr().out)["listing"]
        matrix = parse_matrix_document(path.read_text()).to_sign_matrix()
        assert is_rg_matrix(matrix, group, Listing(group, listing))

def test_bad_header_listing_falls_back_to_recovery(tmp_path, capsys):
    # eq1 relabelled so that neither the natural nor the paired listing works
    path = tmp_path / "relabelled.txt"
    path.write_text("group: C4\nlisting: 0,0,1,2\n++-+\n-+++\n+++-\n+-++\n")
    assert main(["recover", "--file", str(path), "--group", "C4", "--format", "json"]) == 0
    assert json.loads(capsys.readouterr().out)["listing"] == [0, 1, 3, 2]
    assert main(["verify", str(path), "--listing", "auto", "--format", "json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["rg"] == {"group": "C4", "rg_matrix": True, "listing": [0, 1, 3, 2]}


def claims_a_bad_row(m, prefixes, *args):
    for prefix in prefixes:
        yield prefix, 1, [0b1], 0, 0  # +...+- is not flat, so the gram oracle rejects it


def raises(m, prefixes, *args):
    raise RuntimeError(f"kernel fault in process {os.getpid()}")


def test_internal_fault_exit_four(monkeypatch, capsys):
    faulty = types.SimpleNamespace(BACKEND="faulty", scan_partitions=claims_a_bad_row)
    monkeypatch.setattr(engine, "_kernel", faulty)
    assert main(["search", "--order", "12", "--no-filter", "row_sum"]) == 4
    err = capsys.readouterr().err
    assert err.startswith("internal error: RuntimeError: ")
    assert err.count("\n") == 1


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
    # 141^2 leaves a count of about 6,000 digits, which the message must not print
    assert main(["search", "--order", "19881"]) == 3
    assert capsys.readouterr().err.startswith("capacity error: order 19881 leaves at least 2^19873 rows")


def test_fault_inside_a_worker_process_exits_four(monkeypatch, capsys):
    monkeypatch.setattr(engine, "_kernel", types.SimpleNamespace(BACKEND="faulty", scan_partitions=raises))
    assert main(["search", "--order", "12", "--no-filter", "row_sum", "--workers", "2"]) == 4
    err = capsys.readouterr().err
    assert err.startswith("internal error: RuntimeError: kernel fault in process ")
    assert err.count("\n") == 1
    assert int(err.split()[-1]) != os.getpid()


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
