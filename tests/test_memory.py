"""Peak traced allocations of the CLI's largest in-process commands.

tracemalloc sees numpy's data buffers as well as Python objects, so these
bounds do not depend on the allocator or on what the process held before.
Each bound sits between the peak with int8 storage, a blocked gram and a
blocked RG check, and the peak with int64 storage and whole-matrix products:
verify 1024 about 8 MB against 31 MB, construct 1024 about 8 MB against 15 MB,
and the order-16 crosscheck search about 3.4 MB against 10 MB. Listing recovery
of the 1024 file without its header peaks at about 10 MB with coded rows and
bitmasks, against about 55 MB with the matrix and group table as Python lists.
The serial order-20 search peaks at about 1.6 MB with the kernel's frontier of
16384 nodes holding only the live sign window, each half gathered on its own,
against 2.6 MB with all m sign rows per node and split halves kept as views.
"""

import tracemalloc

import pytest

from circhad.cli import main

MB = 1 << 20
CONSTRUCT_1024 = ["construct", "--family", "c4", "--extend", "c4", "--times", "4"]
ORDER_20 = ["search", "--order", "20", "--no-filter", "row_sum", "--format", "json"]
CROSSCHECK_16 = ["search", "--order", "16", "--no-filter", "row_sum", "--no-filter", "balance",
                 "--no-filter", "paf_prefix", "--crosscheck", "1.0", "--format", "json"]


def traced_peak(argv, expected_exit=0):
    tracemalloc.start()
    try:
        assert main(argv) == expected_exit
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


@pytest.fixture(scope="module")
def m1024_file(tmp_path_factory):
    path = tmp_path_factory.mktemp("m1024") / "m1024.txt"
    assert main(CONSTRUCT_1024 + ["--out", str(path)]) == 0
    return str(path)


def test_verify_1024_peak(m1024_file, capsys):
    peak = traced_peak(["verify", m1024_file, "--format", "json"])
    assert '"hadamard": true' in capsys.readouterr().out
    assert peak < 12 * MB, f"verify peaked at {peak / MB:.1f} MB"


def test_recover_1024_without_header_peak(m1024_file, tmp_path, capsys):
    path = tmp_path / "headerless.txt"
    with open(m1024_file) as source:
        path.write_text("".join(line for line in source if not line.startswith("listing:")))
    peak = traced_peak(["recover", "--file", str(path), "--group", "C4xC4xC4xC4xC4"])
    assert capsys.readouterr().out.startswith("listing over C4xC4xC4xC4xC4: 0,")
    assert peak < 12 * MB, f"recover peaked at {peak / MB:.1f} MB"


def test_construct_1024_peak(tmp_path):
    peak = traced_peak(CONSTRUCT_1024 + ["--out", str(tmp_path / "out.txt")])
    assert peak < 12 * MB, f"construct peaked at {peak / MB:.1f} MB"


def test_crosscheck_search_peak(capsys):
    peak = traced_peak(CROSSCHECK_16)
    assert '"mismatches": 0' in capsys.readouterr().out
    assert peak < 4.5 * MB, f"crosscheck search peaked at {peak / MB:.1f} MB"


def test_search_order20_peak(capsys):
    peak = traced_peak(ORDER_20)
    assert '"paf_prefix": 25128' in capsys.readouterr().out
    assert peak < 2.1 * MB, f"order-20 search peaked at {peak / MB:.2f} MB"
