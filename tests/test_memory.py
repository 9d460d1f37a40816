"""Peak traced allocations of the CLI's largest in-process commands.

tracemalloc sees numpy's data buffers as well as Python objects, so these
bounds do not depend on the allocator or on what the process held before.
Each bound sits between the peak with int8 storage, a blocked gram and a
blocked RG check, and the peak with int64 storage and whole-matrix products:
verify 1024 about 8 MB against 31 MB, construct 1024 about 8 MB against 15 MB,
and the order-16 crosscheck search about 3.4 MB against 10 MB. Listing recovery
of the 1024 file without its header peaks at about 10 MB with coded rows and
bitmasks, against about 55 MB with the matrix and group table as Python lists.
The serial order-20 search peaks at about 1.3 MB with the kernel's frontier of
16384 nodes whose masks are their only sign record (m/2 + 10 bytes a node),
each half gathered on its own, against 2.6 MB with all m sign rows per node
and split halves kept as views. Block analysis of a random order-1024 row peaks
at about 0.64 MB when each difference class is built as it is checked, against
8.1 MB with every ordered same-kind pair and its sign built first.
"""

import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

import circhad
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


def test_analyze_large_row_peak(capsys):
    signs = np.random.default_rng(3).choice(["+", "-"], 1024)
    peak = traced_peak(["analyze", "--row=" + "".join(signs), "--format", "json"], expected_exit=1)
    assert '"perfect_matching_found": false' in capsys.readouterr().out
    assert peak < 2 * MB, f"analyze peaked at {peak / MB:.2f} MB"


def test_verify_does_not_import_numpy_ma(m1024_file):
    # np.unique's first call imports numpy.ma, which costs a fresh process about 2 MB;
    # numpy before 2.0 imports it with numpy itself
    code = ("import sys, numpy; before = 'numpy.ma' in sys.modules; from circhad.cli import main; "
            f"code = main(['verify', {m1024_file!r}]); print(code, before, 'numpy.ma' in sys.modules)")
    env = {**os.environ, "PYTHONPATH": str(Path(circhad.__file__).resolve().parents[1])}
    proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True,
                          timeout=60)
    exit_code, before, after = proc.stdout.split()[-3:]
    assert (exit_code, after) == ("0", before), proc.stdout + proc.stderr
