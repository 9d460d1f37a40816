"""Peak traced allocations of the CLI's largest in-process commands.

tracemalloc sees numpy's data buffers and Python's bytes and str objects, so
these bounds do not depend on the allocator or on what the process held
before. A matrix stays int8 from the file to the verdict: its text is read as
bytes into one compact copy without whitespace, the signs are picked out of
it by one boolean mask, and it is written from one buffer of character codes.
`is_hadamard` converts tiles of 128 rows to float32 as it multiplies them,
and group tables are int16. So `verify` of the 1024 file peaks at about
4.1 MB (4 n^2 bytes while its text is parsed) against 7.3 MB with per-row
strings, int32 tables and a whole float32 copy; `verify` of a random
header-less 2048 matrix at about 3.0 n^2 bytes against 7.1 n^2; and reading
the 1024-element group table at 2.3 MB against 4.6 MB with int32. A product
group builds that table only when it is read, and `construct` writes the
bytes of its one document buffer as they are, so `construct` 1024 peaks at
about 2.1 MB (2 n^2: the matrix and the buffer) against 5.1 MB with the
table built for the header's name and the text decoded and encoded again
(8.1 MB with per-row strings). The order-16 crosscheck search peaks at
about 3.4 MB against 10 MB with int64 storage and whole-matrix products.
Listing recovery of the 1024 file without its header peaks at about 6.8 MB
with coded rows and bitmasks (10 MB with per-row strings and int32 tables),
against about 55 MB with the matrix and group table as Python lists.
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
from circhad.groups import group_by_name

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
    assert peak < 5 * MB, f"verify peaked at {peak / MB:.1f} MB"


def test_verify_random_2048_peak(tmp_path, capsys):
    n = 2048
    path = tmp_path / "random2048.txt"
    codes = np.random.default_rng(2048).choice(np.frombuffer(b"+-", dtype=np.uint8), (n, n))
    path.write_bytes(np.hstack([codes, np.full((n, 1), ord("\n"), dtype=np.uint8)]).tobytes())
    peak = traced_peak(["verify", str(path), "--format", "json"], expected_exit=1)
    assert '"hadamard": false' in capsys.readouterr().out
    assert peak < 4.5 * n * n, f"verify peaked at {peak / (n * n):.2f} n^2 bytes"


def test_group_1024_table_peak():
    tracemalloc.start()
    try:
        table = group_by_name("C4xC4xC4xC4xC4").mul_table
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert table.shape == (1024, 1024)
    assert peak < 3 * MB, f"building the group peaked at {peak / MB:.1f} MB"


def test_recover_1024_without_header_peak(m1024_file, tmp_path, capsys):
    path = tmp_path / "headerless.txt"
    with open(m1024_file) as source:
        path.write_text("".join(line for line in source if not line.startswith("listing:")))
    peak = traced_peak(["recover", "--file", str(path), "--group", "C4xC4xC4xC4xC4"])
    assert capsys.readouterr().out.startswith("listing over C4xC4xC4xC4xC4: 0,")
    assert peak < 12 * MB, f"recover peaked at {peak / MB:.1f} MB"


def test_construct_1024_peak(tmp_path):
    peak = traced_peak(CONSTRUCT_1024 + ["--out", str(tmp_path / "out.txt")])
    assert peak < 3 * MB, f"construct peaked at {peak / MB:.1f} MB"


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


def test_hashlib_is_imported_only_for_a_digest(m1024_file, tmp_path):
    # hashlib loads OpenSSL, which costs a fresh process about 4 MB; the commands'
    # own output goes to devnull, and stderr gets whether hashlib was in after each.
    # The 16x16 transcriptions' digests are pinned by the tests, not taken at run time.
    commands = [["verify", m1024_file], ["search", "--order", "16"],
                ["construct", "--family", "c2c8", "--out", str(tmp_path / "c2c8.txt")],
                ["construct", "--family", "q8c2", "--out", str(tmp_path / "q8c2.txt")]]
    code = ("import sys; from circhad.cli import main; seen = ['hashlib' in sys.modules]; "
            + "".join(f"main({argv!r}); seen.append('hashlib' in sys.modules); " for argv in commands)
            + "print(*seen, file=sys.stderr)")
    env = {**os.environ, "PYTHONPATH": str(Path(circhad.__file__).resolve().parents[1])}
    proc = subprocess.run([sys.executable, "-c", code], env=env, stdout=subprocess.DEVNULL,
                          stderr=subprocess.PIPE, text=True, timeout=60)
    assert proc.stderr.split()[-5:] == ["False"] * 5, proc.stderr
