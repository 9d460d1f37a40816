"""The benchmark's three workloads: one fixed round of CLI commands each.

A round is a list of `Op`s. In-process ops run through `circhad.cli.main`; an
op with a deadline runs as a fresh `python -m circhad` child and fails when
the deadline passes. Each workload also names a headline command, run as a
fresh process, and checks every output with `checks` after the timing ends.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

import checks
from checks import require

ORDER20 = ["search", "--order", "20", "--no-filter", "row_sum", "--format", "json"]
PARALLEL = ["--workers", "2", "--partition-depth", "6"]
PARTITIONS = 1 << 6
CROSSCHECK = ["search", "--order", "16", "--no-filter", "row_sum", "--no-filter", "balance",
              "--no-filter", "paf_prefix", "--crosscheck", "1.0", "--format", "json"]
ANALYZE_ROWS = 16  # half uniform, half with balanced blocks, so both verdicts occur
ANALYZE_ORDER = 32
# recover ext64 does not finish today (its backtracking has no bound); this
# deadline keeps the failed attempt short beside the rest of the round.
RECOVER_DEADLINE_S = 1.0


@dataclass
class Op:
    label: str
    argv: list[str]
    before: Callable[[], None] | None = None
    deadline_s: float | None = None


@dataclass
class Outcome:
    label: str
    exit_code: int | None  # None when the op raised or passed its deadline
    stdout: str
    seconds: float
    error: str | None = None

    @property
    def failed(self) -> bool:
        return self.exit_code not in (0, 1)

    def payload(self) -> dict:
        return json.loads(self.stdout)


def _expect(outcome: Outcome, code: int) -> dict:
    require(outcome.exit_code == code, f"{outcome.label}: exit {outcome.exit_code}, expected {code}")
    return outcome.payload()


class SearchSerial:
    """Kernel-bound: three serial searches, no partitioning, no oracle load."""

    name = "search-serial"

    def __init__(self, work: Path, seed: int):
        self.work = work
        self.headline = Op("order20", ORDER20)

    def build_inputs(self, run) -> None:
        pass

    def ops(self) -> list[Op]:
        return [
            Op("order20", ORDER20),
            Op("order16", ["search", "--order", "16", "--format", "json"]),
            Op("order4", ["search", "--order", "4", "--format", "json"]),
        ]

    def after_round(self) -> dict:
        return {}

    def check(self, outcomes: list[Outcome], artifacts: list[dict], run) -> None:
        refs = {
            "order20": checks.search_reference(20, row_sum=False, balance=True),
            "order16": checks.search_reference(16, row_sum=True, balance=True),
            "order4": checks.search_reference(4, row_sum=True, balance=True),
        }
        by_label: dict[str, dict] = {}
        for i, outcome in enumerate(outcomes):
            payload = _expect(outcome, 0)
            checks.check_search(payload, refs[outcome.label])
            by_label.setdefault(outcome.label, {})[f"{outcome.label}#{i}"] = payload
        for payloads in by_label.values():
            checks.check_same_payload(payloads)


class SearchParallel:
    """Thread pool, partitions and checkpoint writes and reads, same kernel work as serial."""

    name = "search-parallel"

    def __init__(self, work: Path, seed: int):
        self.work = work
        self.full = work / "checkpoint.txt"
        self.half = work / "checkpoint-half.txt"
        fresh = work / "checkpoint-headline.txt"
        self.headline = Op("fresh", ORDER20 + PARALLEL + ["--checkpoint", str(fresh)],
                           before=lambda: fresh.unlink(missing_ok=True))

    def build_inputs(self, run) -> None:
        pass

    def _make_half(self) -> None:
        self.half.write_text(checks.half_checkpoint(self.full.read_text()))

    def ops(self) -> list[Op]:
        return [
            Op("fresh", ORDER20 + PARALLEL + ["--checkpoint", str(self.full)],
               before=lambda: self.full.unlink(missing_ok=True)),
            Op("resume-full", ORDER20 + PARALLEL + ["--checkpoint", str(self.full)]),
            Op("resume-half", ORDER20 + PARALLEL + ["--checkpoint", str(self.half)],
               before=self._make_half),
        ]

    def after_round(self) -> dict:
        full, half = self.full.read_text(), self.half.read_text()
        appended = len(half.encode()) - len(checks.half_checkpoint(full).encode())
        return {"full": full, "half": half, "checkpoint_bytes": len(full.encode()) + appended}

    def check(self, outcomes: list[Outcome], artifacts: list[dict], run) -> None:
        ref = checks.search_reference(20, row_sum=False, balance=True)
        payloads = {}
        for i, outcome in enumerate(outcomes):
            payloads[f"{outcome.label}#{i}"] = payload = _expect(outcome, 0)
            checks.check_search(payload, ref)
        payloads["serial"] = _expect(run(Op("serial", ORDER20)), 0)
        checks.check_same_payload(payloads)
        for art in artifacts:
            checks.check_checkpoints(art["full"], art["half"], PARTITIONS)


class Matrices:
    """Parsing, gram products, listing recovery, the oracle and block analysis."""

    name = "matrices"

    def __init__(self, work: Path, seed: int):
        self.work = work
        self.headline = Op("verify-1024", ["verify", str(work / "m1024.txt"), "--format", "json"])
        self.rows = analyze_rows(seed)

    def build_inputs(self, run) -> None:
        w = self.work
        for family, extra, name in (
            ("c4", ["--extend", "c4", "--times", "4"], "m1024.txt"),
            ("q8c2", [], "q8c2.txt"),
            ("c2c8", [], "c2c8.txt"),
            ("c2c8", ["--extend", "c4", "--times", "1"], "ext64.txt"),
        ):
            require(run(Op(name, ["construct", "--family", family, *extra, "--out", str(w / name)])).exit_code == 0,
                    f"construct of {name} failed")

    def ops(self) -> list[Op]:
        w = self.work
        return [
            Op("construct-1024", ["construct", "--family", "c4", "--extend", "c4", "--times", "4",
                                  "--out", str(w / "round1024.txt")]),
            Op("verify-1024", ["verify", str(w / "round1024.txt"), "--format", "json"]),
            Op("verify-q8c2", ["verify", str(w / "q8c2.txt"), "--group", "Q8xC2", "--format", "json"]),
            Op("recover-c16", ["recover", "--file", str(w / "c2c8.txt"), "--group", "C16", "--format", "json"]),
            Op("crosscheck", CROSSCHECK),
            *(Op(f"analyze-{i}", ["analyze", f"--row={row}", "--layout", "paired", "--format", "json"])
              for i, row in enumerate(self.rows)),
            Op("recover-ext64", ["recover", "--file", str(w / "ext64.txt"), "--group", "C2xC8xC4",
                                 "--format", "json"], deadline_s=RECOVER_DEADLINE_S),
        ]

    def after_round(self) -> dict:
        return {"round1024_sha256": hashlib.sha256((self.work / "round1024.txt").read_bytes()).hexdigest()}

    def check(self, outcomes: list[Outcome], artifacts: list[dict], run) -> None:
        w = self.work
        m1024 = checks.c4_kronecker_power(4)
        summary = checks.gram_summary(m1024)  # the one 1024x1024 product of the run
        require(summary["hadamard"], "reference 1024 matrix is not Hadamard")
        for name in ("m1024.txt", "round1024.txt"):
            require(np.array_equal(checks.parse_rows((w / name).read_text()), m1024),
                    f"{name} is not the c4 Kronecker power")
        require(len({a["round1024_sha256"] for a in artifacts}) == 1, "construct wrote different files")

        q8c2 = checks.parse_rows((w / "q8c2.txt").read_text())
        c2c8 = checks.parse_rows((w / "c2c8.txt").read_text())
        ext64 = checks.parse_rows((w / "ext64.txt").read_text())
        for name, a in (("q8c2", q8c2), ("c2c8", c2c8), ("ext64", ext64)):
            require(checks.gram_summary(a)["hadamard"], f"{name} input is not Hadamard")
        # No circulant Hadamard row of order 16 exists (brute force), so the
        # Hadamard c2c8 matrix cannot be an RG-matrix over C16.
        sweep16 = checks.search_reference(16, row_sum=False, balance=False)
        require(sweep16.found == [], "order 16 has a flat row")

        for o in outcomes:
            if o.label == "construct-1024":
                require(o.exit_code == 0 and o.stdout == "", f"construct exited {o.exit_code}")
            elif o.label == "verify-1024":
                checks.check_gram(_expect(o, 0), summary)
            elif o.label == "verify-q8c2":
                payload = _expect(o, 0)
                checks.check_gram(payload, checks.gram_summary(q8c2))
                checks.check_verify_rg(payload, q8c2, "Q8xC2")
            elif o.label == "recover-c16":
                checks.check_recover(_expect(o, 1), c2c8, "C16", expect_found=False)
            elif o.label == "crosscheck":
                checks.check_search(_expect(o, 0), sweep16, paf_prefix=False, crosschecked=1 << 15)
            elif o.label.startswith("analyze-"):
                checks.check_analyze(o.payload(), self.rows[int(o.label.split("-")[1])], o.exit_code)
            elif o.label == "recover-ext64":
                checks.check_recover(_expect(o, 0), ext64, "C2xC8xC4", expect_found=True)
            else:
                raise checks.CheckFailed(f"unknown op {o.label}")


def analyze_rows(seed: int) -> list[str]:
    """Order-32 rows from the seed: half uniform, half with 8 even and 8 odd blocks."""
    rng = np.random.default_rng(seed)
    blocks = ANALYZE_ORDER // 2
    rows = []
    for i in range(ANALYZE_ROWS):
        if i % 2 == 0:
            signs = rng.choice([1, -1], ANALYZE_ORDER)
        else:
            odd = rng.permutation([0, 1] * (blocks // 2))
            first = rng.choice([1, -1], blocks)
            signs = np.stack([first, np.where(odd == 1, -first, first)], axis=1).ravel()
        rows.append(checks.row_string(signs))
    return rows


WORKLOADS = {w.name: w for w in (SearchSerial, SearchParallel, Matrices)}
