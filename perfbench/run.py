"""Benchmark for circhad: run one workload for a fixed time and print its metrics.

    python3 perfbench/run.py --workload search-serial --seed 1 --seconds 20 --trace 0

Runs from the root of a source checkout with no install and no build: the
package is imported from `src/`, and child processes get `PYTHONPATH=src`.
With `--trace 0` the last stdout line is a JSON object with the end-to-end
metrics; with `--trace 1` it carries the per-layer metrics of a traced run.
A fuller record of each run is written under `perfbench/out/`.
"""

from __future__ import annotations

import argparse
import contextlib
import dataclasses
import io
import json
import os
import platform
import resource
import shutil
import subprocess
import sys
import time
from pathlib import Path
from statistics import median

import numpy as np

import checks
from tracer import Tracer, layer_metrics
from workloads import WORKLOADS, Op, Outcome

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = Path(__file__).resolve().parent / "out"

MIN_ROUNDS = 3  # per kind: untraced, and traced when tracing
CHILD_TIMEOUT_S = 120

END_TO_END = {"setup_s": "s", "round_s": "s", "cli_s": "s", "peak_rss_mb": "MB"}
PER_LAYER = {
    "kernel.scan_s": "s",
    "kernel.calls": "count",
    "kernel.rows_reached": "count",
    "kernel.slowest_partition_s": "s",
    "search.analytic_s": "s",
    "search.enumeration_s": "s",
    "search.finalize_s": "s",
    "search.parallel_efficiency": "ratio",
    "checkpoint.bytes": "B",
    "checkpoint.resume_full_s": "s",
    "oracle.gram_s": "s",
    "oracle.rows": "count",
    "hadamard.is_hadamard_s": "s",
    "groupring.is_rg_matrix_s": "s",
    "groupring.recover_listing_s": "s",
    "matrixio.parse_s": "s",
    "matrixio.emit_s": "s",
    "constructions.kronecker_s": "s",
    "blocks.analyze_s": "s",
    "blocks.rows": "count",
    "groups.build_s": "s",
    "process.import_s": "s",
    "trace.overhead_s": "s",
}


def import_circhad():
    """Import the package from this checkout's src/, never an installed copy."""
    sys.path.insert(0, str(SRC))
    import circhad
    import circhad.cli

    if Path(circhad.__file__).resolve().parent != SRC / "circhad":
        raise ImportError(f"circhad was imported from {circhad.__file__}, not {SRC}")
    return circhad


class Runner:
    """Runs one op: in-process through cli.main, or as a fresh child process."""

    def __init__(self, main, tracer: Tracer | None = None):
        self.main = main
        self.tracer = tracer
        self.env = {**os.environ, "PYTHONPATH": str(SRC)}

    def __call__(self, op: Op) -> Outcome:
        if op.before is not None:
            op.before()
        if op.deadline_s is not None:
            return self.child(op, op.deadline_s)
        if self.tracer is not None:
            self.tracer.op = op.label
        out = io.StringIO()
        t0 = time.perf_counter()
        try:
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
                code = self.main(op.argv)
        except (Exception, SystemExit) as exc:  # a crash is a failed operation, not the end of the run
            return Outcome(op.label, None, out.getvalue(), time.perf_counter() - t0, repr(exc))
        return Outcome(op.label, code, out.getvalue(), time.perf_counter() - t0)

    def child(self, op: Op, timeout: float) -> Outcome:
        t0 = time.perf_counter()
        try:
            proc = subprocess.run([sys.executable, "-m", "circhad", *op.argv], capture_output=True,
                                  text=True, timeout=timeout, env=self.env, cwd=ROOT)
        except subprocess.TimeoutExpired:
            return Outcome(op.label, None, "", time.perf_counter() - t0, f"no answer within {timeout}s")
        error = proc.stderr.strip()[-500:] or None
        return Outcome(op.label, proc.returncode, proc.stdout, time.perf_counter() - t0, error)


def setup_probe(workload: str, seed: int, work: Path) -> tuple[float, float]:
    """Wall time from starting a fresh interpreter until the inputs are built, and its import time."""
    t0 = time.perf_counter()
    proc = subprocess.Popen(
        [sys.executable, str(Path(__file__).resolve().parent / "probe.py"), workload, str(seed), str(work)],
        stdout=subprocess.PIPE, text=True, cwd=ROOT,
    )
    try:
        line = proc.stdout.readline()
        wall = time.perf_counter() - t0
        proc.stdout.read()
        proc.wait(timeout=CHILD_TIMEOUT_S)
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()
        proc.stdout.close()
    if proc.returncode != 0 or not line.startswith("ready "):
        raise RuntimeError(f"setup probe exited {proc.returncode}")
    return wall, float(line.split()[1])


def git_revision() -> str:
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
    except OSError:
        return "unknown"
    if not head.startswith("ref: "):
        return head
    ref = head[5:]
    if (git / ref).is_file():
        return (git / ref).read_text().strip()
    packed = git / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    return "unknown"


def run_benchmark(args, work: Path) -> dict:
    circhad = import_circhad()
    tracer = Tracer(circhad) if args.trace else None
    run = Runner(circhad.cli.main, tracer)
    workload = WORKLOADS[args.workload](work, args.seed)
    workload.build_inputs(run)
    fresh = dataclasses.replace(workload.headline, deadline_s=CHILD_TIMEOUT_S)
    ops = workload.ops()

    # Each pass takes one sample of every metric, so a slow spell of the
    # machine touches all of them alike instead of one whole metric.
    probes: list[tuple[float, float]] = []
    headline: list[Outcome] = []
    outcomes: list[Outcome] = []
    artifacts: list[dict] = []
    round_s: dict[bool, list[float]] = {False: [], True: []}
    traced_rounds: list[int] = []
    kinds = (False, True) if args.trace else (False,)
    start = time.perf_counter()
    while True:
        index = len(artifacts)
        probe_dir = work / f"probe-{index}"
        probe_dir.mkdir()
        probes.append(setup_probe(args.workload, args.seed, probe_dir))
        shutil.rmtree(probe_dir)
        traced = kinds[index % len(kinds)]
        if not args.trace:
            headline.append(run(fresh))
        if traced:
            tracer.round = index
            traced_rounds.append(index)
        scope = tracer.installed() if traced else contextlib.nullcontext()
        t0 = time.perf_counter()
        with scope:
            outcomes.extend(run(op) for op in ops)
        round_s[traced].append(time.perf_counter() - t0)
        artifacts.append(workload.after_round())
        enough = all(len(round_s[k]) >= MIN_ROUNDS for k in kinds)
        if enough and time.perf_counter() - start >= args.seconds:
            break
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

    problems = [f"{o.label}: {o.error}" for o in headline if o.failed]
    try:
        workload.check([o for o in outcomes + headline if not o.failed], artifacts, run)
    except (checks.CheckFailed, KeyError, TypeError, ValueError) as exc:
        problems.append(f"{type(exc).__name__}: {exc}")

    if args.trace:
        metrics = layer_metrics(tracer.spans, traced_rounds)
        metrics["checkpoint.bytes"] = median(a.get("checkpoint_bytes", 0) for a in artifacts)
        metrics["process.import_s"] = median(imp for _, imp in probes)
        metrics["trace.overhead_s"] = median(round_s[True]) - median(round_s[False])
        units = PER_LAYER
    else:
        metrics = {
            "setup_s": median(wall for wall, _ in probes),
            "round_s": median(round_s[False]),
            "cli_s": median(o.seconds for o in headline),
            "peak_rss_mb": peak_rss_mb,
        }
        units = END_TO_END

    failures = [o for o in outcomes if o.failed]
    record = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "machine": {
            "nproc": os.cpu_count(),
            "python": platform.python_version(),
            "numpy": np.__version__,
            "backend": circhad.KERNEL_BACKEND,
            "git_revision": git_revision(),
        },
        "rounds": {"untraced_s": round_s[False], "traced_s": round_s[True]},
        "op_median_s": {op.label: median(o.seconds for o in outcomes if o.label == op.label) for op in ops},
        "cli_s": [o.seconds for o in headline],
        "setup": [{"wall_s": wall, "import_s": imp} for wall, imp in probes],
        "failures": sorted({f"{o.label}: {o.error}" for o in failures}),
        "problems": problems,
        "result": {
            "correct": not problems,
            "attempted": len(outcomes),
            "failed": len(failures),
            "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in units.items()},
        },
    }
    if args.trace:
        record["spans_file"] = _write(f"{args.workload}-seed{args.seed}-spans.json", tracer.spans)
    return record


def _write(name: str, data) -> str:
    OUT.mkdir(exist_ok=True)
    (OUT / name).write_text(json.dumps(data, indent=1) + "\n")
    return str((OUT / name).relative_to(ROOT))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args(argv)

    if not (SRC / "circhad" / "__init__.py").is_file():
        print(f"error: no circhad sources under {SRC}", file=sys.stderr)
        return 2

    work = OUT / f"work-{os.getpid()}"
    work.mkdir(parents=True)
    try:
        record = run_benchmark(args, work)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    _write(f"{args.workload}-seed{args.seed}-trace{args.trace}.json", record)
    for line in record["problems"] + record["failures"]:
        print(f"{args.workload}: {line}", file=sys.stderr)
    print(json.dumps(record["result"]))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
