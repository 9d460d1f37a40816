"""Spans around circhad's public entry points, recorded from outside `src/`.

`Tracer.installed()` swaps each target attribute for a timing wrapper and puts
the original back on exit, so untraced rounds run the program unchanged. The
CLI binds most entry points by name at import, so those are wrapped in
`circhad.cli`; the kernel and the gram oracle are looked up on their modules
at call time, so they are wrapped there.

A span records its layer, wall start and end, the calling thread's CPU time,
the enclosing span, the round and the operation that caused it, and the
counts its layer exposes. Spans stay in memory until the run writes them out.
"""

from __future__ import annotations

import threading
import time
from contextlib import contextmanager
from statistics import median


def _kernel_counts(args, result):
    return {"rows_reached": int(result[0])}


def _oracle_counts(args, result):
    return {"rows": len(args[0])}


def _search_counts(args, result):
    return {
        "workers": int(args[0].workers),
        **{f"{phase}_s": float(seconds) for phase, seconds in result.timings.items()},
    }


def targets(circhad):
    """(layer, module, attribute, counter) for every wrapped entry point."""
    cli = circhad.cli
    kernel = circhad.searchengine._kernel
    return [
        ("kernel", kernel, "scan_subtree", _kernel_counts),
        ("oracle", circhad.searchengine._pykernel, "gram_hadamard_batch", _oracle_counts),
        ("search", cli, "search", _search_counts),
        ("hadamard.is_hadamard", cli, "is_hadamard", None),
        ("groupring.is_rg_matrix", cli, "is_rg_matrix", None),
        ("groupring.recover_listing", cli, "recover_listing", None),
        ("matrixio.parse", cli, "parse_matrix_document", None),
        ("matrixio.emit", cli, "emit_matrix_document", None),
        ("matrixio.emit", cli, "emit_report", None),
        ("constructions.kronecker", cli, "kronecker_extend", None),
        ("blocks.block_system", cli, "block_system", None),
        ("blocks.conditions_report", cli, "conditions_report", None),
        ("blocks.matching_report", cli, "matching_report", None),
        ("groups.build", cli, "group_by_name", None),
    ]


class Tracer:
    def __init__(self, circhad):
        self.spans: list[dict] = []
        self.round: int | None = None
        self.op: str | None = None
        self._targets = targets(circhad)
        self._lock = threading.Lock()
        self._local = threading.local()

    def _wrap(self, layer, fn, counter):
        def traced(*args, **kwargs):
            stack = self._local.__dict__.setdefault("stack", [])
            span = {
                "layer": layer,
                "parent": stack[-1] if stack else None,
                "round": self.round,
                "op": self.op,
                "thread": threading.get_ident(),
            }
            with self._lock:
                span["id"] = len(self.spans)
                self.spans.append(span)
            stack.append(span["id"])
            cpu0 = time.thread_time()
            span["start"] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span["end"] = time.perf_counter()
                span["cpu_s"] = time.thread_time() - cpu0
                stack.pop()
            if counter is not None:
                span.update(counter(args, result))
            return result

        return traced

    @contextmanager
    def installed(self):
        saved = [(module, attr, getattr(module, attr)) for _, module, attr, _ in self._targets]
        try:
            for layer, module, attr, counter in self._targets:
                setattr(module, attr, self._wrap(layer, getattr(module, attr), counter))
            yield self
        finally:
            for module, attr, original in saved:
                setattr(module, attr, original)


def _wall(span):
    return span["end"] - span["start"]


def round_layers(spans: list[dict]) -> dict[str, float]:
    """Per-layer totals of one round's spans."""
    by = {}
    for span in spans:
        by.setdefault(span["layer"], []).append(span)
    kernel, search = by.get("kernel", []), by.get("search", [])
    kernel_cpu = sum(s["cpu_s"] for s in kernel)
    worker_seconds = sum(s["workers"] * s["enumeration_s"] for s in search)
    blocks = [s for layer in ("blocks.block_system", "blocks.conditions_report",
                              "blocks.matching_report") for s in by.get(layer, [])]
    resume_full = [_wall(s) for s in search if s["op"] == "resume-full"]
    return {
        "kernel.scan_s": kernel_cpu,
        "kernel.calls": len(kernel),
        "kernel.rows_reached": sum(s["rows_reached"] for s in kernel),
        "kernel.slowest_partition_s": max((_wall(s) for s in kernel), default=0.0),
        "search.analytic_s": sum(s["analytic_s"] for s in search),
        "search.enumeration_s": sum(s["enumeration_s"] for s in search),
        "search.finalize_s": sum(s["finalize_s"] for s in search),
        "search.parallel_efficiency": kernel_cpu / worker_seconds if worker_seconds else 0.0,
        "checkpoint.resume_full_s": sum(resume_full),
        "oracle.gram_s": sum(_wall(s) for s in by.get("oracle", [])),
        "oracle.rows": sum(s["rows"] for s in by.get("oracle", [])),
        "hadamard.is_hadamard_s": sum(_wall(s) for s in by.get("hadamard.is_hadamard", [])),
        "groupring.is_rg_matrix_s": sum(_wall(s) for s in by.get("groupring.is_rg_matrix", [])),
        "groupring.recover_listing_s": sum(_wall(s) for s in by.get("groupring.recover_listing", [])),
        "matrixio.parse_s": sum(_wall(s) for s in by.get("matrixio.parse", [])),
        "matrixio.emit_s": sum(_wall(s) for s in by.get("matrixio.emit", [])),
        "constructions.kronecker_s": sum(_wall(s) for s in by.get("constructions.kronecker", [])),
        "blocks.analyze_s": sum(_wall(s) for s in blocks),
        "blocks.rows": len(by.get("blocks.block_system", [])),
        "groups.build_s": sum(_wall(s) for s in by.get("groups.build", [])),
    }


def layer_metrics(spans: list[dict], rounds: list[int]) -> dict[str, float]:
    """Median over the traced rounds of each per-round layer total."""
    per_round = [round_layers([s for s in spans if s["round"] == r]) for r in rounds]
    return {name: median(totals[name] for totals in per_round) for name in per_round[0]}
