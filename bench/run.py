#!/usr/bin/env python3
"""Benchmark for qreider: end-to-end metrics, or per-layer metrics with --trace 1.

    python3 bench/run.py --workload claim-sweep --seed 1 --seconds 10 --trace 0
    python3 bench/run.py                      # every workload, one after another, 20 s each

The library is imported from ``src/`` next to this directory.  A run:

1. sets up ``SETUP_REPEATS`` times (a fresh import of every ``qreider``
   module plus the workload's fixed warm-up call) and reports the median;
2. builds one round of seeded operations and repeats whole rounds until the
   operations have taken ``--seconds`` of time; each operation is timed alone,
   its time is rescaled to reference speed (see ``SpeedProbe``), and its
   output is checked against the oracles outside the timing;
3. with ``--trace 1``, runs one more round with every public function and
   method of the library wrapped in spans, and reports per-layer metrics.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import gc
import importlib
import json
import math
import os
import re
import resource
import shutil
import statistics
import subprocess
import sys
import time
from bisect import bisect_left, bisect_right
from dataclasses import dataclass
from fractions import Fraction
from itertools import accumulate
from pathlib import Path
from types import SimpleNamespace

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORK = ROOT / ".bench_build" / "qreider-bench"
SETUP_REPEATS = 5
LIB_MODULES = ("lattice", "surface", "cones", "criteria", "search", "document", "report", "cli")

# stdlib modules the library imports, loaded once so every timed set-up
# measures the library's own import work
for _name in ("argparse", "dataclasses", "enum", "fractions", "itertools", "json", "math", "numbers",
              "operator", "re", "typing", "warnings"):
    importlib.import_module(_name)

sys.path.insert(0, str(HERE))
from tracer import Tracer  # noqa: E402
from workloads import FAULT_RULES, WORKLOADS  # noqa: E402

# The host's speed drifts by a quarter over tens of seconds, more than any
# bound a metric could carry.  Each timed operation is therefore followed by
# fixed reference work (stdlib code only, no qreider) worth about REF_SHARE of
# its time, and every time is rescaled by the reference's speed in the same
# round: time * chunk_ns / (measured ns per chunk), where chunk_ns is the
# chunk's time on the machine the README's figures come from.
REF_SHARE = 0.1
SPEED_WINDOW_NS = 250_000_000  # an operation's time is rescaled by the reference's speed within this of it


def arithmetic_chunk() -> Fraction:
    total = Fraction(0)
    for i in range(1, 13):
        total += Fraction(i % 7 + 1, i % 5 + 2) * Fraction(3, i % 4 + 1)
    return total


@dataclass(frozen=True)
class _Named:
    name: str
    value: int


_NAMED = tuple(_Named(f"c{i}", i) for i in range(300))
_WANTED = ("c250", "c120", "c299", "c17", "c201", "c288", "c64", "c275", "c190", "c233", "c98", "c261")
_TOKEN = re.compile(r"\s*(?:(\d+)|([A-Za-z_]\w*)|(.))")
_LINE = "divisor D = 3 G + 5 F - 2 c17 + 1/2 c250"


def lookup_chunk() -> int:
    found = 0
    for want in _WANTED:
        for item in _NAMED:
            if item.name == want:
                found += item.value
                break
    return found + len(_TOKEN.findall(_LINE))


# The drift does not slow every kind of work alike.  Fraction arithmetic
# tracks the claim, search and checker workloads; name lookups by linear scan
# and tokenising track document parsing, which arithmetic tracks poorly.
ARITHMETIC = (arithmetic_chunk, 80_000)
LOOKUP = (lookup_chunk, 72_000)
REFERENCE = {"claim-sweep": ARITHMETIC, "search-exhaust": ARITHMETIC, "witness-mix": ARITHMETIC, "doc-scale": LOOKUP}


class SpeedProbe:
    """Reference work interleaved with the timed work, and its speed over time."""

    def __init__(self, chunk, chunk_ns: int):
        self.chunk, self.chunk_ns = chunk, chunk_ns
        self.mids: list[int] = []  # per sample: midpoint, time taken, chunks done
        self.ns: list[int] = []
        self.chunks: list[int] = []

    def sample(self, worth_ns: float) -> None:
        clock, chunk = time.perf_counter_ns, self.chunk
        t0, done = clock(), 0
        while True:
            chunk()
            done += 1
            now = clock()
            if now - t0 >= worth_ns:
                break
        self.mids.append((t0 + now) // 2)
        self.ns.append(now - t0)
        self.chunks.append(done)

    def scale(self) -> float:
        """Factor that turns a time measured here into reference-speed time."""
        return self.chunk_ns * sum(self.chunks) / sum(self.ns)

    def scales_at(self, mids: list[int]) -> list[float]:
        """The factor at each moment, from the samples within SPEED_WINDOW_NS of it."""
        ns, chunks = list(accumulate(self.ns, initial=0)), list(accumulate(self.chunks, initial=0))
        out = []
        for mid in mids:
            lo = min(bisect_left(self.mids, mid - SPEED_WINDOW_NS), len(self.mids) - 1)
            hi = max(bisect_right(self.mids, mid + SPEED_WINDOW_NS), lo + 1)
            out.append(self.chunk_ns * (chunks[hi] - chunks[lo]) / (ns[hi] - ns[lo]))
        return out


UNITS = {"ops_per_s": "1/s", "op_p50_ms": "ms", "op_p90_ms": "ms", "peak_rss_mb": "MB", "setup_s": "s",
         "search.candidate_us": "us", "criteria.witness_found_ratio": "ratio",
         "document.parse.size_exponent": "1"}


def unit_of(metric: str) -> str:
    if metric in UNITS:
        return UNITS[metric]
    return "count" if metric.endswith((".calls", ".candidates", ".rejected")) else "s"


class BenchError(RuntimeError):
    """The benchmark cannot run here (missing sources or inputs)."""


def import_library() -> SimpleNamespace:
    """Import every library module afresh and check it comes from this checkout."""
    for name in [m for m in sys.modules if m == "qreider" or m.startswith("qreider.")]:
        del sys.modules[name]
    src = str(ROOT / "src")
    if sys.path[0] != src:
        sys.path.insert(0, src)
    try:
        mods = {short: importlib.import_module(f"qreider.{short}") for short in LIB_MODULES}
    except ImportError as exc:
        raise BenchError(f"cannot import qreider from {src}: {exc}") from exc
    origin = Path(mods["cli"].__file__).resolve()
    if ROOT / "src" not in origin.parents:
        raise BenchError(f"qreider was imported from {origin}, not from this checkout")
    return SimpleNamespace(root=ROOT, **mods)


def set_up(workload_cls, workdir: Path) -> tuple[SimpleNamespace, float, float]:
    """Median set-up time, rescaled to reference speed, and the same unscaled."""
    import_library()  # loads remaining stdlib dependencies and writes bytecode caches
    scaled, raw = [], []
    for _ in range(SETUP_REPEATS):
        gc.collect()
        t0 = time.perf_counter_ns()
        lib = import_library()
        workload_cls.warmup(lib, workdir)
        dt = time.perf_counter_ns() - t0
        probe = SpeedProbe(*REFERENCE[workload_cls.name])
        probe.sample(dt)  # set-up is short, so probe for as long again
        scaled.append(dt * probe.scale())
        raw.append(dt)
    return lib, statistics.median(scaled) / 1e9, statistics.median(raw) / 1e9


class Phase:
    """Whole rounds of a workload's operations, each timed alone."""

    def __init__(self):
        self.latencies: list[int] = []
        self.attempted = self.failed = self.unexpected = self.rounds = 0
        self.round_ns: list[float] = []  # operation time of each round, at reference speed
        self.round_scale: list[float] = []
        self.scaled: list[float] = []  # every operation's time, at reference speed
        self.problems: list[str] = []
        self.op_parse_ns: list[tuple[int, int]] = []  # (document size, parse self ns), traced only

    @property
    def busy_ns(self) -> int:
        return sum(self.latencies)

    def run(self, wl, seconds: float = 0.0, rounds: int = 0, tracer: Tracer | None = None) -> "Phase":
        """Whole rounds until ``seconds`` of operation time, or ``rounds`` rounds.

        Every operation is followed by the speed probe, outside the traced spans.
        """
        clock = time.perf_counter_ns
        parse = ["document.parse"]
        while (rounds and self.rounds < rounds) or (not rounds and self.busy_ns < seconds * 1e9):
            gc.collect()
            start = len(self.latencies)
            probe, mids = SpeedProbe(*REFERENCE[wl.name]), []
            for op in wl.ops:
                error = None
                before = tracer.self_ns_of(parse) if tracer else 0
                t0 = clock()
                try:
                    out = tracer.root(wl.run, op) if tracer else wl.run(op)
                except Exception as exc:  # an operation that raises counts as failed
                    out, error = None, exc
                dt = clock() - t0
                if tracer and "size" in op.meta:
                    self.op_parse_ns.append((op.meta["size"], tracer.self_ns_of(parse) - before))
                self.latencies.append(dt)
                mids.append(t0 + dt // 2)
                probe.sample(dt * REF_SHARE)
                bad = [f"raised {error!r}"] if error else wl.check(op, out)
                self.attempted += 1
                if bad:
                    self.failed += 1
                    if not (op.known_fault and set(bad) <= FAULT_RULES):
                        self.unexpected += 1
                    if len(self.problems) < 20:
                        self.problems.append(f"{op.kind}{op.args if op.kind != 'search' else ''}: {'; '.join(bad)}")
            self.rounds += 1
            raw = self.latencies[start:]
            lat = [dt * f for dt, f in zip(raw, probe.scales_at(mids))]
            self.round_scale.append(probe.scale())
            self.round_ns.append(sum(lat))
            self.scaled += lat
        return self


def peak_rss_kb() -> int:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss


def end_to_end(phase: Phase, setup_s: float, base_rss_kb: int) -> dict[str, float]:
    """Throughput from the median round; all times at reference speed.

    The latency percentiles are taken over the operations of a round, each
    at its median over the rounds.  A round mixes operations whose costs
    differ by orders of magnitude, so a percentile over every sample can sit
    on the edge between two of them and follow the noise of their extremes.
    The operations of a round are the whole population, not a sample of it,
    so the 90th percentile interpolates inside them and never extrapolates
    past the slowest (``doc-scale`` has six).

    Peak memory counts from ``base_rss_kb``, the peak before the library was
    first imported, so the interpreter and the harness are left out."""
    per_round = phase.attempted // phase.rounds
    typical = [statistics.median(phase.scaled[i::per_round]) for i in range(per_round)]
    return {
        "setup_s": setup_s,
        "ops_per_s": per_round / (statistics.median(phase.round_ns) / 1e9),
        "op_p50_ms": statistics.median(typical) / 1e6,
        "op_p90_ms": statistics.quantiles(typical, n=10, method="inclusive")[8] / 1e6,
        "peak_rss_mb": (peak_rss_kb() - base_rss_kb) / 1024,
    }


def per_layer(tracer: Tracer, traced: Phase, untraced: Phase, wl) -> tuple[dict[str, float], list[str]]:
    layers, absent = tracer.layer_metrics()
    candidates = layers["search.candidates"]
    search_s = tracer.total("incl", ["search.search_params"])
    layers["search.candidate_us"] = search_s / candidates * 1e6 if candidates else 0.0
    feasible = getattr(wl, "feasible", 0)
    layers["criteria.witness_found_ratio"] = wl.found / feasible if feasible else 0.0
    layers["document.parse.size_exponent"] = size_exponent(traced.op_parse_ns)
    # traced time as measured, against the untraced round brought back to the host's speed
    layers["trace.overhead_s"] = (traced.round_ns[0] - statistics.median(untraced.round_ns)) / 1e9
    return layers, absent


def size_exponent(samples: list[tuple[int, int]]) -> float:
    """Log-log slope of parse time from the smallest to the largest document."""
    if not samples:
        return 0.0
    by_size: dict[int, list[int]] = {}
    for size, ns in samples:
        by_size.setdefault(size, []).append(ns)
    lo, hi = min(by_size), max(by_size)
    t_lo, t_hi = statistics.median(by_size[lo]), statistics.median(by_size[hi])
    if lo == hi or t_lo <= 0 or t_hi <= 0:
        return 0.0
    return math.log(t_hi / t_lo) / math.log(hi / lo)


def run_one(name: str, seed: int, seconds: float, trace: bool) -> dict:
    workload_cls = WORKLOADS[name]
    workdir = WORK / f"work-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    base_rss_kb = peak_rss_kb()
    try:
        lib, setup_s, setup_raw_s = set_up(workload_cls, workdir)
        wl = workload_cls(lib, seed, workdir)
        timed = Phase().run(wl, seconds=seconds)
        phases = [timed]
        print(f"{name}: seed {seed}, {timed.rounds} rounds of {len(wl.ops)} operations, "
              f"{timed.attempted} attempted, {timed.failed} failed")
        scales = timed.round_scale
        print(f"  host speed relative to reference: median {1 / statistics.median(scales):.3f}, "
              f"range {1 / max(scales):.3f}-{1 / min(scales):.3f}; unscaled setup_s {setup_raw_s:.4f}, "
              f"ops_per_s {timed.attempted / (timed.busy_ns / 1e9):.2f}")
        if trace:
            tracer = Tracer()
            tracer.install()
            try:
                traced = Phase().run(wl, rounds=1, tracer=tracer)
            finally:
                tracer.uninstall()
            phases.append(traced)
            metrics, absent = per_layer(tracer, traced, timed, wl)
            spans = WORK / f"trace-{name}.tsv.gz"
            tracer.write(spans)
            print(f"  traced one round: {len(tracer.span_name)} spans written to {spans.relative_to(ROOT)}")
            for item in absent:
                print(f"  absent: {item}")
        else:
            metrics = end_to_end(timed, setup_s, base_rss_kb)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    for metric, value in metrics.items():
        print(f"  {metric:<38} {value:>14.6g} {unit_of(metric)}")
    problems = [p for ph in phases for p in ph.problems]
    for p in problems[:10]:
        print(f"  failed: {p}", file=sys.stderr)
    return {
        "correct": not any(ph.unexpected for ph in phases),
        "attempted": sum(ph.attempted for ph in phases),
        "failed": sum(ph.failed for ph in phases),
        "metrics": {k: {"value": v, "unit": unit_of(k)} for k, v in metrics.items()},
    }


def run_all(args) -> dict:
    """Every workload in its own process, as the single-workload runs are made."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOADS:
        cmd = [sys.executable, str(Path(__file__)), "--workload", name, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace)]
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, timeout=600)
        lines = proc.stdout.strip().splitlines()
        print("\n".join(lines[:-1]))
        if proc.returncode != 0 or not lines:
            raise BenchError(f"workload {name} exited with code {proc.returncode}")
        result = json.loads(lines[-1])
        combined["correct"] &= result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        for metric, entry in result["metrics"].items():
            combined["metrics"][f"{name}.{metric}"] = entry
    return combined


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", choices=sorted(WORKLOADS) + ["all"], default="all")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    try:
        if args.workload == "all":
            result = run_all(args)
        else:
            result = run_one(args.workload, args.seed, args.seconds, bool(args.trace))
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
