#!/usr/bin/env python3
"""Benchmark of plft-forest: four workloads, end-to-end metrics, and a traced run.

Run from the repository root, which must hold ``src/plft_forest``:

    python3 bench/run.py --workload tree_small --seed 1 --seconds 20 --trace 0

Workloads are ``tree_small``, ``tree_runs``, ``census`` and ``cli`` (see
``workloads.py`` and ``BENCHMARK.json`` for why each exists).  One client
runs each workload's ops back to back for ``--seconds``, finishing the
round it is in, and checks every answer.

``--trace 0`` reports the end-to-end metrics; ``--trace 1`` runs the
workload untraced for half the time, replays some of its rounds untraced
and then with every library function wrapped (see ``tracing.py``),
reports the per-layer metrics and writes the spans to ``.bench_trace/``.
A readable report goes to stderr; the last line of stdout is one JSON
object with the keys ``correct``, ``attempted``, ``failed`` and ``metrics``.

Set-up (import, input generation and warm-up) is timed in this process
and in eight fresh ones, started one at a time at even intervals across
the measured time; ``setup_s`` is the median of the nine.
"""

from __future__ import annotations

import argparse
import importlib
import json
import math
import os
import resource
import statistics
import subprocess
import sys
from itertools import islice
from pathlib import Path
from time import perf_counter

import workloads as W
from tracing import Tracer

ROOT = Path.cwd()
SRC = ROOT / "src"
WORKLOADS = ("tree_small", "tree_runs", "census", "cli")
SETUP_PROBES = 8
# The timings come from the slowest rounds holding this share of the run's
# ops, and at least MIN_SAMPLE ops so that p90 has 10 samples beyond it
# (see slow_sample).
SLOW_SHARE = 0.1
MIN_SAMPLE = 100
WARMUP_OPS = 2
TRACE_DIR = ROOT / ".bench_trace"
# Rounds replayed under tracing: about 1 s, 8 s, 7 s and 1 s of untraced work.
TRACED_ROUNDS = {"tree_small": 64, "tree_runs": 8, "census": 1, "cli": 4}


# ---------------------------------------------------------------------------
# library and set-up
# ---------------------------------------------------------------------------

def load_library(fresh: bool = False):
    """Import ``plft_forest`` from this checkout's ``src``; ``fresh`` re-executes its modules."""
    if fresh:
        for name in [n for n in sys.modules if n == "plft_forest" or n.startswith("plft_forest.")]:
            del sys.modules[name]
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    lib = importlib.import_module("plft_forest")
    if Path(lib.__file__).resolve().parent != (SRC / "plft_forest").resolve():
        raise RuntimeError(f"imported plft_forest from {lib.__file__}, not from {SRC}")
    return lib


def setup(name: str, seed: int):
    """Import, generate inputs and warm up; returns (workload, rounds iterator, seconds taken)."""
    start = perf_counter()
    if name == "cli":
        workload = W.CliWorkload(str(SRC), seed)
        workload.spawn("root 7,8,4,5")
        workload.peak_rss_kb = 0
        return workload, workload.rounds(), perf_counter() - start
    if name == "census":
        workload = W.CensusWorkload(load_library(), seed, lambda: load_library(fresh=True))
    else:
        workload = W.TreeWorkload(load_library(), seed, long_runs=name == "tree_runs")
    rounds = workload.rounds()
    for op in next(rounds)[:WARMUP_OPS]:
        if not op.check(op.run()):
            raise RuntimeError(f"warm-up op of {name} gave a wrong answer")
    return workload, rounds, perf_counter() - start


def setup_probe(name: str, seed: int) -> float:
    """Set-up time of one fresh process, as that process measured it."""
    out = subprocess.run(
        [sys.executable, __file__, "--workload", name, "--seed", str(seed), "--setup-only"],
        capture_output=True, text=True, check=True, timeout=120,
    )
    return json.loads(out.stdout.strip().splitlines()[-1])["setup_s"]


def calibrate_ms() -> float:
    """A fixed pure-Python loop, timed three times; a host-noise diagnostic only."""
    times = []
    for _ in range(3):
        start = perf_counter()
        acc = 0
        for i in range(200_000):
            acc += i * i % 7
        times.append(perf_counter() - start)
    return statistics.median(times) * 1000


# ---------------------------------------------------------------------------
# measuring
# ---------------------------------------------------------------------------

class Round:
    """What a round did; its ops are kept only when they will be replayed."""

    __slots__ = ("ops", "kinds", "bits", "moves", "latencies", "oks")

    def __init__(self, ops, keep):
        self.ops = ops if keep else None
        self.kinds = [op.kind for op in ops]
        self.bits = [op.bits for op in ops]
        self.moves = [op.moves for op in ops]
        self.latencies, self.oks = [], []


def measure(workload, rounds, seconds=None, tracer=None, call=None, keep=0, probe=None):
    """Run whole rounds until ``seconds`` of measuring have passed (or all of ``rounds``).

    The first ``keep`` rounds keep their ops.  ``probe``, if given, is
    called between ops ``SETUP_PROBES`` times at even intervals of the
    measuring time; the time it takes is not counted as measuring time.
    """
    done, failures = [], []
    start = perf_counter()
    probes = 0
    for ops in rounds:
        if hasattr(workload, "begin_round"):
            workload.begin_round()
            if tracer:
                tracer.install(workload.lib)
        rnd = Round(ops, len(done) < keep)
        for op in ops:
            if probe and probes < SETUP_PROBES and perf_counter() - start >= seconds * probes / SETUP_PROBES:
                t0 = perf_counter()
                probe()
                probes += 1
                start += perf_counter() - t0
            if tracer:
                tracer.op_id += 1
            t0 = perf_counter()
            try:
                result = call(op) if call else op.run()
                error = None
            except Exception as exc:  # a raising op counts as failed, and the run goes on
                result, error = None, exc
            rnd.latencies.append(perf_counter() - t0)
            ok = False
            if error is None:
                try:
                    ok = bool(op.check(result))
                except Exception as exc:
                    error = exc
            rnd.oks.append(ok)
            if not ok and len(failures) < 5:
                failures.append(f"{op.kind} {op.argv or ''} -> {error!r}" if error else f"{op.kind} {op.argv or ''}: wrong answer")
        done.append(rnd)
        if seconds is not None and perf_counter() - start >= seconds:
            break
    while probe and probes < SETUP_PROBES:
        probe()
        probes += 1
    return done, failures


def nearest_rank(sorted_values, q):
    return sorted_values[max(0, math.ceil(q * len(sorted_values)) - 1)]


def latencies(done, kind=None):
    return sorted(lat for r in done for k, lat in zip(r.kinds, r.latencies) if kind in (None, k))


def slow_sample(done, repeats):
    """Per-op latencies from the slow spells of the run, sorted (see README).

    When every round runs the same ops (``repeats``), each op counts once,
    at its slowest repeat.  Otherwise the slowest rounds, by ops per
    second, are pooled until they hold ``SLOW_SHARE`` of the run's ops
    and at least ``MIN_SAMPLE`` ops.
    """
    if repeats:
        return sorted(map(max, zip(*(r.latencies for r in done))))
    total, sample = sum(len(r.latencies) for r in done), []
    for r in sorted(done, key=lambda r: len(r.latencies) / sum(r.latencies)):
        sample += r.latencies
        if len(sample) >= max(SLOW_SHARE * total, MIN_SAMPLE):
            break
    return sorted(sample)


def timings(lats):
    """(ops per second, p50 ms, p90 ms) of sorted latencies, nearest rank."""
    return len(lats) / sum(lats), nearest_rank(lats, 0.5) * 1000, nearest_rank(lats, 0.9) * 1000


def end_to_end(sample, setup_s, peak_rss_kb):
    rate, p50, p90 = timings(sample)
    return {
        "throughput_ops_s": (rate, "1/s"),
        "latency_p50_ms": (p50, "ms"),
        "latency_p90_ms": (p90, "ms"),
        "setup_s": (setup_s, "s"),
        "peak_rss_mb": (peak_rss_kb / 1024, "MB"),
    }


# ---------------------------------------------------------------------------
# traced run
# ---------------------------------------------------------------------------

RESULT_COUNTS = {
    "cf.plft_cf_expand": ("cf.quotients", lambda cf: len(cf.quotients)),
    "complex_forest.ancestor_chain": ("complex_forest.chain_steps", lambda chain: len(chain[1])),
}

TOTALS = (
    "plft.parent.calls", "plft.parent.busy_s", "plft.child.calls", "plft.apply_word.busy_s",
    "plft.root_by_iteration.calls", "plft.root_by_iteration.busy_s", "plft.root_by_iteration.self_s",
    "cf.decompose_special.calls", "cf.decompose_special.busy_s", "cf.decompose_special.self_s",
    "cf.orphan_root_cf.calls", "cf.orphan_root_cf.busy_s", "cf.orphan_root_cf.self_s",
    "cf.evaluate_plft_cf.calls", "cf.plft_cf_expand.busy_s",
    "complex_forest.ancestor_chain.calls", "complex_forest.ancestor_chain.busy_s",
    "complex_forest.ancestor_chain.self_s", "complex_forest.complex_parent.calls",
    "complex_forest.complex_parent.busy_s", "complex_forest.replay_chain.busy_s",
    "census.census_row.busy_s", "census.h_direct.busy_s", "census.enumerate_orphans.busy_s",
    "census.nu2.busy_s", "census.summatory_h.busy_s", "census.ratio_series.busy_s",
    "census.harmonic_double_sum.busy_s", "cli.main.calls", "cli.main.busy_s",
)


def import_ms(env) -> float:
    """Median over 7 alternating pairs of (import-only subprocess - bare-interpreter subprocess), in ms."""

    def wall(code):
        start = perf_counter()
        subprocess.run([sys.executable, "-c", code], env=env, check=True, timeout=60)
        return perf_counter() - start

    return statistics.median(wall("import plft_forest.cli") - wall("pass") for _ in range(7)) * 1000


def traced(name, workload, done):
    """Replay the first rounds of ``done`` untraced, then at once with tracing on.

    A fixed number of rounds is replayed, so per-layer totals compare
    across commits; the untraced replay right before the traced one is
    the base of ``trace.overhead_ratio``.  Returns (tracer, traced
    rounds, the same rounds untraced, failures).
    """
    tracer = Tracer(RESULT_COUNTS)
    ops = [r.ops for r in done[:TRACED_ROUNDS[name]]]
    call = None
    if name == "cli":
        call = lambda op: W.run_cli_inprocess(workload.lib.cli, op.argv)  # noqa: E731
        workload.lib = load_library(fresh=True)
        importlib.import_module("plft_forest.cli")  # binds workload.lib.cli
    base, failures = measure(workload, ops, call=call)
    if name == "cli":
        workload.lib = load_library(fresh=True)
    if name != "census":  # census installs the tracer on each round's fresh import
        tracer.install(workload.lib)  # also imports plft_forest.cli
    run, traced_failures = measure(workload, ops, tracer=tracer, call=call)
    return tracer, run, base, failures + traced_failures


def per_layer(name, tracer, traced_rounds, base_rounds, done, calib_ms):
    metrics = {}
    for key in TOTALS:
        fn, field = key.rsplit(".", 1)
        metrics[key] = (tracer.total(fn, field), "count" if field == "calls" else "s")
    evaluations = tracer.nested["cf.orphan_root_cf", "cf.evaluate_plft_cf"]
    roots = tracer.total("cf.orphan_root_cf", "calls")
    metrics["plft.Plft.constructions"] = (tracer.counts["plft.Plft.constructions"], "count")
    metrics["cf.orphan_root_cf.candidate_yield"] = (roots / evaluations if evaluations else 0.0, "ratio")
    metrics["cf.quotients"] = (tracer.counts["cf.quotients"], "count")
    metrics["cf.descend.busy_s"] = (
        tracer.total("cf.ancestors_of_rational", "busy_s") + tracer.total("cf.is_descendant_rational", "busy_s"), "s")
    metrics["complex_forest.chain_steps"] = (tracer.counts["complex_forest.chain_steps"], "count")
    metrics["census.traced_peak_mb"] = (tracer.census_peak_bytes / 2**20, "MB")
    short, numeric = latencies(done, "short"), latencies(done, "numeric")
    metrics["cli.import_ms"] = (import_ms(dict(os.environ, PYTHONPATH=str(SRC))), "ms")
    metrics["cli.short.p50_ms"] = (nearest_rank(short, 0.5) * 1000 if short else 0.0, "ms")
    metrics["cli.numeric.p50_ms"] = (nearest_rank(numeric, 0.5) * 1000 if numeric else 0.0, "ms")
    busy = lambda rounds: sum(sum(r.latencies) for r in rounds)  # noqa: E731
    metrics["trace.overhead_ratio"] = (busy(traced_rounds) / busy(base_rounds), "ratio")
    metrics["host.calib_ms"] = (calib_ms, "ms")
    return metrics


# ---------------------------------------------------------------------------
# report
# ---------------------------------------------------------------------------

def describe(name, done, failures, calib_ms, setup_samples, sample):
    """Readable report of the untraced rounds: sample counts, input sizes, latency by kind and size."""
    lines = [
        f"plft-forest benchmark: workload {name}, {sum(map(len, (r.oks for r in done)))} untraced ops"
        f" in {len(done)} rounds",
        f"  host.calib_ms {calib_ms:.2f}   setup samples (s) {', '.join(f'{s:.3f}' for s in setup_samples)}",
        "  run-wide: throughput_ops_s {:.4f} latency_p50_ms {:.4f} latency_p90_ms {:.4f}".format(*timings(latencies(done))),
    ]
    if sample:
        lines.append(f"  slow sample: {len(sample)} op latencies")
    by_kind: dict[str, list[float]] = {}
    for r in done:
        for kind, lat in zip(r.kinds, r.latencies):
            by_kind.setdefault(kind, []).append(lat)
    for kind, lats in sorted(by_kind.items()):
        lines.append(f"  kind {kind:<20} n={len(lats):<6} p50 {statistics.median(lats) * 1000:.3f} ms")
    if name.startswith("tree"):
        for label, values in (("bits", [b for r in done for b in r.bits]), ("moves", [m for r in done for m in r.moves])):
            q = sorted(values)
            lines.append(f"  input {label:<5} min {q[0]}  p50 {nearest_rank(q, 0.5)}  p90 {nearest_rank(q, 0.9)}  max {q[-1]}")
        bins: dict[int, list[float]] = {}
        for r in done:
            for moves, lat in zip(r.moves, r.latencies):
                bins.setdefault(int(math.log10(moves)), []).append(lat)
        for b, lats in sorted(bins.items()):
            lines.append(f"  moves 1e{b}..1e{b + 1}: n={len(lats):<6} p50 {statistics.median(lats) * 1000:.3f} ms")
    return lines + [f"  failure: {f}" for f in failures]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    if not (SRC / "plft_forest" / "__init__.py").is_file():
        print(f"error: {SRC / 'plft_forest'} not found; run from the root of a plft-forest checkout",
              file=sys.stderr)
        return 1
    if args.setup_only:
        print(json.dumps({"setup_s": setup(args.workload, args.seed)[2]}))
        return 0

    calib = calibrate_ms()
    workload, rounds, own = setup(args.workload, args.seed)
    samples = [own]
    probe = None if args.trace else lambda: samples.append(setup_probe(args.workload, args.seed))

    seconds = args.seconds / 2 if args.trace else args.seconds
    keep = TRACED_ROUNDS[args.workload] if args.trace else 0
    done, failures = measure(workload, rounds, seconds, keep=keep, probe=probe)
    if len(done) < keep:
        more, more_failures = measure(workload, islice(rounds, keep - len(done)), keep=keep)
        done, failures = done + more, failures + more_failures
    peak_kb = workload.peak_rss_kb if args.workload == "cli" else resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    replayed, sample = [], []
    if args.trace:
        tracer, traced_rounds, base_rounds, traced_failures = traced(args.workload, workload, done)
        metrics = per_layer(args.workload, tracer, traced_rounds, base_rounds, done, calib)
        TRACE_DIR.mkdir(exist_ok=True)
        tracer.write(TRACE_DIR / f"{args.workload}-seed{args.seed}.jsonl")
        failures += traced_failures
        replayed = base_rounds + traced_rounds
    else:
        sample = slow_sample(done, getattr(workload, "repeats", False))
        metrics = end_to_end(sample, statistics.median(samples), peak_kb)

    lines = describe(args.workload, done, failures, calib, samples, sample)
    oks = [ok for r in done + replayed for ok in r.oks]
    attempted, failed = len(oks), oks.count(False)
    lines[0] += f"; {attempted} checked, {failed} failed, error_rate {failed / attempted:.6f}"
    if args.workload == "cli":
        code, text = workload.spawn(W.REFUSAL_PROBE)
        lines.append(f"  refusal probe `{W.REFUSAL_PROBE}`: exit {code}"
                     f"{' with a traceback' if 'Traceback' in text else ''} (a clean refusal exits 2)")
    for key, (value, unit) in metrics.items():
        lines.append(f"  {key:<40} {value:>16.6f} {unit}")
    print("\n".join(lines), file=sys.stderr)
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {key: {"value": value, "unit": unit} for key, (value, unit) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
