"""Benchmark of the bigla CLI: four workloads, exact-output checks, layer trace.

    python3 benchmarks/run.py --workload functionals --seed 1 --seconds 55 --trace 0

Run from anywhere; the package is imported from ``src/`` next to this
directory, never from an installed copy.  Set-up exports the catalog files
through ``setup_catalog.py`` in a fresh interpreter, once before the first
pass and once per round of passes, and reports the median as ``setup_s``.
The workload's seeded command list runs in this process through
``bigla.cli.main(argv)``, pass after pass with stdout captured, until
``--seconds`` is used up.  A short reference loop runs between commands, and
every reported time is scaled to a host on which that loop takes 1 ms.
Outputs are checked after the timed passes.  With ``--trace 1`` untraced
and traced passes alternate and the per-layer metrics of ``layertrace.py``
are reported instead.

The last line of stdout is one JSON object: correct, attempted, failed and
metrics.  See README.md for the run model.
"""

from __future__ import annotations

import argparse
import hashlib
import io
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
from contextlib import redirect_stderr, redirect_stdout
from fractions import Fraction
from time import perf_counter
from typing import NamedTuple, Optional

from layertrace import LAYER_METRICS, TIME_METRICS, Tracer

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(ROOT, ".bench_out")
DIGESTS = os.path.join(HERE, "digests.json")

DEFAULT_SEED = 0

END_TO_END = {"wall_s": "s", "cmd_p50_ms": "ms", "cmd_p90_ms": "ms",
              "setup_s": "s", "peak_rss_mb": "MB"}

# layer-separation checks: metric -> workloads on which it must be 0
MUST_BE_ZERO = {
    "uea.delta_word.calls": ("pbw-long", "tables"),
    "linalg.Echelon.add_row.calls": ("pbw-long", "hopf", "tables"),
    "uea.normal_form.calls": ("tables",),
}


class PassResult(NamedTuple):
    latencies: list[float]
    outputs: list[tuple[int, str]]
    # reference-loop times: one before each command and one after the last
    probes: list[float]


class Timed(NamedTuple):
    """A set-up time with the reference-loop times just before and after it."""
    seconds: float
    probe_before: float
    probe_after: float


# The reference loop is the benchmark's own code and never calls bigla, so
# that no change to the package can move it.  Fraction products summed into
# a dict: the kind of work the package spends its time on.
PROBE_TERMS = [(i, Fraction(i % 7 + 1, i % 5 + 2)) for i in range(60)]
# Reported times are for a host on which one pass of the loop takes this long.
REFERENCE_LOOP_S = 1e-3


def probe() -> float:
    """Seconds for one pass of the reference loop, 0.75-1.7 ms on the
    2-core host the benchmark was built on."""
    t0 = perf_counter()
    acc = {}
    for k, c in PROBE_TERMS:
        for j, d in PROBE_TERMS[::12]:
            key = (k + j) % 17
            acc[key] = acc.get(key, 0) + c * d
    return perf_counter() - t0


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, default=DEFAULT_SEED)
    p.add_argument("--seconds", type=float, default=45.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--record-digests", action="store_true",
                   help=f"store stdout digests of the seed-{DEFAULT_SEED} outputs")
    return p.parse_args(argv)


def time_setup(workdir: str) -> Timed:
    before = probe()
    t0 = perf_counter()
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "setup_catalog.py"), SRC, workdir],
        stdout=subprocess.DEVNULL, stderr=subprocess.PIPE, text=True, timeout=120)
    elapsed = perf_counter() - t0
    if proc.returncode != 0:
        raise RuntimeError(f"catalog set-up failed: {proc.stderr.strip()}")
    return Timed(elapsed, before, probe())


def run_command(main, argv: tuple[str, ...]) -> tuple[int, str, float]:
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        t0 = perf_counter()
        try:
            code = main(list(argv))
        except SystemExit as exc:  # argparse usage errors
            code = exc.code if isinstance(exc.code, int) else 2
        except Exception as exc:  # a crash is a failed command, not a dead run
            code = -1
            err.write(f"{type(exc).__name__}: {exc}\n")
        elapsed = perf_counter() - t0
    return code, out.getvalue(), elapsed


def run_pass(cli, cmds, tracer=None) -> PassResult:
    outputs, latencies, probes = [], [], []
    for i, cmd in enumerate(cmds):
        probes.append(probe())
        if tracer is not None:
            tracer.begin_command(i)
        code, out, elapsed = run_command(cli.main, cmd.argv)
        outputs.append((code, out))
        latencies.append(elapsed)
    probes.append(probe())
    return PassResult(latencies, outputs, probes)


def traced_pass(cli, cmds):
    tracer = Tracer()
    tracer.install()
    try:
        result = run_pass(cli, cmds, tracer)
    finally:
        tracer.uninstall()
    return result, tracer


def check_outputs(cmds, passes: list[PassResult], digests: Optional[list]) -> tuple[int, list[str]]:
    """Failed command runs over all passes, and one line per failing command."""
    failed, notes = 0, []
    first = passes[0].outputs
    for i, cmd in enumerate(cmds):
        code, out = first[i]
        try:
            reason = cmd.check(code, out)
        except Exception as exc:  # malformed output can break a parser
            reason = f"check raised {type(exc).__name__}: {exc}"
        if reason is None and digests is not None:
            if hashlib.sha256(out.encode()).hexdigest() != digests[i][1]:
                reason = "stdout differs from the digest recorded for the default seed"
        if reason is not None:
            failed += len(passes)
        else:
            bad = sum(p.outputs[i] != first[i] for p in passes[1:])
            failed += bad
            if bad:
                reason = f"output changed between passes in {bad} pass(es)"
        if reason is not None:
            notes.append(f"FAIL {cmd.text()}: {reason}")
    return failed, notes


def load_digests(workload: str, cmds) -> Optional[list]:
    if not os.path.exists(DIGESTS):
        return None
    with open(DIGESTS) as fh:
        recorded = json.load(fh).get(workload)
    if recorded is None:
        return None
    if [text for text, _ in recorded] != [c.text() for c in cmds]:
        raise RuntimeError(f"recorded digests of {workload} are for another command list")
    return recorded


def record_digests(workload: str, cmds, outputs):
    recorded = {}
    if os.path.exists(DIGESTS):
        with open(DIGESTS) as fh:
            recorded = json.load(fh)
    recorded[workload] = [[c.text(), hashlib.sha256(out.encode()).hexdigest()]
                          for c, (_, out) in zip(cmds, outputs)]
    with open(DIGESTS, "w") as fh:
        json.dump(recorded, fh, indent=1, sort_keys=True)
        fh.write("\n")


def measure(cli, cmds, seconds: float, trace: bool, workdir: str, setup_times: list):
    """Untraced passes, alternating with traced ones under --trace 1, until
    the next round would overrun the budget (always at least two rounds).

    Each round starts with one more timed set-up, appended to setup_times.
    Spread over the run like this, the set-ups meet the host's slow and fast
    episodes in about the shares the passes do; run back to back, their
    median moved by a third between two sets of ten runs.

    Returns the untraced and traced pass results, the layer metrics of each
    traced pass, and the first traced pass's tracer, whose spans get written.
    """
    untraced, traced, layers = [], [], []
    first_tracer = None
    start = perf_counter()
    rounds = 0
    while True:
        setup_times.append(time_setup(workdir))
        untraced.append(run_pass(cli, cmds))
        if trace:
            result, tracer = traced_pass(cli, cmds)
            traced.append(result)
            layers.append((tracer.layer_metrics(), tracer.counts()))
            first_tracer = first_tracer or tracer
        rounds += 1
        elapsed = perf_counter() - start
        if rounds >= 2 and elapsed + elapsed / rounds > seconds:
            return untraced, traced, layers, first_tracer


def quantile(values: list[float], q: int) -> float:
    """The q-th percentile, q a multiple of 10."""
    return statistics.quantiles(values, n=10, method="inclusive")[q // 10 - 1]


def best_latencies(passes: list[PassResult]) -> list[float]:
    """Each command's fastest latency over the passes, unscaled.

    It gives trace_overhead_frac, whose traced and untraced passes
    alternate, and the unscaled wall time printed beside the result.
    """
    return [min(lat) for lat in zip(*(p.latencies for p in passes))]


def scaled(seconds: float, probe_before: float, probe_after: float) -> float:
    """A time scaled to a host on which the reference loop takes
    REFERENCE_LOOP_S, by the mean of the loop times just before and after it."""
    return seconds * 2 * REFERENCE_LOOP_S / (probe_before + probe_after)


def scaled_latencies(passes: list[PassResult]) -> list[float]:
    """Each command's median over the passes of its scaled latency.

    The host's speed drifts between about 1.0 and 2.0 times its fastest, in
    spells of a tenth of a second to over a minute, and it slows the package
    and the reference loop alike.  Over ten 55 s functionals runs, the
    scaled wall_s spread by 1.3% (quartile distance over median) and the
    sum of each command's fastest unscaled run by 24%.
    """
    return [statistics.median(scaled(p.latencies[i], p.probes[i], p.probes[i + 1])
                              for p in passes)
            for i in range(len(passes[0].latencies))]


def end_to_end_metrics(untraced, setup_times, peak_rss_kb) -> dict:
    lat = scaled_latencies(untraced)
    return {"wall_s": sum(lat),
            "cmd_p50_ms": 1000 * quantile(lat, 50),
            "cmd_p90_ms": 1000 * quantile(lat, 90),
            "setup_s": statistics.median(scaled(*t) for t in setup_times),
            "peak_rss_mb": peak_rss_kb / 1024}


def layer_metrics(workload, untraced, traced, layers) -> tuple[dict, list[str]]:
    """Counts from the first traced pass, times from the fastest traced pass."""
    notes = []
    per_pass = [m for m, _ in layers]
    metrics = dict(per_pass[0])
    for name in TIME_METRICS:
        metrics[name] = min(m[name] for m in per_pass)
    metrics["trace_overhead_frac"] = sum(best_latencies(traced)) / sum(best_latencies(untraced)) - 1
    counts = [c for _, c in layers]
    if any(c != counts[0] for c in counts[1:]):
        notes.append("FAIL layer counts differ between traced passes")
    for name, workloads in MUST_BE_ZERO.items():
        if workload in workloads and metrics[name] != 0:
            notes.append(f"FAIL layer separation: {name} = {metrics[name]} on {workload}")
    return metrics, notes


def main(argv=None) -> int:
    args = parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "bigla", "cli.py")):
        print(f"error: no bigla sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    import workloads

    if args.workload not in workloads.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; "
              f"choices: {', '.join(workloads.WORKLOADS)}", file=sys.stderr)
        return 2
    workdir = os.path.join(OUT, f"work-{os.getpid()}")
    os.makedirs(workdir, exist_ok=True)
    try:
        return run(args, workloads, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def run(args, workloads, workdir) -> int:
    setup_times = [time_setup(workdir)]
    import bigla.cli as cli

    if not os.path.realpath(cli.__file__).startswith(os.path.realpath(SRC) + os.sep):
        print(f"error: bigla was imported from {cli.__file__}, not {SRC}", file=sys.stderr)
        return 2
    cmds = workloads.generate(args.workload, args.seed, workdir)
    digests = (load_digests(args.workload, cmds)
               if args.seed == DEFAULT_SEED and not args.record_digests else None)

    untraced, traced, layers, tracer = measure(cli, cmds, args.seconds, bool(args.trace),
                                               workdir, setup_times)
    peak_rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    passes = untraced + traced
    failed, notes = check_outputs(cmds, passes, digests)
    attempted = len(cmds) * len(passes)

    if args.trace:
        metrics, layer_notes = layer_metrics(args.workload, untraced, traced, layers)
        notes += layer_notes
        tracer.write(os.path.join(OUT, f"spans-{args.workload}"))
        units = LAYER_METRICS
    else:
        metrics = end_to_end_metrics(untraced, setup_times, peak_rss_kb)
        units = END_TO_END
    metrics = {k: metrics[k] for k in units}
    correct = failed == 0 and not notes
    if args.record_digests and correct and args.seed == DEFAULT_SEED:
        record_digests(args.workload, cmds, untraced[0].outputs)

    print(f"workload {args.workload}, seed {args.seed}: {len(cmds)} commands per pass, "
          f"{len(untraced)} untraced and {len(traced)} traced passes; "
          f"latency samples: {len(cmds)}, each a command's median of "
          f"{len(untraced)} untraced runs, scaled to a 1 ms reference loop")
    for line in notes:
        print(line)
    if not args.trace:
        probes = [x for p in untraced for x in p.probes]
        print(f"unscaled: wall {sum(best_latencies(untraced))} s from each command's fastest run; "
              f"reference loop fastest {1000 * min(probes)} ms, "
              f"median {1000 * statistics.median(probes)} ms")
    print(f"failed_frac {failed / attempted:.6f} ({failed} of {attempted} command runs)")
    for name, value in metrics.items():
        print(f"{name} {value} {units[name]}")
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": {k: {"value": v, "unit": units[k]}
                                  for k, v in metrics.items()}}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
