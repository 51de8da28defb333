"""charzeros benchmark: one workload per run, outputs checked, metrics printed.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout; the program is imported from its src/.  A run
is a fixed number of rounds of the workload (its fixed work, see
workloads.py), as many as take about S seconds on the seed commit, issued one
op at a time through `charzeros.cli.main` by a single closed-loop client.  Op
outputs are checked after each round, outside the timing.

--trace 0 reports the end-to-end metrics; --trace 1 alternates untraced and
traced rounds and reports the per-layer metrics of spans.py.  The last stdout
line is one JSON object {"correct", "attempted", "failed", "metrics"}; the
line before it holds diagnostics: raw (unnormalised) times, the host-speed
probes, fail_frac with the known defects counted, and the op mix.

Host-speed normalisation (see hostspeed.py).  Every time reported is measured
seconds times `speed` of the probes taken right before the op, every
SAMPLE_EVERY_S of CPU time during it, and right after it.  Probe time is
excluded from the op's latency.  Raw seconds are kept in the diagnostics.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import io
import json
import math
import os
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time
from collections import Counter
from pathlib import Path

from hostspeed import probe, speed, spin
from workloads import WORKLOADS, Pins, Result

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"

SETUP_STARTS = 7
# The child brackets its own work with probes, so that the factor is the
# speed of the core the child ran on.
SETUP_CODE = """import sys
sys.path.insert(0, sys.argv[1])
from hostspeed import probe
before = probe()
import charzeros
if not charzeros.registry_names():
    sys.exit(1)
print(before, probe())
"""
SAMPLE_EVERY_S = 0.25
# The diagnostic probe before and after a run: about 0.2 s.
HOST_PROBE_ITERATIONS = 4_000_000
# Start no further round past this point, so that a run on a slow host still
# ends inside its 180 s limit.
RUN_LIMIT_S = 150.0
END_TO_END = {"wall_s": "s", "op_p50_ms": "ms", "op_p90_ms": "ms",
              "peak_rss_mb": "MB", "setup_s": "s"}


class OpDeadline(Exception):
    pass


def _on_alarm(signum, frame):
    raise OpDeadline


class Sampler:
    """Probes taken on SIGPROF while a long op runs."""

    def __init__(self, on_probe=None):
        self.probes: list[float] = []
        self.on_probe = on_probe
        signal.signal(signal.SIGPROF, self._on_prof)

    def _on_prof(self, signum, frame):
        self.probes.append(probe())
        if self.on_probe:
            self.on_probe(self.probes[-1])

    def start(self):
        self.probes = []
        signal.setitimer(signal.ITIMER_PROF, SAMPLE_EVERY_S, SAMPLE_EVERY_S)

    def stop(self) -> list[float]:
        signal.setitimer(signal.ITIMER_PROF, 0)
        return self.probes


def measure_setup() -> tuple[list[float], list[float]]:
    """Fresh interpreter to `import charzeros` done and the registry parsed:
    (reference seconds, raw seconds) of each cold start, probes excluded."""
    env = {**os.environ, "PYTHONPATH": str(SRC)}
    ref, raw = [], []
    for _ in range(SETUP_STARTS):
        t0 = time.perf_counter()
        proc = subprocess.run([sys.executable, "-c", SETUP_CODE, str(BENCH)], cwd=ROOT,
                              env=env, capture_output=True, text=True, timeout=60)
        elapsed = time.perf_counter() - t0
        if proc.returncode != 0:
            raise RuntimeError(f"charzeros failed to import: {proc.stderr.strip()[-500:]}")
        probes = [float(x) for x in proc.stdout.splitlines()[-1].split()]
        raw.append(elapsed - sum(probes))
        ref.append(raw[-1] * speed(probes))
    return ref, raw


def run_op(cli, op, sampler: Sampler) -> Result:
    out, err = io.StringIO(), io.StringIO()
    rc, error = None, None
    sampler.start()
    signal.setitimer(signal.ITIMER_REAL, op.deadline_s)
    t0 = time.perf_counter()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            rc = cli.main(op.argv)
    except OpDeadline:
        error = "deadline"
    except Exception as exc:  # noqa: BLE001 - any escape from cli.main is a failed op
        error = f"exception: {type(exc).__name__}: {exc}"[:300]
    finally:
        elapsed = time.perf_counter() - t0
        signal.setitimer(signal.ITIMER_REAL, 0)
        inner = sampler.stop()
    return Result(elapsed - sum(inner), rc, out.getvalue(), err.getvalue(), error, inner)


def percentile_90(values: list[float]) -> float:
    if len(values) < 2:
        return values[0]
    return statistics.quantiles(values, n=10, method="inclusive")[8]


class Tally:
    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.known: Counter = Counter()
        self.failures: list[str] = []

    def add(self, op, outcome: str):
        self.attempted += 1
        if outcome.startswith("known:"):
            self.known[outcome[6:]] += 1
        elif outcome != "ok":
            self.failed += 1
            if len(self.failures) < 10:
                self.failures.append(f"{' '.join(op.argv)}: {outcome}")


def run_workload(wl, seconds: float, trace: bool) -> dict:
    from charzeros import cli
    tracer = None
    if trace:
        from spans import Tracer
        tracer = Tracer()
    sampler = Sampler(tracer.exclude if tracer else None)
    tally = Tally()
    for op in wl.prechecks() + wl.probes():
        tally.add(op, op.check(run_op(cli, op, sampler)))

    rounds = max(1, math.ceil(seconds / wl.round_s))
    if trace:
        rounds = max(2, rounds)
    walls, raw_walls, traced_walls = [], [], []
    latencies, raw_latencies, speeds, probes = [], [], [], []
    kinds = Counter()
    prime_powers = 0
    t_start = time.perf_counter()
    for r in range(rounds):
        ops = wl.round(r)
        traced = trace and r % 2 == 1
        gc.collect()
        if traced:
            tracer.install()
        results = []
        before = probe()
        for op in ops:
            if op.before:
                op.before()
            if traced:
                tracer.op = len(speeds) + len(results)
            res = run_op(cli, op, sampler)
            after = probe()
            res.speed = speed((before, *res.inner, after))
            probes.append(before)
            before = after
            results.append(res)
        if traced:
            tracer.uninstall()
            prime_powers += sum(op.units for op in ops)
        speeds.extend(res.speed for res in results)
        wall = sum(res.latency_s * res.speed for res in results)
        if traced:
            traced_walls.append(wall)
        else:
            walls.append(wall)
            raw_walls.append(sum(res.latency_s for res in results))
            latencies.extend(res.latency_s * res.speed for res in results)
            raw_latencies.extend(res.latency_s for res in results)
        for op, res in zip(ops, results):
            tally.add(op, op.check(res))
            kinds[op.kind] += 1
        elapsed = time.perf_counter() - t_start
        if r + 1 < rounds and elapsed * (r + 2) / (r + 1) > RUN_LIMIT_S:
            raise RuntimeError(f"round {r + 2} of {rounds} would end past {RUN_LIMIT_S} s")

    out = {"tally": tally, "rounds": rounds, "ops_per_round": len(ops),
           "op_mix": dict(kinds), "round_walls_s": walls, "traced_round_walls_s": traced_walls,
           "probe_median_s": statistics.median(probes)}
    if trace:
        overhead = statistics.median(traced_walls) - statistics.median(walls)
        out["metrics"] = tracer.metrics(len(traced_walls), sum(traced_walls), overhead,
                                        prime_powers, speeds)
        out["absent"] = tracer.absent_metrics()
    else:
        out["metrics"] = {
            "wall_s": statistics.median(walls),
            "op_p50_ms": statistics.median(latencies) * 1e3,
            "op_p90_ms": percentile_90(latencies) * 1e3,
        }
        out["raw"] = {
            "wall_s": statistics.median(raw_walls),
            "op_p50_ms": statistics.median(raw_latencies) * 1e3,
            "op_p90_ms": percentile_90(raw_latencies) * 1e3,
        }
        out["op_count"] = len(latencies)
    return out


def run_all(seed: int, seconds: float) -> int:
    """Each workload untraced, then traced, each run in a fresh process; print
    every metric line.  Exit 1 when a run fails or reports wrong outputs."""
    ok = True
    for name in WORKLOADS:
        for trace in (0, 1):
            proc = subprocess.run([sys.executable, __file__, "--workload", name,
                                   "--seed", str(seed), "--seconds", str(seconds),
                                   "--trace", str(trace)],
                                  cwd=ROOT, capture_output=True, text=True)
            lines = proc.stdout.splitlines()
            print("\n".join(lines[:-1]), flush=True)
            if proc.returncode != 0 or not lines or not json.loads(lines[-1])["correct"]:
                print(f"{name} --trace {trace}: exit {proc.returncode}\n{proc.stderr}",
                      file=sys.stderr)
                ok = False
    return 0 if ok else 1


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=[*sorted(WORKLOADS), "all"],
                    help="one workload, or all of them one after another")
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not (SRC / "charzeros" / "__init__.py").is_file():
        print(f"error: no charzeros package under {SRC}; run from a full checkout",
              file=sys.stderr)
        return 2
    if args.workload == "all":
        return run_all(args.seed, args.seconds)
    sys.path.insert(0, str(SRC))
    signal.signal(signal.SIGALRM, _on_alarm)

    host_before = spin(HOST_PROBE_ITERATIONS)
    setup, setup_raw = ([], []) if args.trace else measure_setup()
    scratch = BENCH / "_work"
    scratch.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=scratch))
    try:
        wl = WORKLOADS[args.workload](args.seed, work, Pins())
        res = run_workload(wl, args.seconds, bool(args.trace))
    finally:
        shutil.rmtree(work, ignore_errors=True)
        with contextlib.suppress(OSError):
            scratch.rmdir()
    host_after = spin(HOST_PROBE_ITERATIONS)

    m = res["metrics"]
    tally = res["tally"]
    if args.trace:
        from spans import METRICS
        units = METRICS
    else:
        m["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        m["setup_s"] = statistics.median(setup)
        res["raw"]["setup_s"] = statistics.median(setup_raw)
        units = END_TO_END
    metrics = {k: {"value": m[k], "unit": u} for k, u in units.items()}

    for name, v in metrics.items():
        shown = "absent" if name in res.get("absent", ()) else f"{v['value']:.6g} {v['unit']}"
        print(f"{args.workload:12s} {name:26s} {shown}")
    for f in tally.failures:
        print(f"FAILED {f}")
    known = sum(tally.known.values())
    diagnostics = {
        "workload": args.workload, "seed": args.seed, "trace": args.trace,
        "rounds": res["rounds"], "ops_per_round": res["ops_per_round"],
        "op_mix": res["op_mix"], "op_count": res.get("op_count"),
        "raw": res.get("raw"),
        "round_walls_s": res["round_walls_s"],
        "traced_round_walls_s": res["traced_round_walls_s"],
        "fail_frac": (tally.failed + known) / tally.attempted,
        "known_defects": dict(tally.known),
        "host_probe_s": {"before": host_before, "after": host_after},
        "op_probe_median_s": res["probe_median_s"],
        "setup_samples_s": setup,
        "absent": res.get("absent", []),
    }
    print("diagnostics " + json.dumps(diagnostics))
    print(json.dumps({"correct": tally.failed == 0, "attempted": tally.attempted,
                      "failed": tally.failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
