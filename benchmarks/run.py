"""diffops benchmark: one closed-loop workload per run.

    python3 benchmarks/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from anywhere inside a checkout; the package is imported from the
checkout's src/. With --trace 0 a fresh worker interpreter serves the
seeded request stream for S seconds, one request at a time, and the
end-to-end metrics are reported. With --trace 1 a fresh worker serves
a fixed prefix of the stream with tracing on, and the per-layer metrics
are reported together with the tracing overhead.
Times are reported at reference host speed (see hostspeed.py): each run
also times a fixed reference kernel next to its work and scales its
measured times by the kernel's slowdown, so that the host's slow phases
cancel out. Every response is checked against an independent answer
after the timed region. The last line of stdout is one JSON object:
correct, attempted, failed and metrics. See NOTES.md for the workloads
and metrics.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

import hostspeed
import oracle
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

SETUP_SAMPLES = 7
# Reference samples taken around each set-up sample.
SETUP_REFERENCE = 40
# Rounds of the stream that one traced run covers; fixed, so that the
# per-layer counters of one seed repeat exactly.
TRACE_ROUNDS = {"exact-algebra": 4, "r3-symbolic": 4, "cli-mix": 8}


class BenchError(Exception):
    pass


def child_env() -> dict:
    env = dict(os.environ)
    # Users import from a warm __pycache__: let the first import write it.
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    env["PYTHONPATH"] = str(SRC)
    env["PYTHONIOENCODING"] = "utf-8"
    return env


def python_wall(code: str) -> float:
    """Wall time of a fresh interpreter running `code`.

    The wait has no timeout on purpose: a timed wait polls with sleeps of
    up to 50 ms, which would quantise the measurement."""
    t0 = perf_counter()
    if subprocess.Popen([sys.executable, "-c", code], env=child_env()).wait() != 0:
        raise BenchError(f"python -c {code!r} failed")
    return perf_counter() - t0


class Worker:
    """A worker interpreter, timed from spawn until it is ready to serve."""

    def __init__(self, workload: str, seed: int, mode: str, amount):
        t0 = perf_counter()
        self.proc = subprocess.Popen(
            [sys.executable, str(HERE / "worker.py"), workload, str(seed), mode, str(amount)],
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, env=child_env(), cwd=ROOT, text=True,
        )
        ready = self.proc.stdout.readline().strip()
        self.setup_s = perf_counter() - t0
        if ready != "ready":
            self.close()
            raise BenchError(f"worker failed to start (exit {self.proc.returncode})")

    def run(self, timeout: float) -> dict:
        """Serve the run; returns the summary with the per-request records
        collected into requests, latencies and responses."""
        out, _ = self.proc.communicate("go\n", timeout=timeout)
        records = [json.loads(line) for line in out.splitlines()]
        if self.proc.returncode != 0 or not records:
            raise BenchError(f"worker failed (exit {self.proc.returncode})")
        result = records.pop()
        for key, plural in (
            ("request", "requests"), ("latency", "latencies"), ("response", "responses"),
            ("reference_taken", "reference_taken"),
        ):
            result[plural] = [r[key] for r in records]
        return result

    def close(self) -> None:
        if self.proc.poll() is None:
            try:
                self.proc.communicate("exit\n", timeout=30)
            except (subprocess.TimeoutExpired, ValueError):
                # ValueError: a timed-out run already sent its input
                self.proc.kill()
                self.proc.wait()


def fresh_setup(workload: str) -> float:
    """Set-up time of one fresh interpreter. cli-mix: interpreter start
    plus `import diffops`. The in-process workloads: start, import and
    cache warm-up, up to the first request."""
    if workload == "cli-mix":
        return python_wall("import diffops")
    worker = Worker(workload, 0, "timed", 0)
    worker.close()
    return worker.setup_s


def measure_setup(workload: str) -> tuple[list[float], list[float]]:
    """Set-up times of fresh interpreters, with a warm __pycache__:
    (as measured, at reference speed). Each one is scaled by the
    reference samples taken just before and just after it."""
    python_wall("import diffops")  # compiles __pycache__ if it is cold
    bursts = [[hostspeed.sample() for _ in range(SETUP_REFERENCE)]]
    measured = []
    for _ in range(SETUP_SAMPLES):
        measured.append(fresh_setup(workload))
        bursts.append([hostspeed.sample() for _ in range(SETUP_REFERENCE)])
    scaled = [t / hostspeed.slowdown(a + b) for t, a, b in zip(measured, bursts, bursts[1:])]
    return measured, scaled


def import_cost() -> float:
    """Median fresh-interpreter `import diffops` minus a bare start."""
    bare, full = [], []
    for _ in range(SETUP_SAMPLES):
        bare.append(python_wall("pass"))
        full.append(python_wall("import diffops"))
    return statistics.median(full) - statistics.median(bare)


def run_worker(workload: str, seed: int, mode: str, amount, timeout: float) -> dict:
    worker = Worker(workload, seed, mode, amount)
    try:
        return worker.run(timeout)
    finally:
        worker.close()


def judge(reqs, responses):
    """Check every response; returns (correct, failures)."""
    failures = [
        (i, outcome, req)
        for i, (req, resp) in enumerate(zip(reqs, responses))
        if (outcome := oracle.check(req, resp)) != "ok"
    ]
    # Invalid argv that break the exit-code contract count as failures,
    # but only a failed valid request makes the answers incorrect.
    return not any(oracle.is_valid(req) for _, _, req in failures), failures


def load_spec() -> dict:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    return {m["name"]: m["unit"] for key in ("end_to_end", "per_layer") for m in spec[key]}, spec


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "diffops" / "__init__.py").is_file():
        print(f"error: no package to benchmark at {SRC / 'diffops'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))  # for the oracle's in-process calls
    if args.workload not in workloads.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}", file=sys.stderr)
        return 2
    units, spec = load_spec()

    try:
        if args.trace:
            rounds = TRACE_ROUNDS[args.workload]
            result = run_worker(args.workload, args.seed, "trace", rounds, timeout=150)
            metrics = dict(result["layers"])
            metrics["cli.import_s"] = import_cost() if args.workload == "cli-mix" else 0.0
            wanted = [m["name"] for m in spec["per_layer"]]
        else:
            setup_measured, setup = measure_setup(args.workload)
            result = run_worker(args.workload, args.seed, "timed", args.seconds, timeout=args.seconds + 90)
            measured = result["latencies"]
            slowdowns = hostspeed.local_slowdowns(result["reference_s"], result["reference_taken"])
            lat = [x / f for x, f in zip(measured, slowdowns)]
            deciles = statistics.quantiles(lat, n=10)
            metrics = {
                "requests_per_s": len(lat) / sum(lat),
                "latency_p50_ms": statistics.median(lat) * 1000,
                "latency_p90_ms": deciles[8] * 1000,
                "setup_s": statistics.median(setup),
                "peak_rss_mb": result["peak_rss_mb"],
            }
            wanted = [m["name"] for m in spec["end_to_end"]]
        reqs, responses = result["requests"], result["responses"]
        correct, failures = judge(reqs, responses)
    except (BenchError, subprocess.SubprocessError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    attempted = len(reqs)
    error_rate = len(failures) / attempted
    mode = "traced prefix" if args.trace else f"{args.seconds:g} s"
    print(f"{args.workload}, seed {args.seed}, {mode}: {attempted} requests, {len(failures)} failed")
    for name in wanted:
        print(f"  {name:<46} {metrics[name]:>14.6g} {units[name]}")
    if not args.trace:
        beyond = sum(x > deciles[8] for x in lat)
        print(f"  {'error_rate':<46} {error_rate:>14.6g} ratio")
        print(f"  {'latency samples (beyond p90)':<46} {attempted:>14d} ({beyond})")
        slowdown = hostspeed.slowdown(result["reference_s"])
        print(f"  {'host slowdown (reference samples)':<46} {slowdown:>14.6g} ({len(result['reference_s'])})")
        print(f"  {'as measured: requests_per_s':<46} {len(measured) / sum(measured):>14.6g} 1/s")
        print(f"  {'as measured: latency_p50_ms':<46} {statistics.median(measured) * 1000:>14.6g} ms")
        print(f"  {'as measured: setup_s':<46} {statistics.median(setup_measured):>14.6g} s")
        for name, value in workloads.properties(reqs).items():
            print(f"  {name:<46} {value:>14.6g} share")
    for i, outcome, req in failures[:10]:
        print(f"  failed #{i} ({outcome}): {json.dumps(req)}")
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {name: {"value": metrics[name], "unit": units[name]} for name in wanted},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
