"""Benchmark worker: one fresh interpreter that serves one workload.

Usage: worker.py WORKLOAD SEED MODE AMOUNT, with the package importable
(PYTHONPATH pointing at the checkout's src/).

The worker imports the package and warms its caches, prints "ready",
and waits for one line on stdin: "go" starts the run, anything else
exits. MODE "timed" runs the seeded request stream as a closed loop
with one client for AMOUNT seconds. MODE "trace" serves the first
AMOUNT rounds of the stream with per-layer tracing on. Each request's
record (request, latency, canonical response, and the number of
host-speed reference samples taken before it) is written to stdout as
one JSON line when it is done; a last JSON line holds the worker's peak
RSS and the reference samples' times (timed) or the per-layer counters
(trace).
"""

from __future__ import annotations

import contextlib
import io
import json
import random
import resource
import subprocess
import sys
import traceback
from fractions import Fraction
from time import perf_counter

import hostspeed
import workloads

MIN_SAMPLES = 100  # at least ten latencies beyond p90
TRACEBACK = "Traceback (most recent call last)"
# Seconds of a timed run per host-speed reference sample; a sample takes
# about 2.5 ms, and samples are taken between requests.
REFERENCE_EVERY = 0.05


def hexint(x: int) -> str:
    return format(x, "x")


# ---------------------------------------------------------------------------
# Request inputs that are objects of the package
# ---------------------------------------------------------------------------

def random_terms(rng: random.Random, degree: int) -> dict:
    """All monomials of degree <= degree with rational coefficients
    n/d, n in -9..9, d in 1..3; the same law as the package's random_poly3."""
    return {
        (a, b, c): Fraction(rng.randint(-9, 9), rng.choice((1, 2, 3)))
        for a in range(degree + 1)
        for b in range(degree + 1 - a)
        for c in range(degree + 1 - a - b)
    }


def field_terms(req: dict) -> list[dict]:
    """Term maps of the request's input field: one for a scalar field,
    three for a vector field."""
    rng = random.Random(req["field_seed"])
    kind = workloads.R3_KINDS[req["ops"][-1]][0]
    return [random_terms(rng, req["degree"]) for _ in range(1 + 2 * kind)]


def direction_of(req: dict) -> tuple[Fraction, ...]:
    d = req["direction"]
    return tuple(Fraction(d[i], d[i + 1]) for i in range(0, 6, 2))


# ---------------------------------------------------------------------------
# Library calls and their canonical responses
# ---------------------------------------------------------------------------

def canonical_field(field) -> list:
    comps = getattr(field, "components", (field,))
    return [sorted([*e, str(c)] for e, c in comp.terms.items()) for comp in comps]


class Library:
    """Executes in-process requests against the imported package."""

    def __init__(self):
        import diffops
        from diffops import closedform, sequences, symcalc3

        self.d, self.closedform, self.sequences, self.symcalc3 = diffops, closedform, sequences, symcalc3

    def warm(self, workload: str) -> None:
        """Fill the package's cached adjacency rows for every space the
        workload can touch."""
        dims = range(3, 61) if workload == "exact-algebra" else (3,)
        for family in workloads.FAMILIES:
            for n in dims:
                self.d.build_space(n, family).adjacency_rows()

    def prepare(self, req: dict):
        """Build the package objects a request takes; not timed."""
        if req["op"] != "compose":
            return None
        s = self.symcalc3
        comps = [s.Poly3(t) for t in field_terms(req)]
        field = comps[0] if len(comps) == 1 else s.VecField3(*comps)
        return tuple(req["ops"]), field, s.direction(*direction_of(req))

    def call(self, req: dict, prepared):
        d, op = self.d, req["op"]
        if op == "count":
            return d.count_order_k(d.build_space(req["n"], req["family"]), req["k"])
        if op == "per_start":
            return d.per_start_counts(d.build_space(req["n"], req["family"]), req["k"])
        if op == "closed_form":
            return self.closedform.closed_form_result(req["n"], req["family"])
        if op == "recurrence_identity":
            return d.check_charpoly_recurrence(req["n"], req["family"])
        if op == "bridge":
            return d.check_bridge_identity(req["n"])
        if op == "record":
            record = self.sequences.make_record(req["family"], req["n"], req["terms"])
            return record, d.verify_recurrence(record, req["terms"])
        if op == "derive":
            return d.derive_recurrence(d.build_space(req["n"], req["family"]))
        if op == "enumerate":
            space = d.build_space(req["n"], req["family"])
            return self.symcalc3.fill_vanishing(d.enumerate_chains(space, req["k"]))
        if op == "identities":
            return d.verify_identities(trials=req["trials"], max_degree=req["degree"], seed=req["seed"])
        if op == "compose":
            return d.compose_and_check(*prepared)
        raise ValueError(f"unknown request op {op!r}")

    @staticmethod
    def canonical(req: dict, resp):
        op = req["op"]
        if op == "count":
            return hexint(resp)
        if op == "per_start":
            return {str(i): hexint(c) for i, c in resp.counts.items()}
        if op == "closed_form":
            return {"poly": [hexint(c) for c in resp.polynomial.coeffs], "matched": resp.matched_computed}
        if op in ("recurrence_identity", "bridge"):
            return resp
        if op == "record":
            record, verified = resp
            return {
                "terms": [hexint(t) for t in record.terms],
                "recurrence": [hexint(c) for c in record.recurrence.coefficients],
                "oeis_id": record.oeis_id,
                "verified": verified,
            }
        if op == "derive":
            return [hexint(c) for c in resp.coefficients]
        if op == "enumerate":
            return [[list(c.ops), list(c.signature), c.vanishes_identically] for c in resp]
        if op == "identities":
            return {
                "zero": [[list(c.ops), c.holds] for c in resp.zero_checks],
                "witness": [[list(c.ops), c.witnessed] for c in resp.witness_checks],
                "passed": resp.passed,
            }
        if op == "compose":
            return canonical_field(resp)
        raise ValueError(f"unknown request op {op!r}")


def clear_caches() -> None:
    """Drop every functools cache in the package, so that each in-process
    CLI call starts as cold as a fresh process."""
    for name, module in list(sys.modules.items()):
        if name == "diffops" or name.startswith("diffops."):
            for value in list(vars(module).values()):
                if callable(getattr(value, "cache_clear", None)):
                    value.cache_clear()


def run_cli_inprocess(argv: list[str]) -> dict:
    """Run cli.main(argv) in this interpreter, capturing its output."""
    from diffops import cli

    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = cli.main(argv)
        except SystemExit as exc:
            code = 0 if exc.code is None else exc.code if isinstance(exc.code, int) else 1
        except Exception:
            traceback.print_exc()
            code = 1
    return {"exit": code, "stdout": out.getvalue(), "traceback": TRACEBACK in err.getvalue()}


def run_cli_subprocess(argv: list[str]) -> dict:
    # No timeout: a timed wait polls with sleeps of up to 50 ms, which
    # would quantise the latencies.
    proc = subprocess.run([sys.executable, "-m", "diffops", *argv], capture_output=True)
    return {
        "exit": proc.returncode,
        "stdout": proc.stdout.decode("utf-8", "replace"),
        "traceback": TRACEBACK in proc.stderr.decode("utf-8", "replace"),
    }


# ---------------------------------------------------------------------------
# Closed loop
# ---------------------------------------------------------------------------

class Runner:
    def __init__(self, workload: str):
        self.workload = workload
        self.lib = None if workload == "cli-mix" else Library()

    def one(self, req: dict, inprocess_cli: bool):
        """Serve one request; returns (latency in s, canonical response)."""
        if req["op"] == "cli":
            if inprocess_cli:
                clear_caches()
                t0 = perf_counter()
                resp = run_cli_inprocess(req["argv"])
            else:
                t0 = perf_counter()
                resp = run_cli_subprocess(req["argv"])
            return perf_counter() - t0, resp
        prepared = self.lib.prepare(req)
        t0 = perf_counter()
        try:
            resp = self.lib.call(req, prepared)
        except Exception as exc:
            return perf_counter() - t0, {"error": f"{type(exc).__name__}: {exc}"}
        latency = perf_counter() - t0
        return latency, self.lib.canonical(req, resp)

    def serve(self, req: dict, inprocess_cli: bool, reference_taken: int = 0) -> dict:
        """Serve one request and stream its record to stdout at once, so
        that the worker's own memory does not grow with the run."""
        latency, resp = self.one(req, inprocess_cli)
        record = {"request": req, "latency": latency, "response": resp, "reference_taken": reference_taken}
        sys.stdout.write(json.dumps(record) + "\n")
        return resp

    def timed(self, seed: int, seconds: float) -> dict:
        gen = workloads.stream(self.workload, seed)
        per_round = workloads.round_size(self.workload)
        served = 0
        deadline = perf_counter() + seconds
        reference, next_reference = [], perf_counter()
        # Whole rounds only, so every run serves the same mix.
        while perf_counter() < deadline or served < MIN_SAMPLES or served % per_round:
            now = perf_counter()
            if now >= next_reference:
                # one sample for every REFERENCE_EVERY since the last ones
                due = 1 + int((now - next_reference) / REFERENCE_EVERY)
                reference.extend(hostspeed.sample() for _ in range(due))
                next_reference = perf_counter() + REFERENCE_EVERY
            self.serve(next(gen), inprocess_cli=False, reference_taken=len(reference))
            served += 1
        who = resource.RUSAGE_CHILDREN if self.workload == "cli-mix" else resource.RUSAGE_SELF
        return {"peak_rss_mb": resource.getrusage(who).ru_maxrss / 1024, "reference_s": reference}

    def trace(self, seed: int, rounds: int) -> dict:
        """Serve the first `rounds` rounds of the stream with per-layer
        tracing on.

        In-process throughout: CLI argv go to cli.main, with the package's
        caches cleared before each one."""
        import spans

        if self.workload == "cli-mix":
            import diffops.cli  # noqa: F401  (loaded so that its bindings are traced)
        reqs = workloads.requests(self.workload, seed, rounds * workloads.round_size(self.workload))
        cli = {"cli.stdout_bytes": 0, "cli.exit_mismatch": 0, "cli.tracebacks": 0}
        tracer = spans.Tracer()
        tracer.install()
        try:
            for req in reqs:
                resp = self.serve(req, inprocess_cli=True)
                if req["op"] == "cli":
                    cli["cli.stdout_bytes"] += len(resp["stdout"].encode("utf-8"))
                    cli["cli.exit_mismatch"] += resp["exit"] != req["expect"]
                    cli["cli.tracebacks"] += resp["traceback"]
        finally:
            tracer.uninstall()
        layers = tracer.metrics() | cli | workloads.properties(reqs)
        layers["trace.requests"] = len(reqs)
        return {"layers": layers}


def main(argv: list[str]) -> int:
    workload, seed, mode, amount = argv
    runner = Runner(workload)
    if runner.lib is not None:
        runner.lib.warm(workload)
    print("ready", flush=True)
    if sys.stdin.readline().strip() != "go":
        return 0
    if mode == "timed":
        result = runner.timed(int(seed), float(amount))
    else:
        result = runner.trace(int(seed), int(amount))
    sys.stdout.write(json.dumps(result) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
