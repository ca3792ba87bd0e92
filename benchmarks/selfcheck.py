"""Self-check of the benchmark's determinism and of its answer checks.

    python3 benchmarks/selfcheck.py

For every workload:
1. one seed gives the same request list twice;
2. two fresh traced workers on one seed give identical response digests
   and identical per-layer work counters;
3. the responses pass the checks, and a planted wrong answer (a count
   off by one, a flipped vanishing flag, one changed byte of CLI output)
   is counted as exactly one more failure and makes the run incorrect.
Exits 0 when everything holds, 1 otherwise.
"""

from __future__ import annotations

import copy
import hashlib
import json
import sys

import run
import spans
import workloads

SEED = 1  # the baseline seed


def digests(responses) -> list[str]:
    return [hashlib.sha256(json.dumps(r, sort_keys=True).encode()).hexdigest() for r in responses]


def plant(reqs, responses):
    """A copy of the responses with one answer made wrong."""
    bad = copy.deepcopy(responses)
    for i, req in enumerate(reqs):
        if req["op"] == "count":
            bad[i] = format(int(bad[i], 16) + 1, "x")
            return bad
        if req["op"] == "enumerate":
            bad[i][0][2] = not bad[i][0][2]
            return bad
        if req["op"] == "cli" and req["expect"] == workloads.EXIT_OK:
            bad[i]["stdout"] += " "
            return bad
    raise AssertionError("no request to plant a wrong answer in")


def check_workload(workload: str, seed: int) -> list[str]:
    problems = []
    size = 3 * workloads.round_size(workload)
    if workloads.requests(workload, seed, size) != workloads.requests(workload, seed, size):
        problems.append("request list differs between two generations")

    first = run.run_worker(workload, seed, "trace", 1, timeout=120)
    second = run.run_worker(workload, seed, "trace", 1, timeout=120)
    if digests(first["responses"]) != digests(second["responses"]):
        problems.append("response digests differ between two runs")
    for name in spans.DETERMINISTIC:
        if first["layers"][name] != second["layers"][name]:
            problems.append(f"{name}: {first['layers'][name]} != {second['layers'][name]}")

    reqs = first["requests"]
    correct, failures = run.judge(reqs, first["responses"])
    if not correct:
        problems.append(f"valid requests failed: {failures}")
    bad_correct, bad_failures = run.judge(reqs, plant(reqs, first["responses"]))
    if bad_correct or len(bad_failures) != len(failures) + 1:
        problems.append("a planted wrong answer was not counted as a failure")
    return problems


def main() -> int:
    sys.path.insert(0, str(run.SRC))
    ok = True
    for workload in workloads.WORKLOADS:
        problems = check_workload(workload, SEED)
        ok = ok and not problems
        print(f"{workload}: {'ok' if not problems else 'FAILED'}")
        for problem in problems:
            print(f"  {problem}")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
