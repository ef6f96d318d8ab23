"""Self-test of the benchmark itself.

Run from the repository root:

    python3 perfbench/selftest.py

It checks that
- a tiny run of every workload, untraced and traced, passes all its checks
  and emits exactly the metrics BENCHMARK.json names, with their units;
- a planted wrong answer in each workload counts as a failed op and is
  never timed as a success;
- in a directory that holds only BENCHMARK.json and the benchmark, the
  benchmark exits non-zero without printing a result.
Exits 0 when every check holds, 1 otherwise.
"""

from __future__ import annotations

import dataclasses
import json
import shutil
import subprocess
import sys

import run

sys.path.insert(0, str(run.SRC))

import geoloop.gates  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

TINY = {"samples": 1000, "trials": 20}
SEED = 7


def spec_metrics(key: str) -> dict:
    doc = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in doc[key]}


def emitted(result: dict) -> dict:
    return {name: m["unit"] for name, m in result["metrics"].items()}


def tiny_runs() -> list[str]:
    problems = []
    expected = {False: spec_metrics("end_to_end"), True: spec_metrics("per_layer")}
    for name in workloads.WORKLOADS:
        for trace in (False, True):
            result = run.measure(name, SEED, 0.2, trace, TINY)
            where = f"{name} trace={int(trace)}"
            if not result["correct"]:
                problems.append(f"{where}: failed ops {result['failures']}")
            if emitted(result) != expected[trace]:
                problems.append(f"{where}: metrics differ from BENCHMARK.json")
    return problems


def plant(layer: str, wrong):
    """Replace a layer function with a wrong one; returns an undo callable."""
    original = tracing.LAYER_FUNCTIONS[layer]
    tracing.LAYER_FUNCTIONS[layer] = wrong(original)

    def undo():
        tracing.LAYER_FUNCTIONS[layer] = original

    return undo


def plant_u_chi():
    original = geoloop.gates.u_chi
    geoloop.gates.u_chi = lambda chi: original(chi + 1e-6)

    def undo():
        geoloop.gates.u_chi = original

    return undo


def plant_malformed_exit():
    workloads.MALFORMED_EXIT = 0

    def undo():
        workloads.MALFORMED_EXIT = 2

    return undo


def shifted_first_fidelity(sweep):
    def wrong(*args):
        result = sweep(*args)
        fid = result.fidelities
        return dataclasses.replace(result, fidelities=(fid[0] - 1e-9,) + fid[1:])

    return wrong


# workload -> (what is planted, how, whether every op must fail)
PLANTS = {
    "certify": ("target u_chi(chi + 1e-6)", plant_u_chi, True),
    "trajectory": (
        "solid angle off by 3e-4",
        lambda: plant("phases.solid_angle", lambda f: lambda path: f(path) + 3e-4),
        True,
    ),
    "sweep": (
        "first trial fidelity off by 1e-9",
        lambda: plant("noise.fidelity_sweep", shifted_first_fidelity),
        True,
    ),
    "cli": ("malformed-file verify expected to exit 0", plant_malformed_exit, False),
}


def planted_runs() -> list[str]:
    problems = []
    for name, (what, install, every_op) in PLANTS.items():
        undo = install()
        try:
            result = run.measure(name, SEED, 0.2, False, TINY)
        finally:
            undo()
        where = f"{name} with {what}"
        if result["correct"] or result["failed"] == 0:
            problems.append(f"{where}: no op failed")
        if every_op and (result["failed"] != result["attempted"] or result["timed_ops"]):
            problems.append(f"{where}: an op passed or was timed")
        if result["timed_ops"] + result["failed"] > result["attempted"]:
            problems.append(f"{where}: a failed op was timed")
    return problems


def bare_directory() -> list[str]:
    """Only BENCHMARK.json and perfbench/: the benchmark must refuse to run."""
    bare = run.OUT / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(run.HERE, bare / run.HERE.name,
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(run.ROOT / "BENCHMARK.json", bare)
    try:
        proc = subprocess.run(
            [sys.executable, f"{run.HERE.name}/run.py", "--workload", "certify",
             "--seed", "1", "--seconds", "1", "--trace", "0"],
            cwd=bare, capture_output=True, text=True, timeout=170,
        )
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    if proc.returncode == 0 or '"correct"' in proc.stdout:
        return ["bare directory: the benchmark ran without the program"]
    return []


def main() -> int:
    problems = tiny_runs() + planted_runs() + bare_directory()
    for problem in problems:
        print(f"FAIL {problem}")
    print("selftest " + ("failed" if problems else "passed"))
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
