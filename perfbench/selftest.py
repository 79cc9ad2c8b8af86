#!/usr/bin/env python3
"""Self-test of the fleet benchmark, at a tiny size.

    python3 perfbench/selftest.py

Checks that BENCHMARK.json and workloads.json agree, that every workload
prints every end-to-end metric (--trace 0) and every per-layer metric
(--trace 1) with its unit and nothing else, that its outputs check correct,
and that a deliberately corrupted transcript is caught. Exits non-zero on
the first failure.
"""

import json
import math
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
TINY = {"gps_fleet": (16, 130), "wifi_rooms": (8, 130), "pf_tracking": (4, 40)}


def fail(message):
    print(f"selftest: FAIL: {message}")
    sys.exit(1)


def run(workload, trace, corrupt=False):
    devices, epochs = TINY[workload]
    command = [sys.executable, os.path.join(HERE, "run.py"),
               "--workload", workload, "--seed", "7", "--trace", str(trace),
               "--devices", str(devices), "--epochs", str(epochs)]
    if corrupt:
        command.append("--corrupt-transcript")
    out = subprocess.run(command, cwd=ROOT, capture_output=True, text=True,
                         timeout=900)
    if out.returncode != 0:
        fail(f"{workload} trace={trace} exited {out.returncode}:\n{out.stderr[-2000:]}")
    lines = out.stdout.strip().splitlines()
    if not lines:
        fail(f"{workload} trace={trace} printed nothing")
    result = json.loads(lines[-1])
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        fail(f"{workload}: result keys {sorted(result)}")
    if not any(line.startswith('{"environment"') for line in lines):
        fail(f"{workload}: no environment block")
    return result


def check_metrics(workload, result, expected):
    metrics = result["metrics"]
    if set(metrics) != set(expected):
        fail(f"{workload}: metrics differ: missing {sorted(set(expected) - set(metrics))}, "
             f"extra {sorted(set(metrics) - set(expected))}")
    for name, unit in expected.items():
        value = metrics[name]
        if value.get("unit") != unit:
            fail(f"{workload}: {name} has unit {value.get('unit')!r}, want {unit!r}")
        if not isinstance(value.get("value"), (int, float)) or not math.isfinite(value["value"]):
            fail(f"{workload}: {name} is not a finite number")


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    with open(os.path.join(HERE, "workloads.json")) as f:
        config = json.load(f)
    end_to_end = {m["name"]: m["unit"] for m in bench["end_to_end"]}
    per_layer = {m["name"]: m["unit"] for m in bench["per_layer"]}
    names = [w["name"] for w in bench["workloads"]]
    if sorted(names) != sorted(config["workloads"]):
        fail("BENCHMARK.json and workloads.json list different workloads")
    if set(config["per_layer"]) != set(per_layer):
        fail("workloads.json maps a different set of per-layer metrics")
    for name, layer in config["per_layer"].items():
        for moved in layer["moves"]:
            if moved not in end_to_end and moved not in per_layer:
                fail(f"{name} moves unknown metric {moved}")
    for w in bench["workloads"]:
        params = config["workloads"][w["name"]]
        for number in (params["devices"], params["offered_rate"]):
            if str(number) not in w["why"]:
                fail(f"{w['name']}: 'why' does not state {number}")

    for workload in names:
        result = run(workload, 0)
        check_metrics(workload, result, end_to_end)
        if not result["correct"] or result["failed"] != 0:
            fail(f"{workload}: outputs incorrect at this commit")
        result = run(workload, 1)
        check_metrics(workload, result, per_layer)
        if not result["correct"]:
            fail(f"{workload}: traced run incorrect")
        for name, layer in config["per_layer"].items():
            if workload not in layer["applies"] and result["metrics"][name]["value"] != 0:
                fail(f"{workload}: {name} does not apply but reads non-zero")
        print(f"selftest: {workload}: all {len(end_to_end)} end-to-end and "
              f"{len(per_layer)} per-layer metrics present, outputs correct")

    # The oracle must not pass vacuously: one altered fix is a failure.
    result = run("gps_fleet", 0, corrupt=True)
    if result["correct"] or result["failed"] < 1:
        fail("a corrupted transcript was not caught")
    print("selftest: corrupted transcript caught "
          f"({result['failed']} failed of {result['attempted']})")
    print("selftest: OK")


if __name__ == "__main__":
    main()
