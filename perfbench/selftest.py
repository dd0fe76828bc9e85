"""Self-test of the benchmark harness.

Runs a tiny version of every workload, untraced and traced, and checks that
each run passes its output check and prints exactly the metrics that
BENCHMARK.json declares, with their units. Then checks that the benchmark
refuses to run, with a non-zero exit and no result line, in a directory that
holds only BENCHMARK.json and perfbench/.

    python3 perfbench/selftest.py
"""
import json
import shutil
import subprocess
import sys

import run
from workloads import WORKLOADS


def declared():
    doc = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    workloads = [w["name"] for w in doc["workloads"]]
    return (workloads, {m["name"]: m["unit"] for m in doc["end_to_end"]},
            {m["name"]: m["unit"] for m in doc["per_layer"]})


def bare_checkout_refuses() -> bool:
    bare = run.HERE / "out" / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(run.HERE, bare / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(run.ROOT / "BENCHMARK.json", bare)
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "var5_kan",
                           "--seed", "0", "--seconds", "1", "--trace", "0"],
                          cwd=bare, capture_output=True, text=True, timeout=180)
    shutil.rmtree(bare)
    return proc.returncode != 0 and not proc.stdout.strip()


def main() -> int:
    workloads, end_to_end, per_layer = declared()
    failures = []
    if sorted(workloads) != sorted(WORKLOADS):
        failures.append(f"BENCHMARK.json workloads {workloads} != harness {sorted(WORKLOADS)}")
    for name in WORKLOADS:
        for trace, expected in ((False, end_to_end), (True, per_layer)):
            result = run.bench(name, seed=0, seconds=1.0, trace=trace, tiny=True)
            printed = {k: v["unit"] for k, v in result["metrics"].items()}
            label = f"{name} trace={int(trace)}"
            if printed != expected:
                extra = sorted(set(printed.items()) - set(expected.items()))
                missing = sorted(set(expected.items()) - set(printed.items()))
                failures.append(f"{label}: undeclared {extra}, not printed {missing}")
            if not result["correct"]:
                failures.append(f"{label}: output check failed")
    if not bare_checkout_refuses():
        failures.append("run.py did not refuse a checkout without src/")
    for f in failures:
        print("FAIL " + f)
    print("selftest " + ("failed" if failures else "passed"))
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
