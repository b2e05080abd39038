"""Self-test of the benchmark on a tiny scene.

    python3 perfbench/selftest.py

Runs both kinds of workload (library protocol and command-line flow) on a
small room, untraced and traced, and checks that:
  1. the metrics printed are exactly those BENCHMARK.json names, with its units;
  2. each traced operation gives the untraced operation's outputs;
  3. the output check trips on a corrupted copy of an output.
Exits 0 when every check holds, 1 otherwise.
"""

from __future__ import annotations

import copy
import json
import os
import shutil
import sys
import tempfile
from dataclasses import replace

import run as bench


def main():
    if not os.path.isfile(os.path.join(bench.SRC, "pclabel", "__init__.py")):
        print(f"error: no package source at {bench.SRC}/pclabel", file=sys.stderr)
        return 2
    import pclabel as pl
    import workloads

    with open(os.path.join(bench.ROOT, "BENCHMARK.json"), encoding="utf-8") as f:
        spec = json.load(f)
    declared = {trace: {m["name"]: m["unit"] for m in spec[key]}
                for trace, key in ((0, "end_to_end"), (1, "per_layer"))}
    tiny = replace(workloads.ROOM_SMALL, scene=pl.SceneSpec(
        extents=(2.0, 2.0, 1.5), density=150.0, object_count=(2, 3)))
    cases = [workloads.LibraryWorkload("selftest-library", tiny, core=(0,), drawn=1),
             workloads.CliWorkload("selftest-cli", tiny)]
    failures = []

    def expect(ok, message):
        print(("ok   " if ok else "FAIL ") + message)
        if not ok:
            failures.append(message)

    for workload in cases:
        for trace in (0, 1):
            env = {"workload": workload.name, "seed": 0, "trace": trace}
            result, run = bench.measure(workload, 0, 0.0, trace, {}, env)
            units = {name: m["unit"] for name, m in result["metrics"].items()}
            expect(units == declared[trace],
                   f"{workload.name} trace={trace}: metric names and units match "
                   f"BENCHMARK.json (differ: {sorted(set(units) ^ set(declared[trace]))})")
            expect(sorted(result) == ["attempted", "correct", "failed", "metrics"]
                   and result["correct"] and result["failed"] == 0,
                   f"{workload.name} trace={trace}: {result['attempted']} operations, "
                   f"{result['failed']} failed")
            if not trace:
                expect(len(run.log) > len({e["scene"] for e in run.log}),
                       f"{workload.name}: an untraced run repeats a scene")
            if trace:
                for scene in workload.scene_seeds(0):
                    entries = [e for e in run.log if e["scene"] == scene]
                    expect({e["traced"] for e in entries} == {False, True}
                           and len({e["digest"] for e in entries}) == 1,
                           f"{workload.name} scene {scene}: traced outputs equal untraced")

    workdir = tempfile.mkdtemp(prefix="selftest-", dir=bench.OUT)
    try:
        for workload in cases:
            workload.setup(workdir, 0)
            state = workload.load(workdir, 0)
            outcome = workload.run(state, 0, None, bench.speed.Clock())
            expect(workloads.check(outcome, {}) == [], f"{workload.name}: clean outputs pass")
            pins = {"0": {key: outcome.quality[key] for key in workloads.PINNED}}
            expect(workloads.check(outcome, pins) == [],
                   f"{workload.name}: outputs pass against their own pins")
            moved = {"0": dict(pins["0"], val_miou=pins["0"]["val_miou"] + 1e-9)}
            expect(workloads.check(outcome, moved) != [],
                   f"{workload.name}: a moved pinned val_miou fails")
            for name, value in (("predicted", pl.UNLABELED), ("refined", outcome.num_classes)):
                bad = copy.deepcopy(outcome)
                bad.labels[name][0] = value
                expect(workloads.check(bad, {}) != [] and bad.digest() != outcome.digest(),
                       f"{workload.name}: {name} label {value} fails and changes the digest")
            short = copy.deepcopy(outcome)
            short.labels["predicted"] = short.labels["predicted"][:-1]
            expect(workloads.check(short, {}) != [],
                   f"{workload.name}: a prediction missing a point fails")
            repeat = bench.Run(workload, {})
            repeat.first[0] = "0" * 64
            repeat.operate(state, 0)
            expect(repeat.failed == 1, f"{workload.name}: outputs unlike a repeat's fail")
            if state is None:
                continue
            # Corrupt a copy of a written label file and read it back.
            copied = os.path.join(workdir, "corrupted")
            shutil.copytree(state["out"], copied)
            listing = os.path.join(copied, "infer", "pred_labels.txt")
            with open(listing, encoding="ascii") as f:
                lines = f.read().splitlines()
            lines[0] = str(outcome.num_classes)
            with open(listing, "w", encoding="ascii") as f:
                f.write("\n".join(lines) + "\n")
            reread = copy.deepcopy(outcome)
            reread.problems = []
            workload.collect(dict(state, out=copied), reread)
            expect(workloads.check(reread, {}) != [],
                   f"{workload.name}: a corrupted copy of pred_labels.txt fails")
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    print(f"selftest: {'FAILED' if failures else 'passed'}")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
