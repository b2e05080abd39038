"""pclabel benchmark: one workload, one seed, printed as one JSON line.

    python3 perfbench/run.py --workload room-small --seed 0 --seconds 25 --trace 0

Run from the root of a checkout; the package is imported from ./src.
With --trace 0 the last line carries the end-to-end metrics (BENCHMARK.json
"end_to_end"); with --trace 1 it carries the per-layer metrics from a traced
run ("per_layer"), and the spans are written to .perfbench/.
Earlier lines describe the environment and each operation; an untraced run
also prints its time metrics in plain wall seconds, before the rescaling of
speed.py.

Operations cycle over the run's scenes until the next one would end after
--seconds; every scene of the run is measured at least once, and in an
untraced run the first scene at least twice. Each operation is checked (see
workloads.check) and counted as failed on any problem. A scene measured
twice must give identical outputs, and in a traced run the traced operation
must give the untraced one's outputs.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import multiprocessing
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
import traceback

import speed

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(ROOT, ".perfbench")
sys.path.insert(0, SRC)  # imported lazily: the source may be missing

THREAD_ENV = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
              "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")

END_TO_END = {
    "setup_s": "s", "total_s": "s", "label_s": "s", "train_eval_s": "s",
    "heldout_s": "s", "points_per_s": "1/s", "peak_rss_mb": "MB",
    "raw_miou": "ratio", "refined_miou": "ratio", "val_miou": "ratio",
    "final_labeled_rate": "ratio",
}


def _self(span):
    return lambda t: t.get(span, {}).get("self_s", 0.0)


def _count(span, key):
    return lambda t: t.get(span, {}).get("counts", {}).get(key, 0)


def _ratio(span, num, den):
    return lambda t: _count(span, num)(t) / max(_count(span, den)(t), 1)


# Per-layer metric -> (unit, value from a layer table). Times are self
# times: a span's duration minus the time its child spans cover.
PER_LAYER = {
    "superpoint.oversegment_s": ("s", _self("superpoint.oversegment")),
    "superpoint.segments": ("count", _count("superpoint.oversegment", "segments")),
    "superpoint.components": ("count", _count("superpoint.oversegment", "components")),
    "superpoint.merges": ("count", lambda t: _count("superpoint.oversegment", "components")(t)
                          - _count("superpoint.oversegment", "segments")(t)),
    "superpoint.load_partition_s": ("s", _self("superpoint.load_partition")),
    "pointcloud.build_index_s": ("s", _self("pointcloud.build_index")),
    "pointcloud.estimate_normals_s": ("s", _self("pointcloud.estimate_normals")),
    "pointcloud.points": ("count", _count("pointcloud.build_index", "points")),
    "synth.generate_scene_s": ("s", _self("synth.generate_scene")),
    "synth.corrupt_logits_s": ("s", _self("synth.corrupt_logits")),
    "synth.render_views_s": ("s", _self("synth.render_views")),
    "projection.back_project_s": ("s", _self("projection.back_project")),
    "projection.hit_rate": ("ratio", _ratio("projection.back_project", "hit", "points")),
    "refine.calr_s": ("s", _self("refine.calr")),
    "refine.galr_s": ("s", _self("refine.galr")),
    "refine.calr_kept": ("ratio", _ratio("refine.calr", "kept", "offered")),
    "refine.galr_labeled_rate": ("ratio", _ratio("refine.galr", "labeled", "points")),
    "stlp.fit_s": ("s", _self("stlp.fit")),
    "stlp.predict_s": ("s", _self("stlp.predict")),
    "stlp.update_s": ("s", _self("stlp.round")),
    "stlp.run_s": ("s", _self("stlp.run")),
    "stlp.adopted": ("count", _count("stlp.round", "adopted")),
    "stlp.infer_s": ("s", _self("stlp.infer")),
    "metrics.report_s": ("s", _self("metrics.report")),
    "ply.load_s": ("s", _self("ply.load")),
    "ply.bytes_read": ("count", _count("ply.load", "bytes_read")),
    "tensorio.load_s": ("s", _self("tensorio.load")),
    "tensorio.save_s": ("s", _self("tensorio.save")),
    "tensorio.bytes_read": ("count", _count("tensorio.load", "bytes_read")),
    "tensorio.bytes_written": ("count", _count("tensorio.save", "bytes_written")),
    "cli.pseudo_s": ("s", _self("cli.pseudo")),
    "cli.refine_s": ("s", _self("cli.refine")),
    "cli.stlp_s": ("s", _self("cli.stlp")),
    "cli.infer_s": ("s", _self("cli.infer")),
    "cli.eval_s": ("s", _self("cli.eval")),
    "benchmark.label_scan_s": ("s", _self("benchmark.label_scan")),
    "benchmark.eval_scan_s": ("s", _self("benchmark.eval_scan")),
    "benchmark.run_benchmark_s": ("s", _self("benchmark.run_benchmark")),
}
TRACE_OVERHEAD = "trace.overhead_s"


def environment(args, scenes):
    import numpy
    import scipy
    return {
        "workload": args.workload, "seed": args.seed, "scene_seeds": scenes,
        "trace": args.trace, "seconds": args.seconds,
        "nproc": os.cpu_count(), "affinity": len(os.sched_getaffinity(0)),
        "python": platform.python_version(), "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "thread_env": {key: os.environ.get(key) for key in THREAD_ENV},
    }


def cold_start():
    """A fresh interpreter importing the package, as every user pays first."""
    env = dict(os.environ, PYTHONPATH=SRC)
    subprocess.run([sys.executable, "-c", "import pclabel"], env=env, check=True)


def setup_in_child(workload, workdir, seed):
    """workload.setup in a forked child, so its memory peak is not this process's."""
    child = multiprocessing.get_context("fork").Process(
        target=workload.setup, args=(workdir, seed))
    child.start()
    child.join()
    if child.exitcode != 0:
        raise RuntimeError(f"{workload.name} set-up exited {child.exitcode}")


def tree_digest(directory):
    h = hashlib.sha256()
    for base, dirs, files in sorted(os.walk(directory)):
        dirs.sort()
        for name in sorted(files):
            path = os.path.join(base, name)
            h.update(os.path.relpath(path, directory).encode())
            with open(path, "rb") as f:
                h.update(f.read())
    return h.hexdigest()


class Run:
    """Operations of one benchmark run, their checks and failures."""

    def __init__(self, workload, pins):
        self.workload = workload
        self.pins = pins
        self.first = {}  # scene seed -> digest of its first outcome
        self.outcomes = []
        self.attempted = 0
        self.failed = 0
        self.log = []
        self.clock = speed.Clock()
        self.wall_metrics = None  # untraced: the time metrics in unscaled wall seconds
        self.peak_rss_mb = None  # this process's peak up to its first operation's end

    def operate(self, state, scene, tracer=None):
        """One checked operation; returns its Outcome, or None if it raised."""
        from workloads import check
        self.attempted += 1
        try:
            outcome = self.workload.run(state, scene, tracer, self.clock)
        except Exception:  # a crashing operation is a failed one
            self.record_peak()
            self.failed += 1
            self.log.append({"scene": scene, "traced": tracer is not None,
                             "problems": [traceback.format_exc()]})
            return None
        self.record_peak()
        outcome.wall = wall = {key: sum(end - start for start, end in stretches)
                               for key, stretches in outcome.intervals.items()}
        outcome.times = {key: self.clock.seconds(stretches)
                         for key, stretches in outcome.intervals.items()}
        factor = outcome.times["total_s"] / wall["total_s"]
        problems = check(outcome, self.pins)
        digest = outcome.digest()
        if self.first.setdefault(scene, digest) != digest:
            problems.append(f"outputs differ from the first operation on scene {scene}")
        if problems:
            self.failed += 1
        self.log.append({"scene": scene, "traced": tracer is not None,
                         "times": outcome.times, "wall": wall, "speed_factor": factor,
                         "quality": outcome.quality, "digest": digest[:16],
                         "problems": problems})
        return outcome

    def record_peak(self):
        """Keep the peak memory as of the first operation's end.

        Later operations on larger drawn scenes would raise it by the
        input's size, not the program's; set-up runs in a child process.
        """
        if self.peak_rss_mb is None:
            self.peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    def cycle(self, scenes, seconds, step, minimum):
        """Call step(scene) over scenes in turn until the next would overrun.

        At least `minimum` steps run, and at least one per scene.
        """
        start, durations, i = time.perf_counter(), [], 0
        while True:
            t0 = time.perf_counter()
            step(scenes[i % len(scenes)])
            durations.append(time.perf_counter() - t0)
            i += 1
            elapsed = time.perf_counter() - start
            if i >= max(minimum, len(scenes)) and elapsed + statistics.median(durations) > seconds:
                return


def per_scene_mean(outcomes, value):
    """Median over each scene's repeats, then the mean over the run's scenes."""
    by_scene = {}
    for outcome in outcomes:
        by_scene.setdefault(outcome.scene_seed, []).append(value(outcome))
    return statistics.fmean(statistics.median(v) for v in by_scene.values())


def end_to_end(run, setup_times, kind="times"):
    """The end-to-end metrics; kind "wall" gives times unscaled by speed.py."""
    outcomes = [o for o in run.outcomes if o is not None]
    metrics = {"setup_s": statistics.median(setup_times)}
    if outcomes:
        for key in ("label_s", "heldout_s", "train_eval_s", "total_s"):
            metrics[key] = per_scene_mean(outcomes, lambda o: getattr(o, kind)[key])
        metrics["points_per_s"] = per_scene_mean(
            outcomes, lambda o: o.points / getattr(o, kind)["total_s"])
        firsts = {}
        for outcome in outcomes:
            firsts.setdefault(outcome.scene_seed, outcome.quality)
        for key in ("raw_miou", "refined_miou", "val_miou", "final_labeled_rate"):
            metrics[key] = statistics.fmean(q[key] for q in firsts.values())
    metrics["peak_rss_mb"] = run.peak_rss_mb
    return {name: {"value": float(metrics.get(name, 0.0)), "unit": unit}
            for name, unit in END_TO_END.items()}


def per_layer(tracer, setup_factor, op_factors, overhead):
    """One set-up plus the mean traced operation, layer by layer.

    Each root span's times are rescaled by its own speed factor; ratios
    are taken over the set-up and every traced operation together.
    """
    def scaled(factors, share):
        total = {}
        for root, factor in factors.items():
            for name, row in tracer.layer_table([root]).items():
                acc = total.setdefault(name, {"self_s": 0.0, "counts": {}})
                acc["self_s"] += row["self_s"] * factor * share
                for key, value in row["counts"].items():
                    acc["counts"][key] = acc["counts"].get(key, 0) + value * share
        return total

    setup_table = scaled(setup_factor, 1.0)
    op_table = scaled(op_factors, 1.0 / max(len(op_factors), 1))
    both = tracer.layer_table(list(setup_factor) + list(op_factors))
    metrics = {}
    for name, (unit, value) in PER_LAYER.items():
        v = value(both) if unit == "ratio" else value(setup_table) + value(op_table)
        metrics[name] = {"value": float(v), "unit": unit}
    metrics[TRACE_OVERHEAD] = {"value": float(overhead), "unit": "s"}
    return metrics


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def measure(workload, seed, seconds, trace, pins, env):
    """One benchmark run of a workload; returns (result dict, Run)."""
    scenes = workload.scene_seeds(seed)
    os.makedirs(OUT, exist_ok=True)
    workdir = tempfile.mkdtemp(prefix=f"{workload.name}-", dir=OUT)
    run = Run(workload, pins)
    try:
        if trace:
            result = traced_run(workload, run, workdir, seed, scenes, seconds, env)
        else:
            result = untraced_run(workload, run, workdir, seed, scenes, seconds)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    return result, run


def untraced_run(workload, run, workdir, seed, scenes, seconds):
    setup_times, setup_walls, digests = [], [], set()
    scan = os.path.join(workdir, "scan")
    run.clock.burst()
    for _ in range(workload.setup_repeats):
        start = time.perf_counter()
        cold_start()
        setup_in_child(workload, workdir, seed)
        end = time.perf_counter()
        run.clock.burst()
        setup_times.append((end - start) * run.clock.factor(start, end))
        setup_walls.append(end - start)
        if os.path.isdir(scan):
            digests.add(tree_digest(scan))
    setup_ok = len(digests) <= 1
    state = workload.load(workdir, seed)

    def step(scene):
        run.outcomes.append(run.operate(state, scene))

    # The first scene runs twice, so every run checks repeat determinism.
    run.cycle(scenes, seconds, step, len(scenes) + 1)
    run.wall_metrics = {name: m["value"]
                        for name, m in end_to_end(run, setup_walls, "wall").items()
                        if m["unit"] in ("s", "1/s")}
    return {"correct": setup_ok and run.failed == 0, "attempted": run.attempted,
            "failed": run.failed, "metrics": end_to_end(run, setup_times)}


def traced_run(workload, run, workdir, seed, scenes, seconds, env):
    from spans import Tracer
    from workloads import instrumented

    tracer = Tracer()
    run.clock.burst()
    with instrumented(tracer, "setup"):
        start = time.perf_counter()
        workload.setup(workdir, seed)
        end = time.perf_counter()
    run.clock.burst()
    setup_factor = {_last_root(tracer, "setup"): run.clock.factor(start, end)}
    state = workload.load(workdir, seed)
    op_factors, gaps = {}, []

    def step(scene):
        plain = run.operate(state, scene)
        traced = run.operate(state, scene, tracer)
        if traced is not None:
            op_factors[_last_root(tracer, "op")] = (
                traced.times["total_s"] / traced.wall["total_s"])
        if plain is not None and traced is not None:
            gaps.append(traced.times["total_s"] - plain.times["total_s"])

    run.cycle(scenes, seconds, step, len(scenes))
    overhead = statistics.median(gaps) if gaps else 0.0
    tracer.write(os.path.join(OUT, f"trace-{workload.name}-seed{seed}.jsonl"), env)
    return {"correct": run.failed == 0, "attempted": run.attempted, "failed": run.failed,
            "metrics": per_layer(tracer, setup_factor, op_factors, overhead)}


def _last_root(tracer, name):
    return max(s[0] for s in tracer.spans if s[1] == name and s[4] is None)


def load_pins(name):
    with open(os.path.join(HERE, "pins.json"), encoding="utf-8") as f:
        return json.load(f).get(name, {})


def main(argv=None):
    args = parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "pclabel", "__init__.py")):
        print(f"error: no package source at {SRC}/pclabel; run from the root "
              "of a pclabel checkout", file=sys.stderr)
        return 2
    import workloads

    if args.workload not in workloads.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; choose from "
              f"{sorted(workloads.WORKLOADS)}", file=sys.stderr)
        return 2
    workload = workloads.WORKLOADS[args.workload]
    env = environment(args, workload.scene_seeds(args.seed))
    print(json.dumps({"environment": env}, sort_keys=True), flush=True)
    result, run = measure(workload, args.seed, args.seconds, args.trace,
                          load_pins(workload.name), env)
    for entry in run.log:
        print(json.dumps({"operation": entry}, sort_keys=True))
    if run.wall_metrics:
        print(json.dumps({"wall": run.wall_metrics}, sort_keys=True))
    print(json.dumps(result, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
