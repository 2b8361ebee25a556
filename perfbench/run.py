"""discal benchmark: seeded closed-loop workloads, end-to-end metrics, and a
traced per-layer breakdown.

Run from the repository root:

    python3 perfbench/run.py --workload power-sweep --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --smoke

A run imports numpy, scipy and discal once, then sets up its workload
N_SETUP times (the workload's inputs and a toy-size warm-up op); `setup_s`
is the import time plus the median set-up.  It then runs ops one at a
time, each with a seed spawned from --seed, until --seconds have passed,
checks every op's output, and reruns the first op to check that its
output is bit-identical.

With --trace 0 it prints the end-to-end metrics.  With --trace 1 it runs
each op twice, bare and with spans around discal's public functions (see
spans.py), alternating which goes first; it prints the per-layer metrics,
and `trace.overhead_frac` from the pairs.  Counts over the first
EXACT_OPS traced ops repeat exactly for a seed when the numerics are
unchanged.

The last line of standard output is one JSON object with the keys
correct, attempted, failed and metrics.  Each run also writes a record of
its environment, op times and check results (and, traced, its spans) to
perfbench/out/.  --smoke runs every workload at toy sizes, both traced and
not, and asserts that each prints every metric of BENCHMARK.json with its
unit and that its checks ran.
"""

import os

# BLAS threads are pinned before numpy is first imported; unpinned BLAS
# under contention made one solve_triangular call ~20x slower.
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
for _var in THREAD_VARS:
    os.environ[_var] = "1"
os.environ.pop("DISCAL_WORKERS", None)

import time

_IMPORT_START = time.perf_counter()

import argparse
import json
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"

N_SETUP = 3
EXACT_OPS = 2

if not (SRC / "discal" / "__init__.py").is_file():
    sys.exit("error: discal sources not found at %s; run from a discal checkout" % SRC)
sys.path.insert(0, str(SRC))

import numpy as np
import scipy

import spans
from workloads import COUNT_KEYS, WORKLOADS

IMPORT_S = time.perf_counter() - _IMPORT_START


def environment():
    """Host, library and thread settings recorded with every result."""
    env = {"nproc": os.cpu_count(), "affinity": len(os.sched_getaffinity(0)),
           "python": platform.python_version(), "numpy": np.__version__,
           "scipy": scipy.__version__,
           "threads": {v: os.environ.get(v) for v in THREAD_VARS},
           "cpu_model": None, "caches": {}, "blas": None}
    try:
        with open("/proc/cpuinfo") as fh:
            env["cpu_model"] = next((line.split(":", 1)[1].strip() for line in fh
                                     if line.startswith("model name")), None)
    except OSError:
        pass
    for index in sorted(Path("/sys/devices/system/cpu/cpu0/cache").glob("index*")):
        try:
            level, kind, size = ((index / f).read_text().strip()
                                 for f in ("level", "type", "size"))
        except OSError:
            continue
        env["caches"]["L%s %s" % (level, kind)] = size
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        env["blas"] = "%s %s" % (blas.get("name"), blas.get("version"))
    except (TypeError, KeyError):
        pass
    return env


def op_seeds(seed_seq):
    while True:
        yield int(seed_seq.spawn(1)[0].generate_state(1)[0])


class Run:
    """One benchmark run of one workload."""

    def __init__(self, workload, seed, seconds, trace, toy, workdir):
        self.wl = WORKLOADS[workload](toy=toy)
        self.seconds = seconds
        self.workdir = workdir
        setup_seq, warm_seq, ops_seq = np.random.SeedSequence(seed).spawn(3)
        self.setup_seed = int(setup_seq.generate_state(1)[0])
        self.warm_seed = int(warm_seq.generate_state(1)[0])
        self.seeds = op_seeds(ops_seq)
        self.tracer = spans.Tracer() if trace else None
        self.attempted = 0
        self.failed = 0
        self.problems = []
        self.run_checks = 0
        self.op_times = []

    def setup(self):
        """N_SETUP set-ups; returns their wall times, keeps the last state."""
        times = []
        toy = type(self.wl)(toy=True)
        for i in range(N_SETUP):
            if self.tracer:
                self.tracer.install()
                self.tracer.op = "setup-%d" % i
            try:
                t0 = time.perf_counter()
                self.state = self.wl.setup(self.setup_seed, self.workdir)
                if self.tracer:
                    self.tracer.op = "warm-up"
                toy.op(toy.setup(self.setup_seed, self.workdir / "toy"), self.warm_seed)
                times.append(time.perf_counter() - t0)
            finally:
                if self.tracer:
                    self.tracer.uninstall()
        return times

    def op(self, seed, traced_id=None):
        """Run, time and check one op; returns (seconds, report, counts, fingerprint)."""
        self.attempted += 1
        tracer = self.tracer if traced_id is not None else None
        result = None
        if tracer:
            tracer.install()
            tracer.op = traced_id
        t0 = time.perf_counter()
        try:
            if tracer:
                with tracer.span("op"):
                    result = self.wl.op(self.state, seed)
            else:
                result = self.wl.op(self.state, seed)
        except Exception:
            traceback.print_exc()
        finally:
            seconds = time.perf_counter() - t0
            if tracer:
                tracer.uninstall()
        if result is None:
            self.fail(seed, ["op raised"])
            return seconds, None, {}, None
        try:
            report, counts, problems, fingerprint = self.wl.inspect(self.state, result)
        except Exception:
            traceback.print_exc()
            report, counts, problems, fingerprint = None, {}, ["output unreadable"], None
        if problems:
            self.fail(seed, problems)
        return seconds, report, counts, fingerprint

    def fail(self, seed, problems):
        self.failed += 1
        self.problems += ["op seed %d: %s" % (seed, p) for p in problems]

    def check_same(self, seed, a, b, what):
        self.run_checks += 1
        if a is None or a != b:
            self.problems.append("op seed %d: %s" % (seed, what))

    def check_run(self, reports):
        self.run_checks += 1
        reports = [r for r in reports if r is not None]
        self.problems += self.wl.check_run(self.state, reports) if reports else ["no report"]

    def untraced(self):
        """Timed loop; returns end-to-end metrics."""
        times, reports, first = [], [], None
        completed = 0
        start = time.perf_counter()
        while not times or time.perf_counter() - start < self.seconds:
            seed = next(self.seeds)
            seconds, report, _, fingerprint = self.op(seed)
            times.append(seconds)
            reports.append(report)
            completed += report is not None
            if first is None:
                first = (seed, fingerprint)
        self.op_times = times
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        rerun = self.op(first[0])
        self.check_same(first[0], first[1], rerun[3], "rerun output differs")
        self.check_run(reports)
        return {
            "setup_s": (IMPORT_S + statistics.median(self.setup_times), "s"),
            "op_p50_s": (statistics.median(times), "s"),
            "runs_per_s": (self.wl.S * completed / sum(times), "runs/s"),
            "peak_rss_mb": (peak_rss_mb, "MB"),
        }

    def traced(self):
        """Pairs of bare and traced ops; returns per-layer metrics."""
        bare_s = traced_s = 0.0
        reports, counts, ids = [], dict.fromkeys(COUNT_KEYS, 0), []
        start = time.perf_counter()
        # an even number of pairs, so each order (bare first, traced first)
        # runs equally often and the warmer second run favours neither side
        while (len(ids) < EXACT_OPS or len(ids) % 2
               or time.perf_counter() - start < self.seconds):
            seed = next(self.seeds)
            k = len(ids)
            order = (None, k) if k % 2 == 0 else (k, None)
            out = {}
            for traced_id in order:
                out[traced_id] = self.op(seed, traced_id)
            self.op_times.append(out[k][0])
            bare_s += out[None][0]
            traced_s += out[k][0]
            self.check_same(seed, out[None][3], out[k][3], "traced output differs")
            reports.append(out[k][1])
            if k < EXACT_OPS:
                for key, value in out[k][2].items():
                    counts[key] += value
            ids.append(k)
        self.check_run(reports)
        m = spans.layer_metrics(self.tracer, ids, ids[:EXACT_OPS],
                                ["setup-%d" % i for i in range(N_SETUP)])
        for key in sorted(counts):
            m[key] = (counts[key], "count")
        m["trace.overhead_frac"] = ((traced_s - bare_s) / bare_s, "fraction")
        return m

    def execute(self):
        self.setup_times = self.setup()
        return self.traced() if self.tracer else self.untraced()


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--toy", action="store_true",
                        help="toy sizes (smoke mode); statistical run checks skipped")
    parser.add_argument("--smoke", action="store_true",
                        help="run every workload at toy sizes and check the output")
    args = parser.parse_args(argv)
    if args.smoke:
        return smoke()
    if args.workload is None:
        parser.error("--workload is required")

    OUT.mkdir(exist_ok=True)
    tag = "%s-s%d-t%d%s" % (args.workload, args.seed, args.trace, "-toy" if args.toy else "")
    workdir = OUT / ("work-%s-%d" % (tag, os.getpid()))
    run = Run(args.workload, args.seed, args.seconds, args.trace, args.toy, workdir)
    try:
        metrics = run.execute()
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    if run.tracer:
        run.tracer.write(OUT / ("spans-%s.jsonl" % tag))
    correct = run.failed == 0 and not run.problems
    env = environment()
    record = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace, "toy": args.toy, "environment": env,
              "setup_times_s": run.setup_times, "op_times_s": run.op_times,
              "correct": correct,
              "attempted": run.attempted, "failed": run.failed,
              "run_checks": run.run_checks, "problems": run.problems,
              "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}}
    with open(OUT / ("result-%s.json" % tag), "w") as fh:
        json.dump(record, fh, indent=1)

    print("environment %s" % json.dumps(env, sort_keys=True))
    for problem in run.problems:
        print("problem %s" % problem)
    print("checks ops=%d failed=%d run=%d" % (run.attempted, run.failed, run.run_checks))
    if not args.trace:
        print("metric failed_frac %.6g fraction" % (run.failed / run.attempted))
    for name, (value, unit) in metrics.items():
        print("metric %s %.6g %s" % (name, value, unit))
    print(json.dumps({"correct": correct, "attempted": run.attempted,
                      "failed": run.failed, "metrics": record["metrics"]}))
    return 0


def smoke():
    """Every workload at toy sizes, traced and not: metric names, units, checks."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    expected = {0: {m["name"]: m["unit"] for m in spec["end_to_end"]},
                1: {m["name"]: m["unit"] for m in spec["per_layer"]}}
    expected_workloads = {w["name"] for w in spec["workloads"]}
    assert expected_workloads == set(WORKLOADS), (expected_workloads, set(WORKLOADS))
    for name in sorted(WORKLOADS):
        for trace in (0, 1):
            cmd = [sys.executable, str(HERE / "run.py"), "--workload", name,
                   "--seed", "1", "--seconds", "1", "--trace", str(trace), "--toy"]
            proc = subprocess.run(cmd, capture_output=True, text=True, cwd=ROOT,
                                  timeout=300)
            lines = proc.stdout.strip().splitlines()
            where = "%s trace=%d" % (name, trace)
            assert proc.returncode == 0 and lines, (where, proc.stderr)
            result = json.loads(lines[-1])
            assert set(result) == {"correct", "attempted", "failed", "metrics"}, where
            assert result["correct"] and result["failed"] == 0, (where, lines)
            got = {k: v["unit"] for k, v in result["metrics"].items()}
            assert got == expected[trace], (where, set(got) ^ set(expected[trace]))
            printed = {line.split()[1]: line.split()[3] for line in lines
                       if line.startswith("metric ")}
            want = dict(expected[trace], **({} if trace else {"failed_frac": "fraction"}))
            assert printed == want, (where, printed)
            checks = dict(kv.split("=") for kv in next(
                line for line in lines if line.startswith("checks ")).split()[1:])
            assert int(checks["ops"]) >= 2 and int(checks["run"]) >= 2, (where, checks)
            if trace:
                m = {k: v["value"] for k, v in result["metrics"].items()}
                layers = sum(m[layer + ".self_s"] for layer in spans.LAYERS)
                print("%s: layer self times cover %.4f of the traced op; "
                      "overhead_frac %.4f" % (where, layers / m["trace.op_s"],
                                             m["trace.overhead_frac"]))
            print("smoke %s: ok (%d ops)" % (where, result["attempted"]))
    print("smoke: ok")
    return 0


if __name__ == "__main__":
    sys.exit(main())
