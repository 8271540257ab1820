#!/usr/bin/env python3
"""The veccost end-to-end benchmark.

    python3 perfbench/run.py --workload verify|train|tune|serve \\
        [--seed N] [--seconds S] [--trace 0|1]
    python3 perfbench/run.py --workload all [--seed N] [--seconds S]
    python3 perfbench/run.py --selfcheck [--workload W|all]

Run from the repository root. The first run configures and builds the
benchmark package (perfbench/CMakeLists.txt: the veccost library and CLI
from src/ and tools/, plus the in-process driver) into $CARGO_TARGET_DIR,
or .bench_build when that is unset.

One workload run prints its metrics by name and unit, then, as the last line
of stdout, one JSON object with the keys correct, attempted, failed and
metrics. --trace 0 reports the end-to-end metrics; --trace 1 the per-layer
ones from a separate traced run. --workload all runs every workload both ways
and prints everything. --selfcheck applies a known fault to each output
check and fails unless every check catches it. See perfbench/README.md.
"""

import argparse
import contextlib
import json
import os
import shutil
import socket
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
WORKLOADS = ("verify", "train", "tune", "serve")

END_TO_END = [
    ("setup_s", "s"),
    ("latency_p50_ms", "ms"),
    ("cpu_ms_per_op", "ms"),
    ("peak_rss_mb", "MB"),
]

# Every per-layer metric, in the order the traced runs report them. A
# workload that does not run a layer reports it as 0.
PER_LAYER = [
    ("op_ms", "ms"),
    ("residual_ms", "ms"),
    ("eval.measure_ms", "ms"),
    ("tsvc.build_ms", "ms"),
    ("analysis.legality_ms", "ms"),
    ("vectorizer.vectorize_ms", "ms"),
    ("machine.workload_ms", "ms"),
    ("machine.lower_ms", "ms"),
    ("machine.execute_ms", "ms"),
    ("tsvc.compare_ms", "ms"),
    ("machine.configs", "count"),
    ("pool.builds", "count"),
    ("lowering.programs", "count"),
    ("eval.evaluate_ms", "ms"),
    ("costmodel.fit_l2_ms", "ms"),
    ("costmodel.fit_nnls_ms", "ms"),
    ("costmodel.fit_svr_ms", "ms"),
    ("costmodel.loocv_l2_ms", "ms"),
    ("costmodel.loocv_nnls_ms", "ms"),
    ("costmodel.loocv_svr_ms", "ms"),
    ("trainer.fits", "count"),
    ("costmodel.loocv_pearson", "1"),
    ("tune.surrogate_ms", "ms"),
    ("eval.measure_specs_ms", "ms"),
    ("tune.search_ms", "ms"),
    ("tune.scored", "count"),
    ("tune.measured", "count"),
    ("tune.rejected", "count"),
    ("xform.pipeline.runs", "count"),
    ("xform.analysis.miss", "count"),
    ("tune.speedup_geomean", "1"),
    ("serve.parse_us", "us"),
    ("ir.parse_us", "us"),
    ("serve.admit_us", "us"),
    ("serve.execute_predict_us", "us"),
    ("serve.execute_measure_us", "us"),
    ("serve.execute_select_us", "us"),
    ("serve.serialize_us", "us"),
    ("serve.transport_us", "us"),
    ("serve.batch_size_mean", "count"),
    ("serve.cache.hit", "count"),
    ("serve.cache.miss", "count"),
]

# Fresh processes timed from spawn to ready, per run; setup_s is their median.
SETUP_PROBES = 7
# Wall-clock limits for child processes, so a wedged program fails the run
# instead of hanging it.
BUILD_TIMEOUT_S = 850
PROBE_TIMEOUT_S = 30
STOP_TIMEOUT_S = 10


class BenchError(Exception):
    pass


def build_dir():
    return os.path.abspath(os.environ.get("CARGO_TARGET_DIR") or ".bench_build")


def build():
    """Configure (once) and build the benchmark package; returns bin/."""
    out = build_dir()
    os.makedirs(out, exist_ok=True)
    log_path = os.path.join(out, "build.log")
    deadline = time.monotonic() + BUILD_TIMEOUT_S
    with open(log_path, "w") as log:
        steps = []
        configured = os.path.exists(os.path.join(out, "CMakeCache.txt")) and any(
            os.path.exists(os.path.join(out, f))
            for f in ("Makefile", "build.ninja"))
        if not configured:
            steps.append(["cmake", "-S", HERE, "-B", out,
                          "-DCMAKE_BUILD_TYPE=Release"])
        steps.append(["cmake", "--build", out, "-j", str(min(4, os.cpu_count() or 1))])
        for cmd in steps:
            left = max(1.0, deadline - time.monotonic())
            try:
                rc = subprocess.run(cmd, stdout=log, stderr=subprocess.STDOUT,
                                    timeout=left).returncode
            except subprocess.TimeoutExpired:
                rc = -1
            if rc != 0:
                with open(log_path) as f:
                    sys.stderr.write(f.read()[-4000:])
                raise BenchError("build failed: " + " ".join(cmd))
    return os.path.join(out, "bin")


def work_dir(tag):
    path = os.path.join(build_dir(), "work", "%s-%d" % (tag, os.getpid()))
    shutil.rmtree(path, ignore_errors=True)
    os.makedirs(path)
    return path


# ---- serve daemon -----------------------------------------------------------

@contextlib.contextmanager
def on_one_cpu(pin):
    """Pin this process, and so every child it starts meanwhile, to the last
    CPU it may run on (when `pin`). The serve daemon and its client share
    that CPU, so each hand-off between their threads is a switch on one CPU
    rather than a wake-up of another, idle one, whose cost follows the
    host's load more than the program's."""
    allowed = os.sched_getaffinity(0)
    if pin:
        os.sched_setaffinity(0, {max(allowed)})
    try:
        yield
    finally:
        if pin:
            os.sched_setaffinity(0, allowed)


def serve_request(port, verb, timeout=PROBE_TIMEOUT_S):
    line = json.dumps({"v": "veccost-serve-v1", "id": "perfbench-" + verb,
                       "verb": verb}, separators=(",", ":")) + "\n"
    with socket.create_connection(("127.0.0.1", port), timeout=timeout) as s:
        s.sendall(line.encode())
        data = b""
        while not data.endswith(b"\n"):
            chunk = s.recv(65536)
            if not chunk:
                break
            data += chunk
    return json.loads(data.decode())


class Daemon:
    """`veccost --jobs 1 serve` on an ephemeral port with an empty cache."""

    def __init__(self, bindir, cache_dir):
        self.started = time.perf_counter()
        self.proc = subprocess.Popen(
            [os.path.join(bindir, "veccost"), "--jobs", "1", "serve",
             "--port", "0", "--cache-dir", cache_dir],
            stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, text=True)
        try:
            line = self.proc.stdout.readline()
            if not line.startswith("serving on port "):
                raise BenchError("daemon did not start: %r" % line)
            self.port = int(line.split()[-1])
            if not serve_request(self.port, "healthz").get("ok"):
                raise BenchError("daemon failed its health check")
            self.ready_s = time.perf_counter() - self.started
        except Exception:
            self.stop()
            raise

    def stop(self):
        if self.proc.poll() is None:
            try:
                serve_request(self.port, "shutdown", timeout=STOP_TIMEOUT_S)
                self.proc.wait(timeout=STOP_TIMEOUT_S)
            except Exception:
                self.proc.kill()
                self.proc.wait()
        self.proc.stdout.close()


# ---- driver runs ------------------------------------------------------------

def driver(bindir, mode, workload, extra, timeout):
    cmd = [os.path.join(bindir, "perfbench_driver"), mode,
           "--workload", workload] + extra
    return subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                          timeout=timeout)


def setup_seconds(bindir, workload):
    """Median time from a fresh process to ready for the first operation."""
    times = []
    for i in range(SETUP_PROBES):
        if workload == "serve":
            d = Daemon(bindir, work_dir("serve-setup-%d" % i))
            times.append(d.ready_s)
            d.stop()
            continue
        wd = work_dir("setup")
        t0 = time.perf_counter()
        p = subprocess.Popen(
            [os.path.join(bindir, "perfbench_driver"), "setup", "--workload",
             workload, "--work-dir", wd], stdout=subprocess.PIPE, text=True)
        line = p.stdout.readline()
        times.append(time.perf_counter() - t0)
        p.stdout.close()
        if p.wait(timeout=PROBE_TIMEOUT_S) != 0 or line.strip() != "ready":
            raise BenchError("%s set-up probe failed" % workload)
    return statistics.median(times)


def run_workload(bindir, workload, seed, seconds, trace):
    """One measured run; returns the result object."""
    wd = work_dir("run")
    extra = ["--seed", str(seed), "--seconds", str(seconds),
             "--trace", "1" if trace else "0", "--work-dir", wd]
    timeout = seconds + 120
    daemon = None
    with on_one_cpu(workload == "serve"):
        try:
            if workload == "serve":
                daemon = Daemon(bindir, work_dir("serve-daemon"))
                extra += ["--port", str(daemon.port),
                          "--daemon-pid", str(daemon.proc.pid)]
            proc = driver(bindir, "run", workload, extra, timeout)
        finally:
            if daemon is not None:
                daemon.stop()
        setup_s = None if trace else setup_seconds(bindir, workload)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise BenchError("%s run failed (exit %d)" % (workload, proc.returncode))
    result = json.loads(lines[-1])

    expected = PER_LAYER if trace else END_TO_END
    units = dict(expected)
    metrics = {}
    if not trace:
        metrics["setup_s"] = {"value": setup_s, "unit": "s"}
    for name, m in result["metrics"].items():
        if units.get(name) != m["unit"]:
            raise BenchError("driver reported unknown metric %s [%s]"
                             % (name, m["unit"]))
        metrics[name] = m
    for name, unit in expected:
        metrics.setdefault(name, {"value": 0.0, "unit": unit})
    ordered = {name: metrics[name] for name, _ in expected}
    return {"correct": bool(result["correct"]),
            "attempted": int(result["attempted"]),
            "failed": int(result["failed"]),
            "metrics": ordered}


def print_table(workload, trace, res, out):
    out.write("%s (%s): attempted %d, failed %d, correct %s\n" % (
        workload, "per-layer, traced" if trace else "end-to-end",
        res["attempted"], res["failed"], "true" if res["correct"] else "false"))
    for name, m in res["metrics"].items():
        out.write("  %-26s %14.6g %s\n" % (name, m["value"], m["unit"]))


def selfcheck(bindir, workloads, seed):
    ok = True
    for w in workloads:
        wd = work_dir("selfcheck")
        extra = ["--seed", str(seed), "--work-dir", wd]
        daemon = None
        with on_one_cpu(w == "serve"):
            try:
                if w == "serve":
                    daemon = Daemon(bindir, work_dir("serve-daemon"))
                    extra += ["--port", str(daemon.port)]
                proc = driver(bindir, "selfcheck", w, extra, 170)
            finally:
                if daemon is not None:
                    daemon.stop()
        sys.stdout.write(proc.stdout)
        ok = ok and proc.returncode == 0
    print("selfcheck: %s" % ("every control held" if ok else "FAILED"))
    return 0 if ok else 1


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", default="all",
                    choices=WORKLOADS + ("all",))
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=None,
                    help="run length (default: BENCHMARK.json's run_seconds)")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--selfcheck", action="store_true")
    args = ap.parse_args()
    try:
        if args.seconds is None:
            with open(os.path.join(HERE, "..", "BENCHMARK.json")) as f:
                args.seconds = json.load(f)["run_seconds"]
        bindir = build()
        try:
            if args.selfcheck:
                return selfcheck(bindir, WORKLOADS if args.workload == "all"
                                 else (args.workload,), args.seed)
            if args.workload != "all":
                res = run_workload(bindir, args.workload, args.seed,
                                   args.seconds, args.trace == 1)
                print_table(args.workload, args.trace == 1, res, sys.stdout)
                print(json.dumps(res))
                return 0
            everything = {}
            for w in WORKLOADS:
                for trace in (False, True):
                    res = run_workload(bindir, w, args.seed, args.seconds, trace)
                    print_table(w, trace, res, sys.stdout)
                    everything.setdefault(w, {})[
                        "per_layer" if trace else "end_to_end"] = res
            print(json.dumps(everything))
            return 0
        finally:
            shutil.rmtree(os.path.join(build_dir(), "work"), ignore_errors=True)
    except (BenchError, OSError, subprocess.SubprocessError, ValueError,
            KeyError) as e:
        sys.stderr.write("perfbench: %s\n" % e)
        return 1


if __name__ == "__main__":
    sys.exit(main())
