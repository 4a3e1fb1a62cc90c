"""Benchmark for `richowner experiment`: one workload, one seed, one run.

    python3 benchmarks/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from anywhere inside a checkout; the code under test is the checkout's
`src/`.  Load is a closed loop from this single process: one experiment
process per lane at a time, each a fresh interpreter that runs the workload's
config as `richowner experiment` would (child.py), so every process pays
import, graph construction, report emission and interpreter teardown.

--trace 0 measures the end-to-end metrics with no tracing code loaded.
  Two lanes run side by side, one process each at a time: the program
  (the checkout's src/) and the reference (reference/, the richowner
  sources at the commit that defined the benchmark), on the same configs.
  setup_s      CPU time each of SETUP_SPAWNS zero-trial processes used from
               its start to the end of run_experiment, at reference speed
  trials_per_s trials / CPU time of each timed process, start to exit, at
               reference speed; each lane starts processes back to back
               until the next one would end after S seconds (at least one
               runs)
  peak_rss_mb  median peak resident set size of the timed program processes
Times are CPU time (user + system) of the single-threaded experiment
process, not wall time: wall time also counts the time the process waited
for a core or had its core taken by the hypervisor.  "At reference speed"
is the reference's recorded figure (workloads.REFERENCE_SPEED) times the
median, over twin processes of the two lanes that ran at the same time,
of program figure / reference figure; this cancels the host's drift in
CPU speed, which moves both twins alike.
--trace 1 runs one untraced and one traced process (traced_child.py) of the
  same config and reports the per-layer metrics from the traced one's spans,
  with the tracing overhead as traced minus untraced trials_per_s.

Every process's report must pass validate_report and match the sha256
recorded in digests.json for its seed.  A crash, timeout, invalid report or
digest mismatch counts as a failed run; run_error_rate = failed / attempted.
The last stdout line is the result as JSON; the exit code is 0 only when
no run failed.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import select
import signal
import statistics
import subprocess
import sys
import tempfile
import threading
import time
from dataclasses import dataclass
from typing import Optional

import numpy

import child
import tracer
import workloads as wl

ROOT = os.path.dirname(wl.HERE)
SRC = os.path.join(ROOT, "src")
CHILD = os.path.join(wl.HERE, "child.py")
REFERENCE_SRC = os.path.join(wl.HERE, "reference")
TRACED_CHILD = os.path.join(wl.HERE, "traced_child.py")

# Zero-trial processes per run for setup_s; half run before the timed
# processes and half after, so that the median spans the whole run.
SETUP_SPAWNS = 16
# Experiments run single-threaded: numpy's OpenBLAS pool would otherwise
# start a thread per core at import and make set-up time depend on whether
# the shared machine's other core is free.  richowner does no BLAS work.
CHILD_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
# Every run must end well inside the 180 s a run may take.
RUN_LIMIT_S = 165.0

END_TO_END_UNITS = {"trials_per_s": "1/s", "setup_s": "s", "peak_rss_mb": "MB"}


def unit_of(metric: str) -> str:
    if metric in END_TO_END_UNITS:
        return END_TO_END_UNITS[metric]
    if metric.endswith("trials_per_s"):
        return "1/s"
    if metric.endswith("_s"):
        return "s"
    if metric.endswith("_pct"):
        return "pct"
    if metric == "protocol.branch_reuse":
        return "ratio"
    return "count"


@dataclass
class Outcome:
    ok: bool
    wall_s: float = 0.0
    cpu_s: float = 0.0         # user + system time of the whole process
    peak_rss_mb: float = 0.0
    setup_s: float = 0.0       # CPU time from start to the end of run_experiment
    teardown_s: float = 0.0    # report written to process exit
    error: Optional[str] = None
    spans_path: Optional[str] = None
    reference: bool = False    # ran the reference sources, not the checkout's


def wait_child(proc: subprocess.Popen, timeout: float):
    """Block until proc exits; return (exit time, rusage), or None on timeout."""
    fd = os.pidfd_open(proc.pid)
    try:
        ready, _, _ = select.select([fd], [], [], max(timeout, 0.0))
    finally:
        os.close(fd)
    end = time.monotonic()
    if not ready:
        proc.kill()
        proc.wait()
        return None
    _, status, usage = os.wait4(proc.pid, 0)
    proc.returncode = os.waitstatus_to_exitcode(status)
    return end, usage


class Runner:
    """Spawns experiment processes for one workload and checks their reports."""

    def __init__(self, workload: wl.Workload, pools: dict, seed: int, workdir: str,
                 deadline: float, validate_report):
        self.workload = workload
        self.pools = pools
        self.seed = seed
        self.workdir = workdir
        self.deadline = deadline
        self.validate_report = validate_report
        self.outcomes: list[Outcome] = []
        self._lock = threading.Lock()
        self._live: set = set()      # processes running now
        self.stopping = False

    def stop(self) -> None:
        """Start no more processes and kill the running ones; each lane reaps its own."""
        with self._lock:
            self.stopping = True
            for proc in self._live:
                proc.kill()

    def time_left(self) -> float:
        return self.deadline - time.monotonic()

    def spawn(self, j: int, trials: int, traced: bool = False,
              reference: bool = False) -> Outcome:
        if trials not in (0, self.workload.trials):
            raise ValueError(f"no digest recorded for {trials} trials")
        entry = wl.pool_entry(self.pools, self.workload.name, self.seed, j)
        expected = entry["digest"] if trials else entry["setup_digest"]
        with self._lock:
            k = len(self.outcomes)
            outcome = Outcome(ok=False, reference=reference)
            self.outcomes.append(outcome)
        report = os.path.join(self.workdir, f"report-{k}.json")
        stdout = os.path.join(self.workdir, f"stdout-{k}.txt")
        stderr = os.path.join(self.workdir, f"stderr-{k}.txt")
        spans = os.path.join(self.workdir, f"spans-{k}.npz") if traced else None
        outcome.spans_path = spans
        kv = [f"{key}={v}" for key, v in wl.overrides(self.workload, entry["seed"], trials).items()]
        argv = [sys.executable, TRACED_CHILD, report, spans] if traced else \
            [sys.executable, CHILD, report]
        env = {**os.environ, **CHILD_ENV}
        env.pop(child.SRC_ENV, None)
        if reference:
            env[child.SRC_ENV] = REFERENCE_SRC
        with open(stdout, "w") as out, open(stderr, "w") as err:
            with self._lock:
                if self.stopping:
                    outcome.error = "stopped"
                    return outcome
                start = time.monotonic()
                proc = subprocess.Popen(argv + kv, stdout=out, stderr=err, cwd=ROOT, env=env)
                self._live.add(proc)
            try:
                waited = wait_child(proc, self.time_left())
            except BaseException:
                proc.kill()
                proc.wait()
                raise
            finally:
                with self._lock:
                    self._live.discard(proc)
        if waited is None:
            outcome.error = "timeout"
            return outcome
        end, usage = waited
        outcome.wall_s = end - start
        outcome.cpu_s = usage.ru_utime + usage.ru_stime
        outcome.peak_rss_mb = usage.ru_maxrss / 1024.0
        if proc.returncode != 0:
            with open(stderr) as fh:
                tail = fh.read()[-400:]
            outcome.error = f"exit {proc.returncode}: {tail}"
            return outcome
        outcome.error = check_report(report, expected, self.validate_report)
        if outcome.error is None:
            with open(stdout) as fh:
                stamps = json.loads(fh.read().strip().splitlines()[-1])
            outcome.setup_s = stamps["ran_cpu"]
            outcome.teardown_s = end - stamps["emitted"]
            outcome.ok = True
        return outcome

    @property
    def failed(self) -> int:
        return sum(not o.ok for o in self.outcomes)


def check_report(report_path: str, expected_digest: str, validate_report) -> Optional[str]:
    """None when the report is valid and byte-identical to the recorded one."""
    try:
        with open(report_path) as fh:
            text = fh.read()
    except OSError as exc:
        return f"no report: {exc}"
    try:
        problems = validate_report(json.loads(text))
    except ValueError as exc:
        return f"report is not JSON: {exc}"
    if problems:
        return "invalid report: " + "; ".join(problems[:5])
    digest = wl.report_digest(text)
    if digest != expected_digest:
        return f"report digest {digest[:16]} != recorded {expected_digest[:16]}"
    return None


def median_of(values) -> float:
    values = list(values)
    return statistics.median(values) if values else 0.0


def at_reference_speed(pairs, recorded: float) -> float:
    """`recorded` times the median over twin pairs of program ÷ reference figure.

    The twins of a pair are the i-th processes of the two lanes, which run
    at the same time, so a host that is 20% slow makes both figures 20%
    worse and their ratio stays put.  Works for a rate and for a time alike.
    """
    ratios = [program / reference for program, reference in pairs if reference > 0.0]
    return recorded * statistics.median(ratios) if ratios else 0.0


def side_by_side(lane, stop):
    """Run lane(False), the program, here and lane(True), the reference, in a
    thread at the same time; return both results.  If the program lane
    raises, stop() ends the reference lane before the error propagates."""
    result = []
    thread = threading.Thread(target=lambda: result.append(lane(True)))
    thread.start()
    try:
        ours = lane(False)
    except BaseException:
        stop()
        raise
    finally:
        thread.join()
    return ours, (result[0] if result else [])


def run_lane(runner: Runner, trials: int, seconds: float, reference: bool) -> list[Outcome]:
    """Processes back to back until the next one would end after `seconds`."""
    timed: list[Outcome] = []
    begin = time.monotonic()
    while not runner.stopping:
        outcome = runner.spawn(len(timed), trials, reference=reference)
        timed.append(outcome)
        elapsed = time.monotonic() - begin
        if elapsed + outcome.wall_s > seconds or runner.time_left() < 2 * outcome.wall_s:
            break
    return timed


def measure_end_to_end(runner: Runner, seconds: float) -> tuple[dict, dict]:
    trials = runner.workload.trials
    recorded = wl.REFERENCE_SPEED[runner.workload.name]

    half = SETUP_SPAWNS // 2
    # Untimed: the first process of each source tree compiles its bytecode.
    side_by_side(lambda ref: runner.spawn(0, 0, reference=ref), runner.stop)
    setup, ref_setup = side_by_side(
        lambda ref: [runner.spawn(j, 0, reference=ref) for j in range(half)], runner.stop)
    timed, ref_timed = side_by_side(
        lambda ref: run_lane(runner, trials, seconds, ref), runner.stop)
    late, ref_late = side_by_side(
        lambda ref: [runner.spawn(j, 0, reference=ref) for j in range(half, SETUP_SPAWNS)],
        runner.stop)
    setup, ref_setup = setup + late, ref_setup + ref_late

    def rate(o):
        return trials / o.cpu_s

    def setup_time(o):
        return o.setup_s

    def twins(program, reference, figure):
        return [(figure(p), figure(r)) for p, r in zip(program, reference) if p.ok and r.ok]

    metrics = {
        "trials_per_s": at_reference_speed(twins(timed, ref_timed, rate),
                                           recorded["trials_per_s"]),
        "setup_s": at_reference_speed(twins(setup, ref_setup, setup_time), recorded["setup_s"]),
    }
    measured = {"trials_per_s": median_of(rate(o) for o in timed if o.ok),
                "setup_s": median_of(setup_time(o) for o in setup if o.ok)}
    reference = {"trials_per_s": median_of(rate(o) for o in ref_timed if o.ok),
                 "setup_s": median_of(setup_time(o) for o in ref_setup if o.ok)}
    metrics["peak_rss_mb"] = median_of(o.peak_rss_mb for o in timed if o.ok)
    detail = {
        "trials_per_process": trials,
        "program_measured": measured,
        "reference_measured": reference,
        "reference_recorded": recorded,
        "wall_s": [o.wall_s for o in timed],
        "cpu_s": [o.cpu_s for o in timed],
        "setup_s": [o.setup_s for o in setup],
        "peak_rss_mb": [o.peak_rss_mb for o in timed],
        "teardown_s": [o.teardown_s for o in timed],
        "reference_cpu_s": [o.cpu_s for o in ref_timed],
        "reference_setup_s": [o.setup_s for o in ref_setup],
    }
    return metrics, detail


def per_layer_metrics(spans: dict, teardown_s: float, untraced_rate: float,
                      traced_rate: float) -> dict:
    """Layer metrics of one traced process plus the tracing overhead."""
    metrics = tracer.layer_metrics(spans)
    metrics["experiments.teardown_s"] = teardown_s
    metrics["tracing.untraced_trials_per_s"] = untraced_rate
    metrics["tracing.traced_trials_per_s"] = traced_rate
    metrics["tracing.overhead_trials_per_s"] = traced_rate - untraced_rate
    return metrics


def measure_per_layer(runner: Runner) -> tuple[dict, dict]:
    trials = runner.workload.trials
    runner.spawn(0, 0)
    plain = runner.spawn(0, trials)
    traced = runner.spawn(0, trials, traced=True)
    spans = tracer.load_spans(traced.spans_path) if traced.ok else tracer.Tracer().as_spans()
    metrics = per_layer_metrics(
        spans, traced.teardown_s,
        trials / plain.cpu_s if plain.ok else 0.0,
        trials / traced.cpu_s if traced.ok else 0.0,
    )
    detail = {"spans": len(spans["start"]), "skipped_targets": spans["meta"]["skipped"]}
    return metrics, detail


def cpu_model() -> Optional[str]:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.partition(":")[2].strip()
    except OSError:
        pass
    return platform.processor() or None


def git_commit(root: str) -> Optional[str]:
    """HEAD of the checkout, read from .git without running git."""
    git = os.path.join(root, ".git")
    try:
        with open(os.path.join(git, "HEAD")) as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        ref_path = os.path.join(git, ref)
        if os.path.exists(ref_path):
            with open(ref_path) as fh:
                return fh.read().strip()
        with open(os.path.join(git, "packed-refs")) as fh:
            for line in fh:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return None


def src_digest() -> str:
    """sha256 over the package sources, for checkouts that are not git repos."""
    h = hashlib.sha256()
    pkg = os.path.join(SRC, "richowner")
    for name in sorted(os.listdir(pkg)):
        if name.endswith(".py"):
            h.update(name.encode())
            with open(os.path.join(pkg, name), "rb") as fh:
                h.update(fh.read())
    return h.hexdigest()


def environment(seed: int) -> dict:
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": cpu_model(),
        "git_commit": git_commit(ROOT),
        "src_sha256": src_digest(),
        "seed": seed,
        "loadavg_at_start": list(os.getloadavg()),
    }


def _terminate(signum, frame):
    # Unwinds the main thread, whose handlers kill every running experiment.
    raise SystemExit(128 + signum)


def main(argv: Optional[list[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(wl.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    signal.signal(signal.SIGTERM, _terminate)
    started = time.monotonic()
    if not os.path.isfile(os.path.join(SRC, "richowner", "experiments.py")):
        print(f"error: no richowner sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    from richowner.experiments import validate_report

    env = environment(args.seed)
    workload = wl.WORKLOADS[args.workload]
    with tempfile.TemporaryDirectory(dir=wl.HERE, prefix=".work-") as workdir:
        runner = Runner(workload, wl.load_pools(), args.seed, workdir,
                        started + RUN_LIMIT_S, validate_report)
        if args.trace:
            metrics, detail = measure_per_layer(runner)
        else:
            metrics, detail = measure_end_to_end(runner, args.seconds)
    attempted = len(runner.outcomes)
    failed = runner.failed
    print("env " + json.dumps(env, sort_keys=True))
    print("detail " + json.dumps(detail, sort_keys=True))
    for o in runner.outcomes:
        if not o.ok:
            lane = "reference" if o.reference else "program"
            print(f"failed {lane} run: {o.error}")
    print(f"workload {workload.name}: {workload.why}")
    for name, value in metrics.items():
        print(f"{name} {value:.6g} {unit_of(name)}")
    print(f"run_error_rate {failed / attempted:.6g} ratio ({failed} of {attempted} runs)")
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit_of(name)}
                    for name, value in metrics.items()},
    }
    print(json.dumps(result))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
