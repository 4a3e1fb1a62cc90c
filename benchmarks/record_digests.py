"""Record the seed pools and report digests the benchmark checks against.

    python3 benchmarks/record_digests.py [WORKLOAD ...]

For each workload (default: all) this runs every pool seed through
child.py, exactly as the benchmark does, once with the workload's trial
count and once with zero trials (the set-up probe), and stores the sha256
of each report in digests.json.  Run it only at a commit whose reports are
known to be right: a later commit is checked against these digests, so
re-recording them there would hide a changed report.

The counting workloads use experiment seeds 1..POOL_SIZE.  toy-full-n8 scans
seeds upwards and keeps those whose trials carry workloads.TOY_RATE_PATTERN;
the scan reads rate vectors through the experiment runner's internal
resolvers, so it is tied to the code it was written against.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
import tempfile

import workloads as wl

POOL_SIZE = {"membership-q3": 32, "known-profile-q2": 32, "toy-full-n8": 16}
CHILD = os.path.join(wl.HERE, "child.py")


def run_child(workload: wl.Workload, seed: int, trials: int) -> str:
    with tempfile.TemporaryDirectory(dir=wl.HERE, prefix=".work-") as tmp:
        out = os.path.join(tmp, "report.json")
        args = [f"{k}={v}" for k, v in wl.overrides(workload, seed, trials).items()]
        subprocess.run([sys.executable, CHILD, out, *args], check=True,
                       stdout=subprocess.DEVNULL)
        with open(out) as fh:
            return fh.read()


def toy_candidate_seeds(workload: wl.Workload, count: int) -> list[int]:
    sys.path.insert(0, os.path.join(os.path.dirname(wl.HERE), "src"))
    from richowner.experiments import (
        ExperimentConfig, _resolve_oracle, _resolve_rates, _resolve_scenario,
    )
    from richowner.rng import derive_seed

    config = ExperimentConfig.load(overrides=wl.overrides(workload, 1, 1), env={})
    scenario = _resolve_scenario(config.scenario)
    oracle = _resolve_oracle(config.oracle, scenario)
    want = sorted(wl.TOY_RATE_PATTERN)
    found = []
    seed = 0
    while len(found) < count:
        seed += 1
        vectors = []
        for t in range(workload.trials):
            triple = scenario.triple(derive_seed(seed, "trial", t))
            rates = _resolve_rates(config.rates, oracle, triple, config.slack)
            vectors.append(",".join(str(r) for r in rates))
        if sorted(vectors) == want:
            found.append(seed)
    return found


def record(name: str) -> dict:
    workload = wl.WORKLOADS[name]
    size = POOL_SIZE[name]
    if name == "toy-full-n8":
        seeds = toy_candidate_seeds(workload, size)
    else:
        seeds = list(range(1, size + 1))
    pool = []
    for seed in seeds:
        text = run_child(workload, seed, workload.trials)
        report = json.loads(text)
        if name == "toy-full-n8":
            rates = sorted(row["rates"] for row in report["trials"])
            if rates != sorted(wl.TOY_RATE_PATTERN):
                raise SystemExit(f"seed {seed}: rates {rates} off the pattern")
        pool.append({
            "seed": seed,
            "digest": wl.report_digest(text),
            "setup_digest": wl.report_digest(run_child(workload, seed, 0)),
            "retries": sum(g["retries"] for g in report["graphs"]),
        })
        print(f"{name} seed={seed} retries={pool[-1]['retries']}", flush=True)
    return {"trials": workload.trials, "config": workload.config, "pool": pool}


def main(names: list[str]) -> int:
    for name in names or list(wl.WORKLOADS):
        entry = record(name)
        # Read the file again just before writing, so that recorders of
        # different workloads running side by side keep each other's pools.
        pools = wl.load_pools() if os.path.exists(wl.DIGESTS_PATH) else {}
        pools[name] = entry
        with open(wl.DIGESTS_PATH, "w") as fh:
            json.dump(pools, fh, indent=1, sort_keys=True)
            fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
