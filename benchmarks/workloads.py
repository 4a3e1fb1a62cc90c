"""Benchmark workloads: fixed experiment configs plus a pool of recorded seeds.

Each workload is one `richowner experiment` config.  The benchmark's
`--seed` picks a starting point in the workload's seed pool; successive
experiment processes of a run walk the pool from there.  Every pool entry
carries the sha256 of the report the experiment must produce, recorded by
`record_digests.py` at the commit that defined the benchmark, so a run
checks its outputs without a reference implementation.
"""

from __future__ import annotations

import hashlib
import json
import os
from dataclasses import dataclass

HERE = os.path.dirname(os.path.abspath(__file__))
DIGESTS_PATH = os.path.join(HERE, "digests.json")


@dataclass(frozen=True)
class Workload:
    name: str
    config: dict       # experiment keys except `trials` and `seed`
    trials: int
    why: str


WORKLOADS = {
    w.name: w for w in (
        Workload(
            name="membership-q3",
            config={
                "scenario": "collinear:q=3", "oracle": "counting",
                "decoder": "membership", "graphs": "pipeline:delta=1/2",
                "rates": "profile+2",
            },
            trials=50,
            why=("counting-oracle profile recomputed 7x7 times per trial "
                 "dominates; graph build is light, so it shows a profile fix "
                 "and bypasses an extractor fix"),
        ),
        Workload(
            name="known-profile-q2",
            config={
                "scenario": "collinear:q=2", "oracle": "counting",
                "decoder": "known-profile", "graphs": "pipeline:delta=1/2",
                "rates": "profile+2",
            },
            trials=50,
            why=("exhaustive n=4 extractor audit dominates and staged CRT-tag "
                 "decoding runs every trial; the profile is cheap, so it shows "
                 "an extractor fix and bypasses a profile fix"),
        ),
        Workload(
            name="toy-full-n8",
            config={
                "scenario": "planted:n=8", "oracle": "toy:L=12,T=200",
                "decoder": "full", "graphs": "pipeline:delta=1/2",
                "rates": "profile+4", "slack": "4",
            },
            trials=3,
            why=("only path through the toy oracle, profile-search planning "
                 "and the n=8 sampled family; two rate vectors per run, so "
                 "plans are both built and reused"),
        ),
    )
}

# toy-full-n8 pool seeds are chosen so that the three trials carry rate
# vectors 10,10,10 twice and 10,12,10 once: every run then builds plans for
# two vectors (31,904 plans each) and reuses one, whatever the seed, and a
# run's cost does not hinge on how many distinct vectors the seed happened
# to draw.
TOY_RATE_PATTERN = ("10,10,10", "10,10,10", "10,12,10")


# Speed of the reference sources (reference/, richowner as it was when the
# benchmark was defined) on the host where the benchmark was defined: a
# 2-core Intel Xeon VM, Python 3.11.7, numpy 2.4.6.  Each value is the
# median over ten runs of one lane alone, in CPU time.  The end-to-end
# times are reported as if the reference ran at exactly these speeds (see
# run.at_reference_speed); changing a value rescales every later reading of
# that metric, so leave them fixed.
REFERENCE_SPEED = {
    "membership-q3": {"trials_per_s": 14.19, "setup_s": 0.198},
    "known-profile-q2": {"trials_per_s": 7.65, "setup_s": 0.206},
    "toy-full-n8": {"trials_per_s": 0.0891, "setup_s": 0.210},
}


def load_pools() -> dict:
    with open(DIGESTS_PATH) as fh:
        return json.load(fh)


def pool_start(workload: str, seed: int, pool_size: int) -> int:
    """Index of the first pool entry a run with this seed uses."""
    h = hashlib.sha256(f"{workload}/{seed}".encode()).digest()
    return int.from_bytes(h[:8], "big") % pool_size


def pool_entry(pools: dict, workload: str, seed: int, j: int) -> dict:
    """The j-th experiment of a run: {'seed', 'digest', 'setup_digest'}."""
    entries = pools[workload]["pool"]
    return entries[(pool_start(workload, seed, len(entries)) + j) % len(entries)]


def overrides(workload: Workload, experiment_seed: int, trials: int) -> dict:
    """The flat key=value config one experiment process receives."""
    out = dict(workload.config)
    out["trials"] = str(trials)
    out["seed"] = str(experiment_seed)
    return out


def report_digest(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()
