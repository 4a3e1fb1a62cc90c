"""One untraced experiment process, as `richowner experiment` runs it.

    python3 benchmarks/child.py REPORT_PATH key=value [key=value ...]

Runs ExperimentConfig.load, run_experiment and report_json_text, writes
the report to REPORT_PATH and prints one JSON line of stamps: `ran` and
`emitted`, the CLOCK_MONOTONIC readings when run_experiment returned and
when the report was written, and `ran_cpu`, the CPU time (user + system)
the process had used when run_experiment returned.  The measuring process
reads the same clock, so it can take teardown time from these stamps.
This file loads no tracing code.
"""

from __future__ import annotations

import json
import os
import resource
import sys
import time

# The richowner sources to run: the checkout's src/ unless this variable
# names another tree (the benchmark's frozen reference copy).
SRC_ENV = "RICHOWNER_BENCH_SRC"
SRC = os.environ.get(SRC_ENV) or os.path.join(
    os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
sys.path.insert(0, SRC)


def parse_overrides(items: list[str]) -> dict:
    out = {}
    for item in items:
        key, sep, value = item.partition("=")
        if not sep:
            raise SystemExit(f"override must be key=value, got {item!r}")
        out[key] = value
    return out


def run(report_path: str, overrides: dict, before_emit=None) -> dict:
    """Run one experiment and write its report; `before_emit` runs in between."""
    from richowner.experiments import ExperimentConfig, report_json_text, run_experiment

    # env={}: the seed comes from the overrides only, never from RICHOWNER_SEED.
    config = ExperimentConfig.load(overrides=overrides, env={})
    report = run_experiment(config)
    ran = time.monotonic()
    usage = resource.getrusage(resource.RUSAGE_SELF)
    if before_emit is not None:
        before_emit()
    with open(report_path, "w") as fh:
        fh.write(report_json_text(report))
    return {"ran": ran, "ran_cpu": usage.ru_utime + usage.ru_stime,
            "emitted": time.monotonic()}


def main(argv: list[str]) -> int:
    if len(argv) < 1:
        raise SystemExit(__doc__)
    stamps = run(argv[0], parse_overrides(argv[1:]))
    print(json.dumps(stamps), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
