"""One traced experiment process.

    python3 benchmarks/traced_child.py REPORT_PATH SPANS_PATH key=value [...]

Same run as child.py, with tracer.Tracer wrapped around each module's
entry points.  The spans are written to SPANS_PATH (numpy .npz) after
run_experiment returns and before the report is written, so the teardown
stamp measures the same interval as in an untraced process.
"""

from __future__ import annotations

import json
import sys

import child
from tracer import Tracer


def main(argv: list[str]) -> int:
    if len(argv) < 2:
        raise SystemExit(__doc__)
    report_path, spans_path = argv[0], argv[1]
    tracer = Tracer()
    tracer.install()
    stamps = child.run(report_path, child.parse_overrides(argv[2:]),
                       before_emit=lambda: tracer.dump(spans_path))
    print(json.dumps(stamps), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
