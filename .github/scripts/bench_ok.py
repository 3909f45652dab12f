"""Exit 0 when the last line on stdin, the JSON record that
``perfbench/run.py`` prints last, reports a correct run with no failed
operation; exit 1 otherwise.

    python3 perfbench/run.py --workload run_default_3d --seconds 1 \
        | python3 .github/scripts/bench_ok.py
"""

import json
import sys

lines = sys.stdin.read().splitlines()
record = json.loads(lines[-1]) if lines else {}
sys.exit(0 if record.get("correct") is True and record.get("failed") == 0 else 1)
