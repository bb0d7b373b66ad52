"""Pass or fail a perfbench run by its verdict, for CI.

    python3 perfbench/run.py --workload symmetry --seed 0 --seconds 1 --trace 1 \
        | python3 tools/check_verdict.py

The harness exits 0 either way; the last line of its stdout is a JSON
verdict.  This prints that verdict and exits 0 only when the run was
correct with no failed operation.
"""

import json
import sys

verdict = json.loads(sys.stdin.read().splitlines()[-1])
print(verdict)
sys.exit(0 if verdict["correct"] is True and verdict["failed"] == 0 else 1)
