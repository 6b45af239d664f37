"""The benchmark in bench/ runs end to end on the current sources.

Each case runs bench/run.py for one second and reads its last stdout line:
a JSON result with correct outputs, no failed operation and every metric a
finite number.  A traced run reports a target the program never called as
null, so a null here means a benchmarked layer went missing.
"""

import json
import math
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


def _reject_constant(token):
    raise ValueError(f"non-finite number {token} in the result line")


@pytest.mark.parametrize("workload,trace", [
    ("paper-k20", 1), ("bulk-k2000", 1), ("paper-k20", 0),
])
def test_result_line_is_correct_and_finite(workload, trace):
    done = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", workload, "--seed", "1",
         "--seconds", "1", "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=600)
    assert done.returncode == 0, done.stderr[-2000:]
    result = json.loads(done.stdout.strip().splitlines()[-1],
                        parse_constant=_reject_constant)
    assert result["correct"] is True, done.stderr[-2000:]
    assert result["failed"] == 0, done.stderr[-2000:]
    assert result["metrics"]
    for name, metric in result["metrics"].items():
        value = metric["value"]
        assert isinstance(value, (int, float)) and not isinstance(value, bool), name
        assert math.isfinite(value), name
