import subprocess
import sys
from pathlib import Path

import run

RUN = Path(run.__file__)


def test_nearest_rank():
    values = list(range(1, 101))
    assert run.nearest_rank(values, 0.5) == 50
    assert run.nearest_rank(values, 0.9) == 90
    assert run.nearest_rank([3.0], 0.9) == 3.0


def test_job_latency_is_the_median_pass():
    passes = [{"scaled": [2.0, 1.0]}, {"scaled": [1.5, 3.0]}, {"scaled": [1.0, 2.0]}]
    assert run.job_latencies(passes) == [1.5, 2.0]


def test_latencies_are_scaled_by_the_nearby_calibrations():
    ref = run.CALIBRATION_S
    # the machine runs at half speed for the first four jobs, then at full speed
    cal = [2 * ref] * 4 + [ref] * 8
    results = [["0", 0.01, "", c] for c in cal]
    scaled = run.scaled_latencies(results)
    assert scaled[0] == 0.005          # window: jobs 0-3, all slow
    assert scaled[-1] == 0.01          # window: jobs 8-11, all at the reference
    assert scaled[4] == 0.01           # window: jobs 1-7, four of seven at the reference
    assert run.speed_scale(cal, 2) == 0.5


def test_digest_depends_on_outcome_and_bytes():
    a = run.stream_digest([["0", 0.1, "{}"], ["1", 0.2, "input error: x"]])
    assert a == run.stream_digest([["0", 9.9, "{}"], ["1", 0.0, "input error: x"]])
    assert a != run.stream_digest([["2", 0.1, "{}"], ["1", 0.2, "input error: x"]])


def test_refuses_to_run_without_the_program(tmp_path):
    proc = subprocess.run([sys.executable, str(RUN), "--workload", "cm-twist", "--seed", "1",
                           "--seconds", "1"], cwd=tmp_path, capture_output=True, text=True,
                          timeout=60)
    assert proc.returncode != 0
    assert proc.stdout == ""
