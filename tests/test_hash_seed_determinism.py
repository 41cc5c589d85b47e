"""A traced run does not depend on Python's string-hash seed.

Peer addresses are strings, and blocks, candidates and flows are hashed
into sets and dicts on every tick.  If iteration order over any of them
leaked into a decision, two interpreters with different
``PYTHONHASHSEED`` values would write different traces.  The check runs
the same short Table-I torrent-7 run, every peer traced, in two
subprocesses and compares the trace fingerprints.
"""

import os
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src"

RUN = """
from repro.instrumentation.trace import TraceRecorder
from repro.workloads import build_experiment, scaled_copy, scenario_by_id

recorder = TraceRecorder()
harness = build_experiment(
    scaled_copy(scenario_by_id(7), duration=12.0),
    seed=3,
    trace_recorder=recorder,
    trace_all_peers=True,
)
harness.run()
print(recorder.events_emitted, recorder.close())
"""


def test_trace_fingerprint_is_independent_of_the_hash_seed():
    runs = []
    for hash_seed in ("1", "4242"):
        env = dict(os.environ, PYTHONHASHSEED=hash_seed, PYTHONPATH=str(SRC))
        runs.append(
            subprocess.Popen(
                [sys.executable, "-c", RUN],
                env=env,
                stdout=subprocess.PIPE,
                stderr=subprocess.PIPE,
                text=True,
            )
        )
    outputs = []
    for process in runs:
        stdout, stderr = process.communicate(timeout=120)
        assert process.returncode == 0, stderr
        outputs.append(stdout.split())
    events, fingerprint = outputs[0]
    assert int(events) > 10000  # the run did real work on every peer
    assert outputs[1] == outputs[0]
