"""Cross-process snapshot migration over the full shipped matrix.

The snapshot contract the ISSUE pins: a session suspended mid-game can
be migrated to *another process* and resumed byte-identically.  This
test plays the complete collector × adversary × judge matrix (with
jittered injectors and noisy judges, so every RNG consumer is live),
snapshots every game at round 3, ships all blobs to a freshly spawned
Python interpreter, finishes every game there, and compares each
continued result byte for byte against the uninterrupted run.
"""

import os
import pickle
import subprocess
import sys

import pytest

from repro.core.session import GameSession

from test_session import (
    MATRIX_ADVERSARIES,
    MATRIX_COLLECTORS,
    MATRIX_JUDGES,
    matrix_spec,
)

#: The child interpreter's continuation program: restore every blob,
#: play each session to its horizon, and report the full observable
#: outcome (records, termination, raw retained bytes).
_CHILD_PROGRAM = """
import pickle, sys
from repro.core.session import GameSession

with open(sys.argv[1], "rb") as handle:
    blobs = pickle.load(handle)

outcomes = []
for blob in blobs:
    session = GameSession.restore(blob)
    while not session.done:
        session.submit()
    result = session.close()
    outcomes.append(
        {
            "records": result.to_records(),
            "termination": result.termination_round,
            "collector": result.collector_name,
            "adversary": result.adversary_name,
            "retained": result.retained_data().tobytes(),
            "retained_shape": result.retained_data().shape,
        }
    )
with open(sys.argv[2], "wb") as handle:
    pickle.dump(outcomes, handle)
"""


def _outcome(result) -> dict:
    return {
        "records": result.to_records(),
        "termination": result.termination_round,
        "collector": result.collector_name,
        "adversary": result.adversary_name,
        "retained": result.retained_data().tobytes(),
        "retained_shape": result.retained_data().shape,
    }


@pytest.mark.slow
def test_full_matrix_snapshot_survives_process_migration(tmp_path):
    cells = [
        (collector, adversary, judge)
        for collector in sorted(MATRIX_COLLECTORS)
        for adversary in sorted(MATRIX_ADVERSARIES)
        for judge in sorted(MATRIX_JUDGES)
    ]

    blobs = []
    expected = []
    for index, (collector, adversary, judge) in enumerate(cells):
        spec = matrix_spec(collector, adversary, judge, seed=1000 + index)
        expected.append(_outcome(spec.play()))
        session = spec.session()
        for _ in range(3):
            session.submit()
        blobs.append(session.snapshot())

    blob_path = tmp_path / "sessions.pkl"
    out_path = tmp_path / "continued.pkl"
    blob_path.write_bytes(pickle.dumps(blobs))

    # A genuinely fresh interpreter: no shared memory, no warm caches —
    # only the snapshot blobs cross the boundary.
    env = dict(os.environ)
    src_dir = os.path.dirname(
        os.path.dirname(os.path.abspath(sys.modules["repro"].__file__))
    )
    env["PYTHONPATH"] = src_dir + os.pathsep + env.get("PYTHONPATH", "")
    subprocess.run(
        [sys.executable, "-c", _CHILD_PROGRAM, str(blob_path), str(out_path)],
        env=env,
        check=True,
        timeout=600,
    )

    continued = pickle.loads(out_path.read_bytes())
    assert len(continued) == len(cells)
    mismatches = [
        f"{cells[i]}"
        for i in range(len(cells))
        if continued[i] != expected[i]
    ]
    assert not mismatches, (
        f"{len(mismatches)} matrix cells diverged after cross-process "
        f"restore: {mismatches[:5]}"
    )


def test_keyed_blob_restores_in_a_fresh_interpreter(tmp_path):
    # A spec-built session's blob names its dataset (load_reference's
    # name, size and digest) instead of carrying its rows; a fresh
    # interpreter regenerates the dataset and resumes byte-identically.
    spec = matrix_spec("generous", "mixed", "band", seed=77)
    session = spec.session()
    for _ in range(3):
        session.submit()
    blob = session.snapshot()
    assert session.source._data.tobytes() not in blob

    blob_path = tmp_path / "keyed.pkl"
    out_path = tmp_path / "continued.pkl"
    blob_path.write_bytes(pickle.dumps([blob]))
    env = dict(os.environ)
    src_dir = os.path.dirname(
        os.path.dirname(os.path.abspath(sys.modules["repro"].__file__))
    )
    env["PYTHONPATH"] = src_dir + os.pathsep + env.get("PYTHONPATH", "")
    subprocess.run(
        [sys.executable, "-c", _CHILD_PROGRAM, str(blob_path), str(out_path)],
        env=env,
        check=True,
        timeout=600,
    )
    assert pickle.loads(out_path.read_bytes()) == [_outcome(spec.play())]
