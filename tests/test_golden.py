"""The shipped commands against their recorded output, tests/golden/manifest.json.

One child process runs every command of ``tests/golden/run.py`` at one BLAS
thread.  Where its numpy, scipy and OpenBLAS builds are the recorded ones, exit
codes, stderr and the SHA-256 of stdout and of each written file must match.
Elsewhere the last digits may move: exit codes and stderr must still match,
and the text of each output must match exactly outside its numbers, which
must agree within ``RTOL`` (or ``ATOL`` for values at rounding level).
After a change that moves an entry on purpose, ``python3 tests/golden/run.py
--write`` records the new outputs.
"""

import json
import os
import re
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np

GOLDEN = Path(__file__).resolve().parent / "golden"
RTOL, ATOL = 1e-6, 1e-12

#: a number not inside a name such as K_nu2
_NUMBER = re.compile(r"(?<![\w.])-?\d+(?:\.\d*)?(?:[eE][-+]?\d+)?(?![\w.])")


def _fresh_record() -> dict:
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1", MKL_NUM_THREADS="1")
    proc = subprocess.run([sys.executable, str(GOLDEN / "run.py")], env=env,
                          capture_output=True, text=True, timeout=600)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout)


def _numbers_agree(got: str, want: str) -> bool:
    """Equal text outside the numbers, and the numbers within RTOL or ATOL."""
    if _NUMBER.split(got) != _NUMBER.split(want):
        return False
    a = np.array([float(x) for x in _NUMBER.findall(got)])
    b = np.array([float(x) for x in _NUMBER.findall(want)])
    return a.shape == b.shape and bool(np.all(np.abs(a - b) <= RTOL * np.abs(b) + ATOL))


def test_shipped_commands_match_the_golden_manifest():
    golden = json.loads((GOLDEN / "manifest.json").read_text(encoding="utf-8"))
    fresh = _fresh_record()
    assert [c["argv"] for c in fresh["commands"]] == [c["argv"] for c in golden["commands"]]
    same_env = fresh["environment"] == golden["environment"]
    if same_env:
        mode = "SHA-256 digests (recorded environment)"
    else:
        mode = f"text with numbers at rtol {RTOL:g}, atol {ATOL:g} (environment differs)"
        warnings.warn(f"golden manifest compared as {mode}: recorded "
                      f"{golden['environment']}, running {fresh['environment']}")
    print(f"golden manifest: {len(golden['commands'])} commands compared by {mode}")
    for got, want in zip(fresh["commands"], golden["commands"]):
        where = " ".join(want["argv"])
        assert got["exit"] == want["exit"], where
        assert got["stderr"] == want["stderr"], where
        assert sorted(got["sha256"]) == sorted(want["sha256"]), where
        for name, digest in want["sha256"].items():
            if same_env:
                assert got["sha256"][name] == digest, f"{where}: {name} moved"
            else:
                assert _numbers_agree(got["text"][name], want["text"][name]), \
                    f"{where}: {name} moved beyond rtol {RTOL:g}"
