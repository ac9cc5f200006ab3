"""The shipped commands, run in one process, and what each printed and wrote.

    python3 tests/golden/run.py            # print this run's record as JSON
    python3 tests/golden/run.py --write    # record it in tests/golden/manifest.json

``COMMANDS`` is the one list of the shipped commands.  Each runs through
``hypoco.cli.main`` in this process, with its output paths under a temporary
directory that the record writes as ``{out}``.  Per command the record keeps
the argv, the exit code, stderr, and a SHA-256 and the text of stdout and of
each written file; beside them, the numpy, scipy and OpenBLAS builds.  The
bytes hold at one BLAS thread only, so this script sets the thread counts to 1
before numpy loads.  ``tests/test_golden.py`` compares a fresh record with the
manifest.
"""

from __future__ import annotations

import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import ctypes  # noqa: E402
import hashlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
from contextlib import redirect_stderr, redirect_stdout  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parents[2]
MANIFEST = Path(__file__).resolve().with_name("manifest.json")
sys.path.insert(0, str(ROOT / "src"))

LANGEVIN, ADL = "configs/langevin_1d.cfg", "configs/adl_1d.cfg"

#: the shipped commands, run from the repository root; ``{out}`` is the output directory
COMMANDS = (
    ("verify", "--config", LANGEVIN, "--json", "{out}/verify.json"),
    ("verify", "--config", ADL, "--json", "{out}/verify.json"),
    ("constants", "--config", LANGEVIN),
    ("constants", "--config", ADL),
    ("bound", "--config", LANGEVIN),
    ("bound", "--config", ADL),
    ("report", "--config", LANGEVIN, "--json", "{out}/report.json", "--csv", "{out}/report.csv"),
    ("report", "--config", ADL, "--json", "{out}/report.json", "--csv", "{out}/report.csv"),
    ("lemmas", "--config", LANGEVIN),
    ("lemmas", "--config", ADL),
    ("bound", "--config", LANGEVIN, "--model", "boltzmann_rhmc"),
    ("sweep", "--config", LANGEVIN, "--gamma", "0.5:2:log3",
     "--json", "{out}/sweep.json", "--csv", "{out}/sweep.csv"),
    ("sweep", "--config", LANGEVIN, "--model", "boltzmann_rhmc", "--gamma", "0.5:2:log3",
     "--json", "{out}/sweep.json", "--csv", "{out}/sweep.csv"),
    ("sweep", "--config", ADL, "--gamma", "0.5:2:log3", "--epsilon-range", "0.5:2:log2",
     "--json", "{out}/sweep.json", "--csv", "{out}/sweep.csv"),
)


def _sha256(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def _openblas_builds() -> list[str]:
    """Build string of each OpenBLAS loaded in this process (its version and core)."""
    try:
        with open("/proc/self/maps", encoding="utf-8") as handle:
            paths = sorted({line.split()[-1] for line in handle
                            if "openblas" in line.lower() and "/" in line})
    except OSError:
        return []
    builds = []
    for path in paths:
        lib = ctypes.CDLL(path)
        for name in ("scipy_openblas_get_config64_", "scipy_openblas_get_config",
                     "openblas_get_config64_", "openblas_get_config"):
            config = getattr(lib, name, None)
            if config is not None:
                config.restype = ctypes.c_char_p
                builds.append(f"{os.path.basename(path)}: {config().decode()}")
                break
    return builds


def environment() -> dict:
    import numpy
    import scipy
    import scipy.linalg  # noqa: F401  (loads scipy's own BLAS, if any)

    return {"numpy": numpy.__version__, "scipy": scipy.__version__,
            "openblas": _openblas_builds()}


def run_command(argv: tuple[str, ...], out: Path) -> dict:
    """Run one command with its outputs under ``out``; its record, ``out`` as ``{out}``."""
    from hypoco import cli

    stdout, stderr = io.StringIO(), io.StringIO()
    with redirect_stdout(stdout), redirect_stderr(stderr):
        code = cli.main([arg.replace("{out}", str(out)) for arg in argv])
    texts = {"stdout": stdout.getvalue().replace(str(out), "{out}")}
    texts.update((path.name, path.read_text(encoding="utf-8")) for path in sorted(out.iterdir()))
    return {"argv": list(argv), "exit": code,
            "stderr": stderr.getvalue().replace(str(out), "{out}"),
            "sha256": {name: _sha256(text) for name, text in texts.items()},
            "text": texts}


def record() -> dict:
    os.chdir(ROOT)
    with tempfile.TemporaryDirectory() as tmp:
        commands = []
        for i, argv in enumerate(COMMANDS):
            out = Path(tmp, str(i))
            out.mkdir()
            commands.append(run_command(argv, out))
    return {"environment": environment(), "commands": commands}


def main(argv: list[str]) -> int:
    if argv not in ([], ["--write"]):
        sys.stderr.write("usage: run.py [--write]\n")
        return 2
    text = json.dumps(record(), indent=1, sort_keys=True) + "\n"
    if argv:
        MANIFEST.write_text(text, encoding="utf-8")
    else:
        sys.stdout.write(text)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
