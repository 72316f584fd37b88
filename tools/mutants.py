"""Mutation check of the tier-1 suite: every committed mutant must fail it.

    PYTHONPATH= OPENBLAS_NUM_THREADS=1 python tools/mutants.py

Each mutant replaces one exact string, which must occur exactly once in its
file, in a temporary copy of ``src/``, ``tests/`` and ``pyproject.toml``;
tier-1 then runs on that copy with ``-x``.  The unmutated copy runs first
and must pass, so a mutant counts as killed only by a failure it caused.
Exit status: 0 when every mutant is killed, 1 when one survives (tier-1
passes with it), 2 when the copy does not import from the temporary tree,
the unmutated copy fails, or a mutant's string is not found exactly once.
A constant added to ``src/`` adds its mutant here.
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

# (name, file under src/adaptnet, exact string, replacement)
MUTANTS = (
    ("SERIES_RTOL 1e-12 -> 1e-6", "msdtheory.py",
     "SERIES_RTOL = 1e-12", "SERIES_RTOL = 1e-6"),
    ("GAP_REL_MARGIN 1e-12 -> 0", "msdtheory.py",
     "GAP_REL_MARGIN = 1e-12", "GAP_REL_MARGIN = 0.0"),
    ("DIVERGENCE_FACTOR 1e12 -> 1e6", "harness.py",
     "DIVERGENCE_FACTOR = 1e12", "DIVERGENCE_FACTOR = 1e6"),
    ("BASIS_TOL 1e-12 -> 1e-6", "spectra.py",
     "BASIS_TOL = 1e-12", "BASIS_TOL = 1e-6"),
    ("steady start int(round(.)) -> int(.)", "harness.py",
     "int(round(cfg.steady_window * cfg.iterations))",
     "int(cfg.steady_window * cfg.iterations)"),
    ("ORDERING_SLACK 1e-10 -> 1e-3", "msdtheory.py",
     "ORDERING_SLACK = 1e-10", "ORDERING_SLACK = 1e-3"),
    ("PSD_TOL 1e-10 -> 1e-6", "msdtheory.py",
     "PSD_TOL = 1e-10", "PSD_TOL = 1e-6"),
    ("COND_LIMIT 1e8 -> 1e12", "msdtheory.py",
     "COND_LIMIT = 1e8", "COND_LIMIT = 1e12"),
    ("DENOM_GUARD 1e-12 -> 1e-6", "msdtheory.py",
     "DENOM_GUARD = 1e-12", "DENOM_GUARD = 1e-6"),
    ("SETTLE_WITHIN_DB 3 -> 6", "harness.py",
     "SETTLE_WITHIN_DB = 3.0", "SETTLE_WITHIN_DB = 6.0"),
    ("CTA's A^T on the left of B", "spectra.py",
     "b[a1] = b[a1] @ at", "b[a1] = at @ b[a1]"),
)


def _env(tree: Path) -> dict:
    # no bytecode cache, so a mutant written and undone within one second
    # is never run from a stale .pyc
    return dict(os.environ, PYTHONPATH=str(tree / "src"), PYTHONDONTWRITEBYTECODE="1")


def _tier1(tree: Path) -> tuple[bool, float]:
    """(passed, seconds) of tier-1 with -x on the copy ``tree``."""
    start = time.perf_counter()
    done = subprocess.run([sys.executable, "-m", "pytest", "-q", "-x", "-p", "no:cacheprovider"],
                          cwd=tree, env=_env(tree), stdout=subprocess.DEVNULL,
                          stderr=subprocess.DEVNULL)
    return done.returncode == 0, time.perf_counter() - start


def _copy(tree: Path) -> None:
    ignore = shutil.ignore_patterns("__pycache__", "*.egg-info")
    for name in ("src", "tests"):
        shutil.copytree(ROOT / name, tree / name, ignore=ignore)
    shutil.copy2(ROOT / "pyproject.toml", tree / "pyproject.toml")


def main() -> int:
    with tempfile.TemporaryDirectory(prefix="adaptnet-mutants-") as tmp:
        tree = Path(tmp)
        _copy(tree)
        where = subprocess.run([sys.executable, "-c", "import adaptnet; print(adaptnet.__file__)"],
                               env=_env(tree), cwd=tree, capture_output=True,
                               text=True).stdout.strip()
        if not where.startswith(str(tree)):
            print(f"the copy imports adaptnet from {where!r}, not from {tree}", file=sys.stderr)
            return 2
        passed, seconds = _tier1(tree)
        print(f"unmutated: {'passes' if passed else 'FAILS'} ({seconds:.1f} s)", flush=True)
        if not passed:
            return 2
        survivors = []
        for name, rel, old, new in MUTANTS:
            path = tree / "src" / "adaptnet" / rel
            text = path.read_text()
            if text.count(old) != 1:
                print(f"{name}: {old!r} occurs {text.count(old)} times in {rel}", file=sys.stderr)
                return 2
            path.write_text(text.replace(old, new))
            try:
                passed, seconds = _tier1(tree)
            finally:
                path.write_text(text)
            print(f"{name}: {'SURVIVES' if passed else 'killed'} ({seconds:.1f} s)", flush=True)
            if passed:
                survivors.append(name)
    print(f"{len(MUTANTS) - len(survivors)} of {len(MUTANTS)} mutants killed")
    return 1 if survivors else 0


if __name__ == "__main__":
    sys.exit(main())
