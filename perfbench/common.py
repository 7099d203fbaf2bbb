"""Paths, BLAS pinning and frozen-model helpers shared by the perfbench scripts.

Importing this module imports neither numpy nor cfedit: `pin_blas` has to run
before numpy loads, and `import_cfedit` refuses to run without the sources.
"""

from __future__ import annotations

import hashlib
import json
import os
import sys

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
SRC = os.path.join(ROOT, "src")
MODELS_DIR = os.path.join(BENCH_DIR, "models")
OUT_DIR = os.path.join(BENCH_DIR, "out")

BLAS_THREADS = 1
BLAS_ENV = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")

# Frozen models: name -> input size in pixels. Both use the reference layer
# specs, so "ref" has a 4x4x20 feature grid and "wide" a 7x7x20 one.
FROZEN = {"ref": 28, "wide": 42}
# How freeze.py trains them (the README's shapes recipe).
RECIPE = {"shapes_count": 600, "epochs": 15, "learning_rate": 0.05, "seed": 0}


def pin_blas(threads: int = BLAS_THREADS) -> int:
    """Fix the BLAS thread count; must run before numpy is imported."""
    if "numpy" in sys.modules:
        raise RuntimeError("pin_blas must run before numpy is imported")
    for name in BLAS_ENV:
        os.environ[name] = str(threads)
    return threads


def import_cfedit():
    """Import cfedit from this checkout's src/, never from anywhere else."""
    if not os.path.isfile(os.path.join(SRC, "cfedit", "__init__.py")):
        raise FileNotFoundError(f"cfedit sources not found under {SRC}")
    sys.path.insert(0, SRC)
    import cfedit

    where = os.path.dirname(os.path.abspath(cfedit.__file__))
    if where != os.path.join(SRC, "cfedit"):
        raise ImportError(f"cfedit was imported from {where}, not from {SRC}")
    return cfedit


def model_path(name: str) -> str:
    return os.path.join(MODELS_DIR, name)


def model_digest(path: str) -> str:
    """sha256 over the bundle's manifest and weights, in that order."""
    h = hashlib.sha256()
    for part in ("manifest.json", "weights.bin"):
        with open(os.path.join(path, part), "rb") as fh:
            h.update(fh.read())
    return h.hexdigest()


def expected_digests() -> dict:
    with open(os.path.join(MODELS_DIR, "digests.json")) as fh:
        return json.load(fh)
