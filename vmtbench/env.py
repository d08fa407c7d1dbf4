"""Pinned environment and provenance for every benchmark process.

Importing this module pins the process before numpy or ``repro`` load:

* BLAS/OpenMP pools are limited to one thread, so a client and a server
  process together never ask for more cores than ``nproc``;
* ``REPRO_BACKEND``, ``REPRO_CHECKS`` and ``REPRO_KILL_RUN`` are removed,
  so every request runs exactly the backend and checks it names;
* ``repro`` is imported from this checkout's ``src/``, never from an
  installed copy -- :func:`import_repro` fails loudly otherwise.
"""

from __future__ import annotations

import hashlib
import os
import platform
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
#: Scratch space for server data dirs and trace dumps (git-ignored).
OUT = os.path.join(ROOT, ".vmtbench-out")

THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")
UNSET_VARS = ("REPRO_BACKEND", "REPRO_CHECKS", "REPRO_KILL_RUN")


class CheckoutError(RuntimeError):
    """The benchmark is not running inside a checkout with ``src/repro``."""


def _pin(environ) -> None:
    for name in THREAD_VARS:
        environ[name] = "1"
    for name in UNSET_VARS:
        environ.pop(name, None)


_pin(os.environ)


def child_env() -> dict:
    """Environment for a benchmark child process (server, cold start)."""
    env = dict(os.environ)
    _pin(env)
    env["PYTHONPATH"] = SRC
    env["PYTHONDONTWRITEBYTECODE"] = "1"
    return env


def python_cmd(*args: str) -> list:
    """A child interpreter command; ``-s`` keeps user site-packages out."""
    return [sys.executable, "-s", *args]


def import_repro():
    """Import ``repro`` from ``src/`` of this checkout and return it."""
    if not os.path.isfile(os.path.join(SRC, "repro", "__init__.py")):
        raise CheckoutError(f"no src/repro package under {ROOT}")
    if sys.path[0] != SRC:
        sys.path.insert(0, SRC)
    import repro
    where = os.path.dirname(os.path.abspath(repro.__file__))
    if where != os.path.join(SRC, "repro"):
        raise CheckoutError(f"repro was imported from {where}, "
                            f"not from {SRC}")
    return repro


def src_sha256() -> str:
    """Content hash of every ``.py`` file under ``src/repro``."""
    digest = hashlib.sha256()
    base = os.path.join(SRC, "repro")
    for dirpath, dirnames, filenames in os.walk(base):
        dirnames.sort()
        for name in sorted(filenames):
            if name.endswith(".py"):
                path = os.path.join(dirpath, name)
                digest.update(os.path.relpath(path, base).encode())
                with open(path, "rb") as handle:
                    digest.update(handle.read())
    return digest.hexdigest()[:16]


def git_commit():
    """HEAD of the checkout, or ``None`` when it is not a git repository."""
    if not os.path.exists(os.path.join(ROOT, ".git")):
        return None
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                             capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.SubprocessError):
        return None
    return out.stdout.strip() or None


def provenance() -> dict:
    """What a reader needs to place a run: cores, versions, code."""
    import numpy
    try:
        affinity = len(os.sched_getaffinity(0))
    except AttributeError:  # pragma: no cover - non-Linux
        affinity = os.cpu_count()
    return {
        "nproc": affinity,
        "cpu_count": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "git_commit": git_commit(),
        "src_sha256": src_sha256(),
        "threads_env": {name: os.environ.get(name) for name in THREAD_VARS},
    }
