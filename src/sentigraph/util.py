"""Seed derivation and small shared helpers."""

from __future__ import annotations

import hashlib
import os
from contextlib import contextmanager

import numpy as np


def derive_seed(base_seed: int, name: str) -> int:
    """Stable named sub-seed so components stay independently reproducible."""
    digest = hashlib.sha256(f"{base_seed}:{name}".encode("utf-8")).digest()
    return int.from_bytes(digest[:8], "little")


def make_rng(base_seed: int, name: str) -> np.random.Generator:
    return np.random.default_rng(derive_seed(base_seed, name))


def file_sha256(path) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as f:
        for chunk in iter(lambda: f.read(1 << 20), b""):
            h.update(chunk)
    return h.hexdigest()


@contextmanager
def atomic_write(path, mode: str = "w"):
    """Open a temporary file next to ``path``; replace ``path`` with it on success.

    Readers see the previous complete file or the new complete one, never a
    torn one. If the block raises, the temporary file is removed and
    ``path`` is untouched. An OSError about the temporary file (a missing
    directory, a directory in the way) is raised naming ``path``. There is
    no fsync: this guards against a crash of the program, not of the machine.
    """
    tmp = f"{os.fspath(path)}.tmp{os.getpid()}"
    try:
        with open(tmp, mode, encoding=None if "b" in mode else "utf-8") as f:
            yield f
        os.replace(tmp, path)
    except BaseException as e:
        if os.path.exists(tmp):
            os.unlink(tmp)
        if isinstance(e, OSError) and e.filename == tmp:
            raise type(e)(e.errno, e.strerror, os.fspath(path)) from None
        raise
