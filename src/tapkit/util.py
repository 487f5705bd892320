"""Seeding, hashing, the u32 size limit of the binary headers and the one
artifact writer shared by every stage.

Every artifact file (JSON, CSV, features, checkpoints) is written through
`atomic_open`: the bytes go to `<name>.tmp` next to the target, which replaces
the target only once the whole block has succeeded. A stage killed or failing
mid-write therefore leaves the previous file or none, never a truncated one.
"""

from __future__ import annotations

import hashlib
import json
import os
from contextlib import contextmanager
from pathlib import Path

import numpy as np

# Fixed spawn keys, one per RNG consumer. Derived streams are independent, so
# `pipeline` output is byte-identical to running the stages one at a time.
KEY_SYNTH = (0,)
KEY_SSAD_INIT = (1, 0)
KEY_SSAD_SHUFFLE = (1, 1)
KEY_TAG_INIT = (2, 0)
KEY_TAG_SHUFFLE = (2, 1)
KEY_BASELINE = (5,)

# The largest size a TAPF feature header (T, D) or a TAPM checkpoint's layer
# table (channels, kernel) can store: both write u32 fields.
U32_MAX = 2**32 - 1


def rng_for(seed: int, key: tuple[int, ...]) -> np.random.Generator:
    """Deterministic per-consumer RNG derived from the single global seed."""
    return np.random.default_rng(np.random.SeedSequence(entropy=seed, spawn_key=key))


def sha256_file(path: str | Path) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as f:
        for chunk in iter(lambda: f.read(1 << 20), b""):
            h.update(chunk)
    return h.hexdigest()


@contextmanager
def atomic_open(path: str | Path, mode: str = "w"):
    """Open `<name>.tmp` for writing; replace `path` with it if the block succeeds.

    Creates the parent directory. On any exception the temp file is removed
    and the target is left as it was.
    """
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    tmp = path.with_name(path.name + ".tmp")
    try:
        with open(tmp, mode, encoding=None if "b" in mode else "utf-8") as f:
            yield f
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


def write_json_atomic(path: str | Path, obj) -> None:
    """Serialize with a stable key order and replace the target atomically."""
    with atomic_open(path) as f:
        json.dump(obj, f, indent=2, sort_keys=True)
        f.write("\n")
