"""Image loading for training and generation.

Real pixels are out of scope at desk scale: each image id deterministically
hashes to a synthetic raster, so two references to the same id always see the
same pixels.
"""

from __future__ import annotations

import hashlib
from typing import Callable

import numpy as np


def synth_image(image_id: str, image_size: int) -> np.ndarray:
    """Deterministic (image_size, image_size) raster in [0, 1] from the id."""
    digest = hashlib.sha256(image_id.encode("utf-8")).digest()
    seed = int.from_bytes(digest[:8], "little")
    rng = np.random.default_rng(np.random.PCG64(seed))
    return rng.random((image_size, image_size))


def make_synth_loader(image_size: int) -> Callable[[str], np.ndarray]:
    return lambda image_id: synth_image(image_id, image_size)
