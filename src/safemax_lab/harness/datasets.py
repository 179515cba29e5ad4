"""Synthetic 2-d class-conditional datasets: the checked spec and its builder."""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from ..diffusion import LabeledDataset
from ..gradcore import Record, integer, one_of, real, rule

GEOMETRIES = ("ring", "grid")
RING_RADIUS = 4.0
GRID_SPACING = 4.0


@dataclass(frozen=True)
class DatasetSpec(Record):
    k: int = rule(integer, 2, default=4)
    n_per_class: int = rule(integer, 2, default=1000)
    geometry: str = rule(one_of, *GEOMETRIES, default="ring")
    noise_scale: float = rule(real, above=0.0, below=math.inf, default=0.35)
    seed: int = rule(integer, default=0)


def class_means(spec: DatasetSpec) -> np.ndarray:
    """Class centers: equally spaced on a radius-4 circle, or a square lattice."""
    K = spec.k
    if spec.geometry == "ring":
        angles = 2.0 * np.pi * np.arange(K) / K
        return RING_RADIUS * np.stack([np.cos(angles), np.sin(angles)], axis=1)
    side = int(np.ceil(np.sqrt(K)))
    offset = (side - 1) / 2.0
    means = [((k % side) - offset, (k // side) - offset) for k in range(K)]
    return GRID_SPACING * np.asarray(means, dtype=np.float64)


def generate_toy_dataset(spec: DatasetSpec) -> LabeledDataset:
    """Isotropic Gaussian blobs around the geometry's class means, drawn from spec.seed."""
    means = class_means(spec)
    rng = np.random.default_rng(spec.seed)
    points = np.concatenate([
        means[c] + spec.noise_scale * rng.standard_normal((spec.n_per_class, 2))
        for c in range(spec.k)
    ])
    labels = np.repeat(np.arange(spec.k, dtype=np.int64), spec.n_per_class)
    return LabeledDataset(points=points, labels=labels, K=spec.k)
