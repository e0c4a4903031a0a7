"""Seeded, reproducible perturbation of translations and yaw rotations.

Ground-truth poses become simulated sensor outputs by adding zero-mean
Gaussian noise to the x and y translation components and to the heading.
Roll, pitch and z are never touched: the noise model is deliberately planar.

Reproducibility is structural, not incidental.  Every noise channel draws
from its own labeled stream derived from (seed, label) alone, so changing
one channel's standard deviation never shifts the sequence another channel
sees.  Ablation sweeps across one parameter therefore hold everything else
fixed draw-for-draw.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .geometry import multiply_quaternions, normalize_quaternions

_SEED_MASK = (1 << 64) - 1


def _seed_sequence(seed: int, label: str) -> np.random.SeedSequence:
    # imported at the first draw, not with the package: hashlib loads OpenSSL
    import hashlib

    digest = hashlib.sha256(label.encode("utf-8")).digest()
    words = [int.from_bytes(digest[i : i + 4], "big") for i in range(0, 16, 4)]
    return np.random.SeedSequence([seed & _SEED_MASK, *words])


@dataclass(frozen=True)
class NoiseSpec:
    """Noise levels for one perturbation source.

    ``sigma_trans`` is the standard deviation in meters applied to x and y;
    ``gamma_yaw`` is the heading standard deviation in degrees.  Zero means
    exact pass-through on that channel.
    """

    sigma_trans: float
    gamma_yaw: float

    def __post_init__(self) -> None:
        if not (math.isfinite(self.sigma_trans) and self.sigma_trans >= 0.0):
            raise ValueError(f"sigma_trans must be finite and >= 0, got {self.sigma_trans}")
        if not (math.isfinite(self.gamma_yaw) and self.gamma_yaw >= 0.0):
            raise ValueError(f"gamma_yaw must be finite and >= 0, got {self.gamma_yaw}")

    @property
    def gamma_yaw_rad(self) -> float:
        return math.radians(self.gamma_yaw)


class RandomStream:
    """A family of deterministic, independently labeled random substreams.

    Each label owns a private generator seeded from (seed, full label path)
    only, created lazily and cached, so the draw sequence under one label is
    invariant to what any other label draws.  Instances are single-owner
    mutable state; do not share one across threads.
    """

    def __init__(self, seed: int, label: str = "root") -> None:
        self._seed = int(seed)
        self._label = label
        self._children: dict[str, np.random.Generator] = {}

    @property
    def seed(self) -> int:
        return self._seed

    @property
    def label(self) -> str:
        return self._label

    def derive(self, label: str) -> "RandomStream":
        """A namespaced sub-family, e.g. per agent or per run."""
        return RandomStream(self._seed, f"{self._label}/{label}")

    def _generator(self, label: str) -> np.random.Generator:
        gen = self._children.get(label)
        if gen is None:
            gen = np.random.default_rng(_seed_sequence(self._seed, f"{self._label}/{label}"))
            self._children[label] = gen
        return gen

    def standard_normal(self, label: str, size: int | None = None):
        """One draw as a float, or ``size`` draws as an array.

        ``size`` draws at once are the same values, in the same order, as
        ``size`` single draws in a row.
        """
        if size is None:
            return float(self._generator(label).standard_normal())
        return self._generator(label).standard_normal(size)


def perturb_translation(t: np.ndarray, spec: NoiseSpec, rng: RandomStream) -> np.ndarray:
    """Add independent N(0, sigma_trans^2) noise to x and y; z is untouched.

    ``t`` is n translations, shape (n, 3).  The standard normals are drawn
    unconditionally and scaled by sigma, so a zero sigma still advances the
    stream identically and returns the input values exactly.  n rows draw n
    values per channel in one call: the same values, in the same order, as
    n one-row calls.
    """
    t = np.asarray(t, dtype=float)
    out = t.copy()
    out[:, 0] = t[:, 0] + spec.sigma_trans * rng.standard_normal("translation-x", len(t))
    out[:, 1] = t[:, 1] + spec.sigma_trans * rng.standard_normal("translation-y", len(t))
    return out


def perturb_yaw(q: np.ndarray, spec: NoiseSpec, rng: RandomStream) -> np.ndarray:
    """Right-multiply each row of q by a random rotation about the body z axis.

    ``q`` is n scalar-last quaternions, shape (n, 4).  The perturbation
    angle is N(0, gamma_yaw^2) with gamma converted to radians;
    gamma_yaw = 0 returns q exactly.
    """
    half = (0.5 * (spec.gamma_yaw_rad * rng.standard_normal("yaw", len(q)))).tolist()
    yaw = np.zeros((len(q), 4))
    # math.sin/cos per angle: np.sin/np.cos may round the last place differently
    yaw[:, 2] = [math.sin(h) for h in half]
    yaw[:, 3] = [math.cos(h) for h in half]
    return multiply_quaternions(q, normalize_quaternions(yaw))


def perturb_pose(
    p: tuple[np.ndarray, np.ndarray], spec: NoiseSpec, rng: RandomStream
) -> tuple[np.ndarray, np.ndarray]:
    """Perturb translation and yaw through their independent channels.

    ``p`` is n poses as a ``(t, q)`` pair of (n, 3) translations and (n, 4)
    scalar-last quaternions, and so is the result; only x, y and heading
    change.  n poses at once give the same results as n one-row calls in
    order.
    """
    t, q = p
    return perturb_translation(t, spec, rng), perturb_yaw(q, spec, rng)
