"""Synthetic scattering-pattern generator for the three classes.

Each class has a distinct morphology rendered onto a noisy background:

* crypto: a bright elliptical wall with a fainter halo ring outside it,
  an offset dark disk inside, and an azimuthal brightness flicker.
* giardia: an elongated patch of concentric cosine fringes with a
  bright rim. Fringe periods sit strictly below the crypto ring
  spacing, which is what makes the two separable in frequency.
* others: a handful of soft blobs of either sign plus fine speckle.

Every sample is generated from its own seed sequence derived from
(master seed, split, class, index), so any image can be regenerated in
isolation and generation order does not matter.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from . import CRYPTO, GIARDIA, NUM_CLASSES, OTHERS

GENERATOR_VERSION = 1

SPLIT_CODES = {"train": 0, "test": 1}


@dataclass
class GenConfig:
    height: int = 244
    width: int = 324
    background: tuple[float, float] = (0.25, 0.55)
    noise_sigma: float = 0.02
    # ring spacing of the crypto double wall, pixels
    crypto_period: tuple[float, float] = (18.0, 30.0)
    crypto_radius: tuple[float, float] = (28.0, 46.0)
    crypto_ecc: tuple[float, float] = (1.0, 1.25)
    crypto_contrast: tuple[float, float] = (0.4, 0.75)
    # fringe period of the giardia pattern, strictly below crypto_period
    giardia_period: tuple[float, float] = (6.0, 12.0)
    giardia_radius: tuple[float, float] = (30.0, 52.0)
    giardia_ecc: tuple[float, float] = (1.25, 1.8)
    giardia_contrast: tuple[float, float] = (0.55, 0.95)
    others_contrast: tuple[float, float] = (0.25, 0.6)
    blob_count: tuple[int, int] = (2, 5)
    speckle_amp: float = 0.05

    def validate(self) -> None:
        if self.height < 32 or self.width < 32:
            raise ValueError(f"frame {self.height}x{self.width} too small")
        ranges = {
            "background": self.background,
            "crypto_period": self.crypto_period,
            "crypto_radius": self.crypto_radius,
            "crypto_ecc": self.crypto_ecc,
            "crypto_contrast": self.crypto_contrast,
            "giardia_period": self.giardia_period,
            "giardia_radius": self.giardia_radius,
            "giardia_ecc": self.giardia_ecc,
            "giardia_contrast": self.giardia_contrast,
            "others_contrast": self.others_contrast,
        }
        for name, (lo, hi) in ranges.items():
            if not (0 < lo <= hi):
                raise ValueError(f"{name} range ({lo}, {hi}) is not ordered positive")
        if self.giardia_period[1] >= self.crypto_period[0]:
            raise ValueError(
                f"giardia periods {self.giardia_period} must sit strictly below "
                f"crypto periods {self.crypto_period}"
            )
        if self.noise_sigma < 0 or self.speckle_amp < 0:
            raise ValueError("noise amplitudes must be non-negative")
        lo, hi = self.blob_count
        if not (0 < lo <= hi):
            raise ValueError(f"blob_count range ({lo}, {hi}) is not ordered positive")
        reach = 1.1 * (self.crypto_radius[1] + self.crypto_period[1]) + 4
        if 2 * reach >= min(self.height, self.width):
            raise ValueError(
                f"largest crypto object (reach {reach:.0f}px) does not fit "
                f"in a {self.height}x{self.width} frame"
            )


@dataclass
class Dataset:
    images: np.ndarray
    labels: np.ndarray

    def __len__(self) -> int:
        return len(self.images)


@lru_cache(maxsize=4)
def _grids(height: int, width: int) -> tuple[np.ndarray, np.ndarray]:
    yy, xx = np.mgrid[0:height, 0:width]
    return yy.astype(np.float64), xx.astype(np.float64)


def _uniform(rng: np.random.Generator, bounds: tuple[float, float]) -> float:
    return float(rng.uniform(bounds[0], bounds[1]))


def _elliptic_radius(rng, height, width, radius_range, ecc_range, extra_reach):
    """Common setup: placed, rotated elliptical radius field.

    Returns (re, u, v, r0, ecc) where re equals r0 on the object
    boundary, which is the curve (r0 cos t, r0 sin t / ecc) in (u, v).
    """
    r0 = _uniform(rng, radius_range)
    ecc = _uniform(rng, ecc_range)
    angle = float(rng.uniform(0.0, np.pi))
    margin = 1.1 * (r0 + extra_reach) + 4
    cy = float(rng.uniform(margin, height - margin))
    cx = float(rng.uniform(margin, width - margin))
    yy, xx = _grids(height, width)
    dy, dx = yy - cy, xx - cx
    cos_a, sin_a = np.cos(angle), np.sin(angle)
    u = cos_a * dx + sin_a * dy
    v = -sin_a * dx + cos_a * dy
    re = np.sqrt(u * u + (ecc * v) ** 2)
    return re, u, v, r0, ecc


def _render_crypto(rng: np.random.Generator, cfg: GenConfig) -> np.ndarray:
    period = _uniform(rng, cfg.crypto_period)
    amp = _uniform(rng, cfg.crypto_contrast)
    re, u, v, r0, ecc = _elliptic_radius(
        rng, cfg.height, cfg.width, cfg.crypto_radius, cfg.crypto_ecc, period
    )
    # the double wall is drawn as soft ridges plus bead-like spots sitting
    # on the inner ring; each bead on its own looks just like one of the
    # random blobs of the catch-all class, only the arrangement differs
    wall = 0.45 * np.exp(-((re - r0) ** 2) / (2 * 3.0**2))
    halo = 0.6 * np.exp(-((re - (r0 + period)) ** 2) / (2 * 6.0**2))
    beads = np.zeros_like(re)
    n_beads = int(rng.integers(0, 5))
    for _ in range(n_beads):
        theta = float(rng.uniform(0.0, 2 * np.pi))
        sigma = float(rng.uniform(6.0, 10.0))
        sign = 1.0 if rng.random() < 0.75 else -1.0
        strength = float(rng.uniform(0.35, 0.6))
        bu = r0 * np.cos(theta)
        bv = r0 * np.sin(theta) / ecc
        bd2 = (u - bu) ** 2 + (v - bv) ** 2
        beads += sign * strength * np.exp(-bd2 / (2 * sigma**2))
    return amp * (wall + halo + beads)


def _render_giardia(rng: np.random.Generator, cfg: GenConfig) -> np.ndarray:
    period = _uniform(rng, cfg.giardia_period)
    amp = _uniform(rng, cfg.giardia_contrast)
    re, u, v, r0, _ = _elliptic_radius(
        rng, cfg.height, cfg.width, cfg.giardia_radius, cfg.giardia_ecc, 0.0
    )
    phase = float(rng.uniform(0.0, 2 * np.pi))
    envelope = 0.5 * (1.0 + np.tanh((r0 - re) / 4.0))
    fringes = np.cos(2 * np.pi * re / period + phase)
    rim = 0.6 * np.exp(-((re - r0) ** 2) / (2 * 2.0**2))
    # dark nuclei inside the body, like the organism shows
    nuclei = np.zeros_like(re)
    for _ in range(int(rng.integers(3, 5))):
        na = float(rng.uniform(0.0, 2 * np.pi))
        nr = float(rng.uniform(0.15, 0.45)) * r0
        ns = float(rng.uniform(2.5, 4.5))
        nd2 = (u - nr * np.cos(na)) ** 2 + (v - nr * np.sin(na)) ** 2
        nuclei -= 0.8 * np.exp(-nd2 / (2 * ns**2))
    return amp * (0.7 * fringes * envelope + rim + nuclei)


def _render_others(rng: np.random.Generator, cfg: GenConfig) -> np.ndarray:
    amp = _uniform(rng, cfg.others_contrast)
    count = int(rng.integers(cfg.blob_count[0], cfg.blob_count[1] + 1))
    yy, xx = _grids(cfg.height, cfg.width)
    delta = np.zeros((cfg.height, cfg.width))
    for _ in range(count):
        by = float(rng.uniform(10, cfg.height - 10))
        bx = float(rng.uniform(10, cfg.width - 10))
        sigma = float(rng.uniform(5.0, 22.0))
        sign = 1.0 if rng.random() < 0.5 else -1.0
        strength = float(rng.uniform(0.25, 0.6))
        delta += (
            sign
            * strength
            * amp
            * np.exp(-((yy - by) ** 2 + (xx - bx) ** 2) / (2 * sigma**2))
        )
    return delta + _speckle(rng, cfg)


def _speckle(rng: np.random.Generator, cfg: GenConfig) -> np.ndarray:
    """Fine debris texture: white noise through a 3x3 box filter."""
    e = rng.normal(0.0, 1.0, (cfg.height, cfg.width))
    p = np.pad(e, 1, mode="edge")
    rows = p[:-2] + p[1:-1] + p[2:]
    box = (rows[:, :-2] + rows[:, 1:-1] + rows[:, 2:]) / 9.0
    return 3.0 * cfg.speckle_amp * box


_RENDERERS = {OTHERS: _render_others, CRYPTO: _render_crypto, GIARDIA: _render_giardia}


def sample_rng(master_seed: int, split: str, label: int, index: int) -> np.random.Generator:
    """The generator that fully determines one sample."""
    if split not in SPLIT_CODES:
        raise ValueError(f"split must be one of {sorted(SPLIT_CODES)}, got {split!r}")
    if master_seed < 0 or index < 0:
        raise ValueError("master_seed and index must be non-negative")
    seq = np.random.SeedSequence(
        entropy=(master_seed, SPLIT_CODES[split], label, index)
    )
    return np.random.default_rng(seq)


def gen_sample(
    label: int, index: int, config: GenConfig, master_seed: int, split: str
) -> np.ndarray:
    """One (height, width, 1) float32 image with values in [0, 1]."""
    if label not in _RENDERERS:
        raise ValueError(f"label must be 0, 1 or 2, got {label}")
    rng = sample_rng(master_seed, split, label, index)
    background = _uniform(rng, config.background)
    img = np.full((config.height, config.width), background)
    img += _RENDERERS[label](rng, config)
    if config.noise_sigma > 0:
        img += rng.normal(0.0, config.noise_sigma, img.shape)
    return np.clip(img, 0.0, 1.0).astype(np.float32)[:, :, None]


def gen_dataset(
    config: GenConfig,
    master_seed: int,
    split: str,
    per_class: int | tuple[int, int, int],
) -> Dataset:
    """All samples for one split, grouped by class in label order."""
    config.validate()
    if isinstance(per_class, int):
        counts = (per_class,) * NUM_CLASSES
    else:
        counts = tuple(per_class)
        if len(counts) != NUM_CLASSES:
            raise ValueError(f"need {NUM_CLASSES} class counts, got {len(counts)}")
    images = []
    labels = []
    for label, count in enumerate(counts):
        for index in range(count):
            images.append(gen_sample(label, index, config, master_seed, split))
            labels.append(label)
    if not images:
        raise ValueError("no samples requested")
    return Dataset(
        images=np.stack(images), labels=np.array(labels, dtype=np.int64)
    )
