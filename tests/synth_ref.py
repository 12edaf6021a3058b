"""Reference renderers: the full-frame form of parasnet.synth.

Every term is computed over the whole frame from full coordinate grids,
and each Gaussian is a plain np.exp, so far from an object many of them
underflow to subnormals or zero. Only the constants, sample_rng and
GenConfig come from the package. The package floors each exponent,
broadcasts its coordinates, renders a few rows at a time and computes
the giardia fringes only on a box, which leaves every byte unchanged,
so gen_sample is tested against this for equality.
"""

from __future__ import annotations

import numpy as np

from parasnet import CRYPTO, GIARDIA, OTHERS, synth
from parasnet.synth import GenConfig


def _grids(height: int, width: int) -> tuple[np.ndarray, np.ndarray]:
    grids = np.mgrid[0:height, 0:width].astype(np.float64)
    return grids[0], grids[1]


def _uniform(rng: np.random.Generator, bounds: tuple[float, float]) -> float:
    return float(rng.uniform(bounds[0], bounds[1]))


def _elliptic_radius(rng, height, width, radius_range, ecc_range, extra_reach):
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
    period = _uniform(rng, synth.CRYPTO_PERIOD)
    amp = _uniform(rng, synth.CRYPTO_CONTRAST)
    re, u, v, r0, ecc = _elliptic_radius(
        rng, cfg.height, cfg.width, synth.CRYPTO_RADIUS, synth.CRYPTO_ECC, period
    )
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
    period = _uniform(rng, synth.GIARDIA_PERIOD)
    amp = _uniform(rng, synth.GIARDIA_CONTRAST)
    re, u, v, r0, _ = _elliptic_radius(
        rng, cfg.height, cfg.width, synth.GIARDIA_RADIUS, synth.GIARDIA_ECC, 0.0
    )
    phase = float(rng.uniform(0.0, 2 * np.pi))
    envelope = 0.5 * (1.0 + np.tanh((r0 - re) / 4.0))
    fringes = np.cos(2 * np.pi * re / period + phase)
    rim = 0.6 * np.exp(-((re - r0) ** 2) / (2 * 2.0**2))
    nuclei = np.zeros_like(re)
    for _ in range(int(rng.integers(3, 5))):
        na = float(rng.uniform(0.0, 2 * np.pi))
        nr = float(rng.uniform(0.15, 0.45)) * r0
        ns = float(rng.uniform(2.5, 4.5))
        nd2 = (u - nr * np.cos(na)) ** 2 + (v - nr * np.sin(na)) ** 2
        nuclei -= 0.8 * np.exp(-nd2 / (2 * ns**2))
    return amp * (0.7 * fringes * envelope + rim + nuclei)


def _render_others(rng: np.random.Generator, cfg: GenConfig) -> np.ndarray:
    amp = _uniform(rng, synth.OTHERS_CONTRAST)
    count = int(rng.integers(synth.BLOB_COUNT[0], synth.BLOB_COUNT[1] + 1))
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
    e = rng.normal(0.0, 1.0, (cfg.height, cfg.width))
    p = np.pad(e, 1, mode="edge")
    rows = p[:-2] + p[1:-1] + p[2:]
    box = (rows[:, :-2] + rows[:, 1:-1] + rows[:, 2:]) / 9.0
    return 3.0 * synth.SPECKLE_AMP * box


_RENDERERS = {OTHERS: _render_others, CRYPTO: _render_crypto, GIARDIA: _render_giardia}


def gen_sample(
    label: int, index: int, config: GenConfig, master_seed: int, split: str
) -> np.ndarray:
    rng = synth.sample_rng(master_seed, split, label, index)
    background = _uniform(rng, synth.BACKGROUND)
    img = np.full((config.height, config.width), background)
    img += _RENDERERS[label](rng, config)
    img += rng.normal(0.0, synth.NOISE_SIGMA, img.shape)
    return np.clip(img, 0.0, 1.0).astype(np.float32)[:, :, None]
