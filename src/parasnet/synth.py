"""Synthetic scattering-pattern generator for the three classes.

Each class has a distinct morphology rendered onto a noisy background:

* crypto: a bright elliptical wall, a wider halo ring one period
  outside it, and up to four bead-like spots on the wall.
* giardia: an elongated patch of concentric cosine fringes with a
  bright rim and three or four dark nuclei. Fringe periods sit strictly
  below the crypto ring spacing, which is what makes the two separable
  in frequency.
* others: a handful of soft blobs of either sign plus fine speckle.

The distribution is fixed: every range a sample draws from is one of
the module constants below. GenConfig sets only the frame size, which
must hold the largest crypto object.

Every sample is generated from its own seed sequence derived from
(master seed, split, class, index), so any image can be regenerated in
isolation and generation order does not matter to the bytes. Still,
gen_dataset and `parasnet gen` walk a split in one order, sample_at,
which interleaves the classes, and spread it over the usable CPUs
(shards.map_ranges). gen_dataset holds the split as one float32 array
over a shared mapping, into which this process and each forked child
render their own images in place.

A sample draws all its parameters first, in a fixed order. The frame is
then rendered STRIP_ROWS rows at a time, with in-place operations where
they give the same bits, so the temporaries are few and small enough to
be reused from the heap instead of being faulted in afresh. Each
strip's sensor noise is drawn as it is rendered, which continues the
random stream exactly as one whole-frame draw would. The
giardia fringes are computed only on the box where their envelope is
not exactly zero; outside it their product with the envelope is a
signed zero, which leaves the rim as it is.

Every Gaussian term is exp of an exponent that falls without bound away
from its centre. Below about -708 the result is subnormal or zero, and
numpy's exp takes a slow path for it (on an x86-64 Xeon with numpy 2.4,
about 166 ns per subnormal result against 1.3 ns per normal one). So
each exponent is floored at EXP_FLOOR = -700 first, and exp(-700),
about 1e-304, is a normal number. This changes no output byte: a
floored term and the value it replaces are both below 1e-303, and the
term is only scaled by factors of at most 1 and summed, so it either
vanishes in a larger partial sum or leaves a sum far below half an ulp
of the background (at least 0.25) that every render is added to.
Every other term is computed with the same float64 operations in the
same order as the whole-frame reference renderers in tests/synth_ref.py.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from . import CRYPTO, GIARDIA, INPUT_HEIGHT, INPUT_WIDTH, NUM_CLASSES, OTHERS, shards

SPLIT_CODES = {"train": 0, "test": 1}

BACKGROUND = (0.25, 0.55)
NOISE_SIGMA = 0.02
# ring spacing of the crypto double wall, pixels
CRYPTO_PERIOD = (18.0, 30.0)
CRYPTO_RADIUS = (28.0, 46.0)
CRYPTO_ECC = (1.0, 1.25)
CRYPTO_CONTRAST = (0.4, 0.75)
# fringe period of the giardia pattern, strictly below CRYPTO_PERIOD
GIARDIA_PERIOD = (6.0, 12.0)
GIARDIA_RADIUS = (30.0, 52.0)
GIARDIA_ECC = (1.25, 1.8)
GIARDIA_CONTRAST = (0.55, 0.95)
OTHERS_CONTRAST = (0.25, 0.6)
BLOB_COUNT = (2, 5)
SPECKLE_AMP = 0.05
# floor of every Gaussian exponent; exp(EXP_FLOOR) is about 1e-304, a
# normal float64 (see the module docstring)
EXP_FLOOR = -700.0
# rows rendered per pass; 32 rows of a 324-pixel frame are an 81 KiB
# float64 temporary
STRIP_ROWS = 32


@dataclass(frozen=True)
class GenConfig:
    height: int = INPUT_HEIGHT
    width: int = INPUT_WIDTH

    def __post_init__(self) -> None:
        reach = 1.1 * (CRYPTO_RADIUS[1] + CRYPTO_PERIOD[1]) + 4
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


# what a renderer returns once it has drawn its sample's parameters: a
# function that renders the given rows of the frame as a fresh float64
# array, drawing nothing more
Painter = Callable[[slice], np.ndarray]


def _uniform(rng: np.random.Generator, bounds: tuple[float, float]) -> float:
    return float(rng.uniform(bounds[0], bounds[1]))


def _gauss(d2: np.ndarray, two_var: float) -> np.ndarray:
    """exp(-d2 / two_var), computed in place of d2, with the exponent
    floored at EXP_FLOOR."""
    # dividing by the negated constant gives the same bits as negating
    # the dividend first
    d2 /= -two_var
    np.maximum(d2, EXP_FLOOR, out=d2)
    return np.exp(d2, out=d2)


def _ring(re: np.ndarray, radius: float, sigma: float) -> np.ndarray:
    """A unit Gaussian ridge of the elliptical radius re around radius."""
    d2 = re - radius
    d2 *= d2
    return _gauss(d2, 2 * sigma**2)


def _blob(y: np.ndarray, x: np.ndarray, cy: float, cx: float, sigma: float) -> np.ndarray:
    """A unit Gaussian blob at (cy, cx). The coordinates y and x are
    either arrays of one shape or a column and a row that broadcast."""
    dy2 = y - cy
    dy2 *= dy2
    dx2 = x - cx
    dx2 *= dx2
    return _gauss(dy2 + dx2, 2 * sigma**2)


def _ellipse(rng, cfg, radius_range, ecc_range, extra_reach):
    """Common setup: a placed, rotated ellipse.

    Returns (r0, ecc, coords), where coords(rows) gives the fields
    (re, u, v) on those rows of the frame: (u, v) are the rotated
    offsets from the centre, and re equals r0 on the object boundary,
    which is the curve (r0 cos t, r0 sin t / ecc) in (u, v).
    """
    r0 = _uniform(rng, radius_range)
    ecc = _uniform(rng, ecc_range)
    angle = float(rng.uniform(0.0, np.pi))
    margin = 1.1 * (r0 + extra_reach) + 4
    cy = float(rng.uniform(margin, cfg.height - margin))
    cx = float(rng.uniform(margin, cfg.width - margin))
    cos_a, sin_a = np.cos(angle), np.sin(angle)
    dx = np.arange(cfg.width, dtype=np.float64) - cx

    def coords(rows: slice) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        dy = np.arange(rows.start, rows.stop, dtype=np.float64)[:, None] - cy
        u = cos_a * dx + sin_a * dy
        v = -sin_a * dx + cos_a * dy
        re = u * u
        ev2 = ecc * v
        ev2 *= ev2
        re += ev2
        np.sqrt(re, out=re)
        return re, u, v

    return r0, ecc, coords


def _render_crypto(rng: np.random.Generator, cfg: GenConfig) -> Painter:
    period = _uniform(rng, CRYPTO_PERIOD)
    amp = _uniform(rng, CRYPTO_CONTRAST)
    r0, ecc, coords = _ellipse(rng, cfg, CRYPTO_RADIUS, CRYPTO_ECC, period)
    # the double wall is drawn as soft ridges plus bead-like spots sitting
    # on the inner ring; each bead on its own looks just like one of the
    # random blobs of the catch-all class, only the arrangement differs
    bead_params = []
    for _ in range(int(rng.integers(0, 5))):
        theta = float(rng.uniform(0.0, 2 * np.pi))
        sigma = float(rng.uniform(6.0, 10.0))
        sign = 1.0 if rng.random() < 0.75 else -1.0
        strength = float(rng.uniform(0.35, 0.6))
        bu, bv = r0 * np.cos(theta), r0 * np.sin(theta) / ecc
        bead_params.append((bu, bv, sigma, sign * strength))

    def paint(rows: slice) -> np.ndarray:
        re, u, v = coords(rows)
        out = _ring(re, r0, 3.0)
        out *= 0.45
        halo = _ring(re, r0 + period, 6.0)
        halo *= 0.6
        out += halo
        beads = np.zeros_like(re)
        for bu, bv, sigma, weight in bead_params:
            bead = _blob(u, v, bu, bv, sigma)
            bead *= weight
            beads += bead
        out += beads
        out *= amp
        return out

    return paint


def _render_giardia(rng: np.random.Generator, cfg: GenConfig) -> Painter:
    period = _uniform(rng, GIARDIA_PERIOD)
    amp = _uniform(rng, GIARDIA_CONTRAST)
    r0, _, coords = _ellipse(rng, cfg, GIARDIA_RADIUS, GIARDIA_ECC, 0.0)
    phase = float(rng.uniform(0.0, 2 * np.pi))
    # dark nuclei inside the body, like the organism shows
    nuclei_params = []
    for _ in range(int(rng.integers(3, 5))):
        na = float(rng.uniform(0.0, 2 * np.pi))
        nr = float(rng.uniform(0.15, 0.45)) * r0
        ns = float(rng.uniform(2.5, 4.5))
        nuclei_params.append((nr * np.cos(na), nr * np.sin(na), ns))

    def paint(rows: slice) -> np.ndarray:
        re, u, v = coords(rows)
        envelope = r0 - re
        envelope /= 4.0
        np.tanh(envelope, out=envelope)
        envelope += 1.0
        envelope *= 0.5
        rim = _ring(re, r0, 2.0)
        rim *= 0.6
        nuclei = np.zeros_like(re)
        for nu, nv, ns in nuclei_params:
            nucleus = _blob(u, v, nu, nv, ns)
            nucleus *= 0.8
            nuclei -= nucleus
        # the fringes only where the envelope is not exactly 0; elsewhere
        # their product with it is a signed zero, which leaves the rim as is
        inside = envelope != 0.0
        ys = np.flatnonzero(inside.any(axis=1))
        xs = np.flatnonzero(inside.any(axis=0))
        if ys.size:
            box = np.s_[ys[0] : ys[-1] + 1, xs[0] : xs[-1] + 1]
            fringes = (2 * np.pi) * re[box]
            fringes /= period
            fringes += phase
            np.cos(fringes, out=fringes)
            fringes *= 0.7
            fringes *= envelope[box]
            rim[box] += fringes
        rim += nuclei
        rim *= amp
        return rim

    return paint


def _render_others(rng: np.random.Generator, cfg: GenConfig) -> Painter:
    amp = _uniform(rng, OTHERS_CONTRAST)
    count = int(rng.integers(BLOB_COUNT[0], BLOB_COUNT[1] + 1))
    blobs = []
    for _ in range(count):
        by = float(rng.uniform(10, cfg.height - 10))
        bx = float(rng.uniform(10, cfg.width - 10))
        sigma = float(rng.uniform(5.0, 22.0))
        sign = 1.0 if rng.random() < 0.5 else -1.0
        strength = float(rng.uniform(0.25, 0.6))
        blobs.append((by, bx, sigma, sign * strength * amp))
    speckle = rng.normal(0.0, 1.0, (cfg.height, cfg.width))
    xx = np.arange(cfg.width, dtype=np.float64)

    def paint(rows: slice) -> np.ndarray:
        yy = np.arange(rows.start, rows.stop, dtype=np.float64)[:, None]
        delta = np.zeros((len(yy), cfg.width))
        for by, bx, sigma, weight in blobs:
            blob = _blob(yy, xx, by, bx, sigma)
            blob *= weight
            delta += blob
        delta += _speckle(speckle, rows)
        return delta

    return paint


def _speckle(noise: np.ndarray, rows: slice) -> np.ndarray:
    """Rows of the fine debris texture: the frame's white noise through
    an edge-padded 3x3 box filter, times 3 SPECKLE_AMP."""
    height = len(noise)
    lo, hi = rows.start - 1, rows.stop + 1
    p = np.pad(
        noise[max(lo, 0) : min(hi, height)],
        ((int(lo < 0), int(hi > height)), (1, 1)),
        mode="edge",
    )
    sums = p[:-2] + p[1:-1]
    sums += p[2:]
    box = sums[:, :-2] + sums[:, 1:-1]
    box += sums[:, 2:]
    box /= 9.0
    box *= 3.0 * SPECKLE_AMP
    return box


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
    label: int, index: int, config: GenConfig, master_seed: int, split: str,
    out: np.ndarray | None = None,
) -> np.ndarray:
    """One (height, width, 1) float32 image with values in [0, 1],
    written into out when it is given."""
    if label not in _RENDERERS:
        raise ValueError(f"label must be 0, 1 or 2, got {label}")
    rng = sample_rng(master_seed, split, label, index)
    background = _uniform(rng, BACKGROUND)
    paint = _RENDERERS[label](rng, config)
    img = np.empty((config.height, config.width, 1), np.float32) if out is None else out
    for start in range(0, config.height, STRIP_ROWS):
        rows = slice(start, min(start + STRIP_ROWS, config.height))
        strip = paint(rows)
        strip += background
        strip += rng.normal(0.0, NOISE_SIGMA, strip.shape)
        np.clip(strip, 0.0, 1.0, out=strip)
        img[rows, :, 0] = strip
    return img


def sample_at(k: int) -> tuple[int, int]:
    """The (label, index) of image k of a split in generation order:
    sample k // NUM_CLASSES of class k % NUM_CLASSES. Interleaved, the
    classes share every range of a split alike, and so do their unequal
    render times; grouped by class, the first range would hold all of
    `others`, the slowest class to render."""
    return k % NUM_CLASSES, k // NUM_CLASSES


def _render_range(
    images: np.ndarray, config: GenConfig, master_seed: int, split: str,
    start: int, stop: int,
) -> None:
    """Renders images start..stop-1 in generation order, each into its
    row of the class-grouped images."""
    per_class = len(images) // NUM_CLASSES
    for k in range(start, stop):
        label, index = sample_at(k)
        gen_sample(label, index, config, master_seed, split,
                   out=images[label * per_class + index])


def gen_dataset(
    config: GenConfig, master_seed: int, split: str, per_class: int
) -> Dataset:
    """All samples for one split, grouped by class in label order.

    The images are one array over a shared mapping (shards.shared_empty),
    rendered in generation order (sample_at) over shards.map_ranges: this
    process renders the first range and each forked child renders its
    own range in place, so nothing is copied back. Each image comes from
    its own seed, so the array is the same however the ranges fall.
    """
    if per_class < 1:
        raise ValueError(f"no samples requested (per_class={per_class})")
    n = NUM_CLASSES * per_class
    images = shards.shared_empty((n, config.height, config.width, 1), np.float32)
    shards.map_ranges(_render_range, (images, config, master_seed, split), n)
    labels = np.repeat(np.arange(NUM_CLASSES, dtype=np.int64), per_class)
    return Dataset(images=images, labels=labels)
