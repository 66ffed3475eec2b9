"""L1-error evaluation of a histogram against a known reference density.

The error ``integral |f_n - f|`` splits into a sum of per-leaf integrals
plus the reference mass outside the root box.  Since the histogram is
exactly constant on each leaf, stratified Monte Carlo with uniform
draws per leaf only has to average the reference's variation, and the
outside mass comes from the reference's closed-form box probability.

The estimate is a pure function of the histogram, the reference,
``mc_per_leaf`` and ``seed``.  The draws come leaf by leaf, in the
histogram's leaf order, from one generator seeded by ``seed``; a chunk
of leaves takes one C-order block of it, scaled to the cells into
coordinate-major order, which gives the doubles ``Generator.uniform``
gives.  So the result does not depend on :data:`MC_CHUNK_LEAVES`.  A
reference's ``pdf_columns`` reads the draws one coordinate at a time,
and the Gaussian sums its squares in the order ``np.sum`` sums a
point's (:func:`sum_rows`), so each density is the one a point-by-point
evaluation gives.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DimensionMismatch, UnknownReference
from .geometry import Box
from .srp import Histogram

#: Leaves whose Monte-Carlo draws :func:`l1_error` makes in one batch.
MC_CHUNK_LEAVES = 64


def normal_cdf(x: float) -> float:
    """Standard normal distribution function, accurate in both tails."""
    return 0.5 * math.erfc(-x / math.sqrt(2.0))


def sum_rows(x: np.ndarray) -> np.ndarray:
    """The sum over the first axis of a ``(m, N)`` float array of
    non-negative values, bit for bit as ``np.sum(p, axis=1)`` adds the
    rows of the C-order transpose ``p``: in ``np.add.reduce``'s pairwise
    order, in place in ``x[0]`` and returned as that row.

    That order adds fewer than 8 terms left to right.  From 8 to 128 terms
    it keeps 8 running sums, adds each next block of 8 terms to them,
    joins them as ``((s0 + s1) + (s2 + s3)) + ((s4 + s5) + (s6 + s7))``
    and adds the terms after the last whole block left to right.  Above
    128 terms it sums two halves so, the first of a multiple of 8 terms,
    and adds them."""
    m = len(x)
    if m < 8:
        for j in range(1, m):
            x[0] += x[j]
    elif m <= 128:
        whole = m - m % 8
        for i in range(8, whole, 8):
            x[:8] += x[i:i + 8]
        x[0:8:2] += x[1:8:2]
        x[0:8:4] += x[2:8:4]
        x[0] += x[4]
        for j in range(whole, m):
            x[0] += x[j]
    else:
        half = m // 2 - m // 2 % 8
        sum_rows(x[:half])
        x[0] += sum_rows(x[half:])
    return x[0]


class GaussianReference:
    """Standard multivariate Gaussian (zero mean, identity covariance)."""

    name = "gaussian"

    def __init__(self, dim: int):
        if dim < 1:
            raise ValueError("dimension must be >= 1")
        self.dim = dim
        self._norm = (2.0 * math.pi) ** (-dim / 2.0)

    def pdf_columns(self, coords: np.ndarray) -> np.ndarray:
        """The density at the points whose ``j``-th coordinates are
        ``coords[j]``, for a ``(d, N)`` float array that it overwrites.

        Each point's squared norm is summed as ``np.sum(points * points,
        axis=1)`` sums it (:func:`sum_rows`), so the values are those of
        the density evaluated point by point."""
        coords *= coords
        sq = sum_rows(coords)
        sq *= -0.5
        np.exp(sq, out=sq)
        sq *= self._norm
        return sq

    def box_prob(self, box: Box) -> float:
        if box.dim != self.dim:
            raise DimensionMismatch(f"box dim {box.dim} != reference dim {self.dim}")
        p = 1.0
        for lo, hi in zip(box.lo, box.hi):
            p *= normal_cdf(hi) - normal_cdf(lo)
        return p


class UniformReference:
    """Uniform density on a fixed box."""

    name = "uniform"

    def __init__(self, box: Box):
        self.box = box
        self.dim = box.dim
        vol = box.volume
        if vol <= 0:
            raise ValueError("uniform reference needs a box of positive volume")
        self._height = 1.0 / vol

    def pdf_columns(self, coords: np.ndarray) -> np.ndarray:
        """The density at the points whose ``j``-th coordinates are
        ``coords[j]``, for a ``(d, N)`` float array."""
        inside = np.ones(coords.shape[1], dtype=bool)
        for x, lo, hi in zip(coords, self.box.lo, self.box.hi):
            inside &= x >= lo
            inside &= x <= hi
        return np.where(inside, self._height, 0.0)

    def box_prob(self, box: Box) -> float:
        if box.dim != self.dim:
            raise DimensionMismatch(f"box dim {box.dim} != reference dim {self.dim}")
        p = 1.0
        for lo, hi, other_lo, other_hi in zip(self.box.lo, self.box.hi, box.lo, box.hi):
            overlap = min(hi, other_hi) - max(lo, other_lo)
            if overlap <= 0:
                return 0.0
            p *= overlap / (hi - lo)
        return p


def make_reference(name: str, dim: int, root_box: Box | None = None):
    """Built-in reference by name: ``gaussian`` (standard) or ``uniform``
    (over ``root_box``)."""
    if name == "gaussian":
        return GaussianReference(dim)
    if name == "uniform":
        if root_box is None:
            raise ValueError("the uniform reference needs a box")
        return UniformReference(root_box)
    raise UnknownReference(f"no built-in reference named {name!r}")


@dataclass(frozen=True)
class EvalReport:
    """Monte-Carlo L1 error estimate with its standard error."""

    l1_estimate: float
    l1_std_error: float
    samples_per_leaf: int
    outside_mass: float


def l1_error(h: Histogram, reference, mc_per_leaf: int = 256,
             seed: int = 0) -> EvalReport:
    """Estimate ``integral |f_n - f|`` by stratified Monte Carlo.

    ``reference`` is a density with ``dim``, ``box_prob(box)`` and
    ``pdf_columns(coords)``, such as :func:`make_reference` returns.
    Each leaf contributes its volume times the average of
    ``|height - f(x)|`` over ``mc_per_leaf`` uniform draws in the leaf;
    the reference mass outside the root box is added exactly.  The
    standard error combines the per-leaf sample variances.

    Raises
    ------
    OverflowError
        If some leaf's width ``hi - lo`` is not finite: no uniform draw
        in such a cell exists.
    """
    if getattr(reference, "dim", h.root_box.dim) != h.root_box.dim:
        raise DimensionMismatch(
            f"reference dim {reference.dim} != histogram dim {h.root_box.dim}"
        )
    if mc_per_leaf < 2:
        raise ValueError("need at least two draws per leaf")
    widths = h.hi - h.lo
    if not np.isfinite(widths).all():
        raise OverflowError("a leaf's width exceeds the float range")
    # coordinate-major bounds: the scaling's inner loops run over the draws
    widths, lows = widths.T[:, :, None], h.lo.T[:, :, None]
    means, stds = np.empty_like(h.heights), np.empty_like(h.heights)
    rng = np.random.default_rng(seed)
    outside = 1.0 - reference.box_prob(h.root_box)
    d = h.root_box.dim
    block = min(MC_CHUNK_LEAVES, h.leaf_count) * mc_per_leaf * d
    drawn, coords = np.empty(block), np.empty(block)  # reused chunk by chunk
    for start in range(0, h.leaf_count, MC_CHUNK_LEAVES):
        stop = min(start + MC_CHUNK_LEAVES, h.leaf_count)
        size = (stop - start) * mc_per_leaf * d
        # the same C-order stream, (leaves, mc, d), whatever the chunk size,
        # scaled into (d, leaves, mc) order; lo + width * u, as
        # Generator.uniform computes it
        draws = rng.random(out=drawn[:size].reshape(stop - start, mc_per_leaf, d))
        x = coords[:size].reshape(d, stop - start, mc_per_leaf)
        np.multiply(draws.transpose(2, 0, 1), widths[:, start:stop], out=x)
        x += lows[:, start:stop]
        dev = reference.pdf_columns(x.reshape(d, -1)).reshape(stop - start, mc_per_leaf)
        dev -= h.heights[start:stop, None]
        np.abs(dev, out=dev)
        # the mean and the ddof=1 standard deviation, as np.mean and np.std
        # compute them, from one sum
        mean = dev.sum(axis=1) / mc_per_leaf
        dev -= mean[:, None]
        dev *= dev
        means[start:stop] = mean
        stds[start:stop] = np.sqrt(dev.sum(axis=1) / (mc_per_leaf - 1))
    se = h.volumes * stds / math.sqrt(mc_per_leaf)
    # cumsum adds left to right: the sums a per-leaf running total gives
    total = np.cumsum(np.append(outside, h.volumes * means))[-1]
    var_sum = np.cumsum(np.append(0.0, se * se))[-1]
    return EvalReport(
        l1_estimate=float(total),
        l1_std_error=float(math.sqrt(var_sum)),
        samples_per_leaf=mc_per_leaf,
        outside_mass=float(outside),
    )
