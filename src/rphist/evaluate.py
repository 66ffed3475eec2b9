"""L1-error evaluation of a histogram against a known reference density.

The error ``integral |f_n - f|`` splits into a sum of per-leaf integrals
plus the reference mass outside the root box.  Since the histogram is
exactly constant on each leaf, stratified Monte Carlo with uniform
draws per leaf only has to average the reference's variation, and the
outside mass comes from the reference's closed-form box probability.

The estimate is a pure function of the histogram, the reference,
``mc_per_leaf`` and ``seed``.  The draws come leaf by leaf, in the
histogram's leaf order, from one generator seeded by ``seed``; a chunk
of leaves takes one C-order block of it, scaled to the cells in place,
which gives the doubles ``Generator.uniform`` gives.  So the result
does not depend on :data:`MC_CHUNK_LEAVES`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DimensionMismatch, UnknownReference
from .geometry import Box
from .srp import Histogram, inside_mask

#: Leaves whose Monte-Carlo draws :func:`l1_error` makes in one batch.
MC_CHUNK_LEAVES = 64


def normal_cdf(x: float) -> float:
    """Standard normal distribution function, accurate in both tails."""
    return 0.5 * math.erfc(-x / math.sqrt(2.0))


class GaussianReference:
    """Standard multivariate Gaussian (zero mean, identity covariance)."""

    name = "gaussian"

    def __init__(self, dim: int):
        if dim < 1:
            raise ValueError("dimension must be >= 1")
        self.dim = dim
        self._norm = (2.0 * math.pi) ** (-dim / 2.0)

    def pdf(self, points: np.ndarray) -> np.ndarray:
        points = np.atleast_2d(np.asarray(points, dtype=float))
        return self._norm * np.exp(-0.5 * np.sum(points * points, axis=1))

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

    def pdf(self, points: np.ndarray) -> np.ndarray:
        points = np.atleast_2d(np.asarray(points, dtype=float))
        return np.where(inside_mask(self.box, points), self._height, 0.0)

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
    heights = np.array([leaf.height for leaf in h.leaves])
    volumes = np.array([leaf.volume for leaf in h.leaves])
    means, stds = np.empty_like(heights), np.empty_like(heights)
    rng = np.random.default_rng(seed)
    outside = 1.0 - reference.box_prob(h.root_box)
    d = h.root_box.dim
    for start in range(0, h.leaf_count, MC_CHUNK_LEAVES):
        stop = min(start + MC_CHUNK_LEAVES, h.leaf_count)
        # lo + width * u, as Generator.uniform computes it, from the same
        # C-order stream: (leaves, mc, d), whatever the chunk size
        draws = rng.random((stop - start, mc_per_leaf, d))
        draws *= widths[start:stop, None]
        draws += h.lo[start:stop, None]
        pdf = reference.pdf(draws.reshape(-1, d)).reshape(stop - start, mc_per_leaf)
        dev = np.abs(heights[start:stop, None] - pdf)
        means[start:stop] = dev.mean(axis=1)
        stds[start:stop] = dev.std(axis=1, ddof=1)
    se = volumes * stds / math.sqrt(mc_per_leaf)
    # cumsum adds left to right: the sums a per-leaf running total gives
    total = np.cumsum(np.append(outside, volumes * means))[-1]
    var_sum = np.cumsum(np.append(0.0, se * se))[-1]
    return EvalReport(
        l1_estimate=float(total),
        l1_std_error=float(math.sqrt(var_sum)),
        samples_per_leaf=mc_per_leaf,
        outside_mass=float(outside),
    )
