"""Haar maximal-overlap discrete wavelet transform with periodic boundary.

The transform is non-decimated: every coefficient and component vector has
the length of the input, so it is defined for all sample sizes and is
equivariant under circular shifts. Filters are the rescaled Haar pair
``g = (1/2, 1/2)`` (scaling) and ``h = (1/2, -1/2)`` (wavelet); the level-j
filter acts at lag ``2**(j-1)`` via circular convolution. With this scaling
the coefficients preserve energy and the multiresolution components add
back to the input exactly.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import InsufficientDataError, ValidationError


def choose_levels(n: int) -> int:
    """Decomposition depth for a length-n series: floor(ln n), kept within
    [1, floor(log2 n)]."""
    if n < 8:
        raise InsufficientDataError(f"need at least 8 observations, got {n}")
    raw = int(math.floor(math.log(n)))
    return max(1, min(raw, int(math.floor(math.log2(n)))))


def max_levels(n: int) -> int:
    """Deepest level the circular pyramid supports for length n."""
    return int(math.floor(math.log2(n)))


@dataclass(frozen=True)
class WaveletMra:
    """Coefficients and additive multiresolution components of one series.

    ``wavelet_coeffs[j-1]`` and ``details[j-1]`` correspond to level j;
    ``scaling_coeffs`` and ``smooth`` to the deepest level. Invariant:
    ``sum(details) + smooth == original`` to within accumulated rounding.
    """

    levels: int
    wavelet_coeffs: tuple
    scaling_coeffs: np.ndarray
    details: tuple
    smooth: np.ndarray

    @property
    def components(self) -> tuple:
        """Details followed by the smooth: levels + 1 additive vectors."""
        return self.details + (self.smooth,)


def _analysis_step(v: np.ndarray, j: int):
    lagged = np.roll(v, 2 ** (j - 1))
    return (v - lagged) / 2.0, (v + lagged) / 2.0


def _synthesis_step(w: np.ndarray, v: np.ndarray, j: int) -> np.ndarray:
    shift = 2 ** (j - 1)
    w_ahead = np.roll(w, -shift)
    v_ahead = np.roll(v, -shift)
    return (w - w_ahead) / 2.0 + (v + v_ahead) / 2.0


def _synthesize(wavelet_coeffs, scaling: np.ndarray) -> np.ndarray:
    v = scaling
    for j in range(len(wavelet_coeffs), 0, -1):
        v = _synthesis_step(wavelet_coeffs[j - 1], v, j)
    return v


def modwt_haar(series, levels: int) -> WaveletMra:
    """Decompose a series into wavelet/scaling coefficients and the additive
    multiresolution components (details plus smooth)."""
    x = np.asarray(series, dtype=float)
    if x.ndim != 1:
        raise ValidationError("expected a one-dimensional series")
    n = len(x)
    if levels < 1:
        raise ValidationError("levels must be at least 1")
    if levels > max_levels(n):
        raise ValidationError(
            f"levels={levels} too deep for length {n}; max is {max_levels(n)}"
        )
    wavelet_coeffs = []
    v = x
    for j in range(1, levels + 1):
        w, v = _analysis_step(v, j)
        wavelet_coeffs.append(w)

    zero = np.zeros(n)
    details = []
    for j in range(1, levels + 1):
        isolated = [w if k == j - 1 else zero for k, w in enumerate(wavelet_coeffs)]
        details.append(_synthesize(isolated, zero))
    smooth = _synthesize([zero] * levels, v)

    return WaveletMra(
        levels=levels,
        wavelet_coeffs=tuple(wavelet_coeffs),
        scaling_coeffs=v,
        details=tuple(details),
        smooth=smooth,
    )

