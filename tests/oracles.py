"""Readable reference forms that the package's optimised code is tested
against. Nothing in ``src/epicast`` calls them."""

import numpy as np

from epicast.neural import _sigmoid
from epicast.wavelet import choose_levels, modwt_haar


def stacked_loss_and_grads(weights: dict, x: np.ndarray, y: np.ndarray):
    """Losses and gradients over stacked nets, the arithmetic of one
    ``neural._descend`` epoch.

    Shapes: x (C, N, p), y (C, N); weights w1 (C, R, p, H), b1 (C, R, H),
    w2 (C, R, H), b2 (C, R). Returns losses (C, R) and gradient arrays
    matching the weight shapes.
    """
    n = y.shape[-1]
    pre = x[:, None] @ weights["w1"] + weights["b1"][:, :, None, :]
    hidden = _sigmoid(pre)
    pred = (hidden @ weights["w2"][..., None])[..., 0] + weights["b2"][..., None]
    err = pred - y[:, None, :]
    losses = np.mean(err * err, axis=-1)
    d_pred = 2.0 * err / n
    d_w2 = (hidden.transpose(0, 1, 3, 2) @ d_pred[..., None])[..., 0]
    d_b2 = d_pred.sum(axis=-1)
    d_pre = (
        d_pred[..., None] * weights["w2"][:, :, None, :] * hidden * (1.0 - hidden)
    )
    d_w1 = x.transpose(0, 2, 1)[:, None] @ d_pre
    d_b1 = d_pre.sum(axis=2)
    grads = {"w1": d_w1, "b1": d_b1, "w2": d_w2, "b2": d_b2}
    return losses, grads


def loss_and_grads(weights: dict, x: np.ndarray, y: np.ndarray):
    """Single-series view of the stacked step: weights (R, ...), x (N, p)."""
    stacked = {key: weights[key][None] for key in weights}
    losses, grads = stacked_loss_and_grads(stacked, x[None], y[None])
    return losses[0], {key: grads[key][0] for key in grads}


def _net_forward(net: dict, x: np.ndarray) -> np.ndarray:
    """Per-restart predictions of one component's (R, ...) weights on its
    (N, p) lag rows, shape (R, N)."""
    hidden = _sigmoid(x @ net["w1"] + net["b1"][:, None, :])
    return (hidden @ net["w2"][:, :, None])[:, :, 0] + net["b2"][:, None]


def wbann_reference(residuals, weights: dict, lags: int, h: int):
    """In-sample fit and recursive h-step forecast of the wavelet ensemble
    with trained ``weights`` stacked as (C, R, ...), one component at a
    time: the arithmetic of ``neural.wbann_model`` and
    ``neural.wbann_forecast``.

    Each component is framed into lag rows, min-max scaled on its targets,
    passed forward and averaged over restarts, then unscaled; the forecast
    appends each scaled prediction to the lag window. Component results are
    summed. Returns (fitted, forecast); the fit is NaN on the first
    ``lags`` positions.
    """
    e = np.asarray(residuals, dtype=float)
    components = modwt_haar(e, choose_levels(len(e))).components
    fits, forecasts = [], []
    for k, component in enumerate(components):
        net = {key: w[k] for key, w in weights.items()}
        rows = np.array([component[i : i + lags]
                         for i in range(len(component) - lags)])
        lo, hi = float(component[lags:].min()), float(component[lags:].max())

        def scale(v):
            return np.zeros_like(v) if hi == lo else (v - lo) / (hi - lo)

        def unscale(z):
            return np.full_like(z, lo) if hi == lo else lo + z * (hi - lo)

        fit = np.full(len(component), np.nan)
        fit[lags:] = unscale(_net_forward(net, scale(rows)).mean(axis=0))
        fits.append(fit)

        window = list(scale(component[-lags:]))
        scaled = []
        for _ in range(h):
            x = np.array(window[-lags:])[None, :]
            scaled.append(float(_net_forward(net, x).mean()))
            window.append(scaled[-1])
        forecasts.append(unscale(np.array(scaled)))
    return np.sum(fits, axis=0), np.sum(forecasts, axis=0)


def coefficient_energy(mra) -> float:
    """Total energy of a MODWT coefficient representation; equals the input
    energy for the package's Haar filter scaling."""
    total = float(np.sum(mra.scaling_coeffs**2))
    for w in mra.wavelet_coeffs:
        total += float(np.sum(w**2))
    return total


def reconstruct(mra) -> np.ndarray:
    """Sum of a MODWT's multiresolution components, details and smooth:
    the input series to within rounding."""
    return np.sum(mra.components, axis=0)


def imodwt_haar(mra) -> np.ndarray:
    """Invert the Haar coefficient pyramid from the deepest level up: level
    j maps (w_j, v_j) back to v_{j-1} through the circular filters at lag
    2**(j-1). Recovers the input series to within rounding."""
    v = mra.scaling_coeffs
    for j in range(mra.levels, 0, -1):
        w = mra.wavelet_coeffs[j - 1]
        shift = 2 ** (j - 1)
        v = (w - np.roll(w, -shift)) / 2.0 + (v + np.roll(v, -shift)) / 2.0
    return v


def weights_history(observed, fitted, mode: str, window: int = 7,
                    decay: float = 0.9) -> np.ndarray:
    """Each state's share of the adjustment under the three weight rules
    written apart: its squared residual on the ``last`` day, its mean over a
    trailing ``window``, or an exponentially weighted mean with factor
    ``decay`` over the whole history (rows = days, columns = states);
    normalised, and uniform when every score is zero. The arithmetic of
    ``adjust.adjust_forecasts``' one day-weighted mean."""
    obs = np.asarray(observed, dtype=float)
    sq = (obs - np.asarray(fitted, dtype=float)) ** 2
    if mode == "last":
        scores = sq[-1]
    elif mode == "window":
        scores = sq[-window:].mean(axis=0)
    else:
        lam = decay ** np.arange(len(sq) - 1, -1, -1, dtype=float)
        scores = (lam[:, None] * sq).sum(axis=0) / lam.sum()
    total = float(scores.sum())
    if total == 0.0:
        return np.full(len(scores), 1.0 / len(scores))
    return scores / total
