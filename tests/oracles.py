"""Readable reference forms that the package's optimised code is tested
against. Nothing in ``src/epicast`` calls them."""

import numpy as np

from epicast.neural import _sigmoid


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


def coefficient_energy(mra) -> float:
    """Total energy of a MODWT coefficient representation; equals the input
    energy for the package's Haar filter scaling."""
    total = float(np.sum(mra.scaling_coeffs**2))
    for w in mra.wavelet_coeffs:
        total += float(np.sum(w**2))
    return total
