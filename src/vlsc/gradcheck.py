"""Central finite-difference verification of analytic gradients."""

from __future__ import annotations

import math

import numpy as np

from .errors import NumericError
from .tensor import ParamRegistry, Tensor, no_grad


def grad_check(loss_fn, params: ParamRegistry, eps: float = 1e-4,
               max_elements: int | None = None, seed: int = 0) -> float:
    """Compare the analytic gradient of ``loss_fn()`` against central
    differences over the parameters in ``params`` and return the maximum
    relative error.

    ``loss_fn`` takes no arguments (close over the model) and must be
    deterministic. Every parameter element is probed when the registry is
    small; otherwise a seeded random subset of at least 64 elements is
    used. The relative error per element is
    ``|a - n| / max(|a|, |n|, 1e-8)``. Only the analytic pass builds a
    graph; the finite-difference probes run under ``no_grad``.

    The numeric side is a Richardson-extrapolated central difference,
    (4*d(h/2) - d(h)) / 3, which cancels the O(h^2) truncation term:
    elements whose gradient is small relative to their curvature
    otherwise fail on truncation alone. Near-flat elements (estimate
    below 1e-6 in magnitude) are re-probed once at 16x the step, since
    their limit is cancellation noise ~|loss|*ulp/eps instead. Both
    refinements sharpen the derivative estimate; neither can pull it
    toward a wrong analytic value.
    """
    if eps <= 0:
        raise ValueError("eps must be positive")

    def evaluate() -> float:
        with no_grad():
            out = loss_fn()
        val = out.item() if isinstance(out, Tensor) else float(out)
        if not math.isfinite(val):
            raise NumericError("loss is not finite during grad_check")
        return val

    params.zero_grad()
    out = loss_fn()
    if not isinstance(out, Tensor):
        raise TypeError("loss_fn must return a Tensor scalar")
    if not math.isfinite(out.item()):
        raise NumericError("loss is not finite during grad_check")
    out.backward()

    names = params.names()
    sizes = [params[n].size for n in names]
    total = sum(sizes)
    if max_elements is None:
        max_elements = 256
    n_probe = total if total <= max_elements else max(64, max_elements)

    if n_probe >= total:
        flat_indices = np.arange(total)
    else:
        rng = np.random.default_rng(seed)
        flat_indices = rng.choice(total, size=n_probe, replace=False)

    offsets = np.cumsum([0] + sizes)
    max_rel = 0.0
    for flat in flat_indices:
        pi = int(np.searchsorted(offsets, flat, side="right") - 1)
        j = int(flat - offsets[pi])
        t = params[names[pi]]
        analytic = 0.0 if t.grad is None else float(t.grad.flat[j])

        def central(h: float) -> float:
            orig = float(t.data.flat[j])
            t.data.flat[j] = orig + h
            f_plus = evaluate()
            t.data.flat[j] = orig - h
            f_minus = evaluate()
            t.data.flat[j] = orig
            return (f_plus - f_minus) / (2.0 * h)

        def estimate(h: float) -> float:
            return (4.0 * central(0.5 * h) - central(h)) / 3.0

        numeric = estimate(eps)
        if abs(numeric) < 1e-6:
            numeric = estimate(16.0 * eps)
        rel = abs(analytic - numeric) / max(abs(analytic), abs(numeric), 1e-8)
        if rel > max_rel:
            max_rel = rel
    return max_rel
