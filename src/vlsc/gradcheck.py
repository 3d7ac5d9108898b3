"""Central finite-difference verification of analytic gradients."""

from __future__ import annotations

import math

import numpy as np

from .errors import ConfigError, NumericError
from .tensor import ParamRegistry, no_grad

# the relative error's least denominator, as a fraction of the largest
# analytic gradient element: rounding noise is judged at that scale
FLOOR_FRACTION = 1e-6


def grad_check(loss_fn, params: ParamRegistry, eps: float = 1e-4,
               max_elements: int = 256, seed: int = 0) -> float:
    """Compare the analytic gradient of ``loss_fn()`` against central
    differences over the parameters in ``params`` and return the maximum
    relative error.

    ``loss_fn`` takes no arguments (close over the model) and must be
    deterministic. A seeded random subset of max(64, max_elements)
    elements is probed, or every element when the registry holds no
    more; an element is an index into params.flat. The relative error per
    element is ``|a - n| / max(|a|, |n|, FLOOR_FRACTION * max|g|)``, g the
    whole analytic gradient, and 0 where a == n. Only the analytic pass
    builds a graph; the finite-difference probes run under ``no_grad``.

    The numeric side is a Richardson-extrapolated central difference,
    (4*d(h/2) - d(h)) / 3, which cancels the O(h^2) truncation term:
    elements whose gradient is small relative to their curvature
    otherwise fail on truncation alone. Near-flat elements (estimate
    below 1e-6 in magnitude, and not equal to the analytic value) are
    re-probed once at 16x the step, since their limit is cancellation
    noise ~|loss|*ulp/eps instead. Both refinements sharpen the
    derivative estimate; neither can pull it toward a wrong analytic
    value.

    An eps that is not finite and positive, or a max_elements below 1,
    raises ConfigError.
    """
    if not (math.isfinite(eps) and eps > 0):
        raise ConfigError(f"eps must be finite and positive, got {eps}")
    if max_elements < 1:
        raise ConfigError(f"max_elements must be >= 1, got {max_elements}")

    def evaluate() -> float:
        with no_grad():
            val = loss_fn().item()
        if not math.isfinite(val):
            raise NumericError("loss is not finite during grad_check")
        return val

    flat = params.flat
    params.zero_grad()
    out = loss_fn()
    if not math.isfinite(out.item()):
        raise NumericError("loss is not finite during grad_check")
    out.backward()
    grad = params.flat_grad()
    floor = FLOOR_FRACTION * float(np.max(np.abs(grad), initial=0.0))

    n_probe = min(flat.size, max(64, max_elements))
    flat_indices = np.arange(n_probe) if n_probe == flat.size else \
        np.random.default_rng(seed).choice(flat.size, n_probe, replace=False)

    max_rel = 0.0
    for i in flat_indices:
        analytic = float(grad[i])

        def central(h: float) -> float:
            orig = float(flat[i])
            flat[i] = orig + h
            f_plus = evaluate()
            flat[i] = orig - h
            f_minus = evaluate()
            flat[i] = orig
            return (f_plus - f_minus) / (2.0 * h)

        def estimate(h: float) -> float:
            return (4.0 * central(0.5 * h) - central(h)) / 3.0

        numeric = estimate(eps)
        # an exact match has no error to sharpen: a parameter the loss
        # never reads is 0 on both sides
        if abs(numeric) < 1e-6 and numeric != analytic:
            numeric = estimate(16.0 * eps)
        err = abs(analytic - numeric)
        if err > 0.0:
            max_rel = max(max_rel,
                          err / max(abs(analytic), abs(numeric), floor))
    return max_rel
