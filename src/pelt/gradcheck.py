"""Finite-difference gradient checker for ParamStore-based losses."""

import numpy as np

from pelt.errors import ContractError, NumericalError
from pelt.tensor import no_grad

# Coordinates whose analytic and numeric gradients are both below this floor
# are compared absolutely against it; central differences carry ~1e-10 noise,
# so a pure ratio would explode on near-zero gradients.
_REL_FLOOR = 1e-3


def grad_check(loss_fn, params, h=1e-5, samples=200, seed=0):
    """Max relative error between analytic and central-difference gradients.

    ``loss_fn`` must rebuild the forward graph on every call and return a
    scalar Tensor that is a deterministic function of ``params``. Requires
    float64 parameters; ``samples`` coordinates are drawn without replacement
    across the whole parameter space.
    """
    if not h > 0 or samples < 1:
        raise ContractError(f"grad_check: need h > 0 and samples >= 1, got {h} and {samples}")
    for name, p in params.items():
        if p.data.dtype != np.float64:
            raise ContractError(f"grad_check: parameter {name!r} is not float64")

    params.zero_grad()
    loss = loss_fn()
    if not np.isfinite(loss.data):
        raise NumericalError("grad_check: non-finite loss at the unperturbed point")
    loss.backward()
    analytic = {name: (np.zeros_like(p.data) if p.grad is None else p.grad.copy())
                for name, p in params.items()}

    names = params.names()
    sizes = [params[n].size for n in names]
    offsets = np.cumsum([0] + sizes)
    total = offsets[-1]
    rng = np.random.default_rng(seed)
    n_draw = min(samples, total)
    coords = rng.choice(total, size=n_draw, replace=False)

    max_rel = 0.0
    for flat in sorted(coords.tolist()):
        pi = int(np.searchsorted(offsets, flat, side="right") - 1)
        name = names[pi]
        idx = flat - offsets[pi]
        buf = params[name].data.reshape(-1)
        orig = buf[idx]
        with no_grad():
            buf[idx] = orig + h
            lp = loss_fn().item()
            buf[idx] = orig - h
            lm = loss_fn().item()
        buf[idx] = orig
        if not (np.isfinite(lp) and np.isfinite(lm)):
            raise NumericalError(f"grad_check: non-finite loss while perturbing {name!r}")
        numeric = (lp - lm) / (2.0 * h)
        a = analytic[name].reshape(-1)[idx]
        rel = abs(a - numeric) / max(abs(a), abs(numeric), _REL_FLOOR)
        if rel > max_rel:
            max_rel = rel
    return max_rel
