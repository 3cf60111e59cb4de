"""Adam optimizer over a ParamStore."""

import numpy as np

from pelt.errors import ContractError

_BETA1, _BETA2 = 0.9, 0.999
_EPSILON = 1e-8


class Adam:
    """Standard Adam with bias correction; moment state kept per parameter."""

    def __init__(self, params, lr=1e-3):
        self.params = params
        self.lr = lr
        self.t = 0
        self._m = {name: np.zeros_like(p.data) for name, p in params.items()}
        self._v = {name: np.zeros_like(p.data) for name, p in params.items()}

    def step(self, lr=None):
        """Apply one update in place; every parameter must carry a gradient."""
        lr = self.lr if lr is None else lr
        for name, p in self.params.items():
            if p.grad is None:
                raise ContractError(f"adam step: parameter {name!r} has no gradient")
        self.t += 1
        b1, b2 = _BETA1, _BETA2
        bc1 = 1.0 - b1 ** self.t
        bc2 = 1.0 - b2 ** self.t
        for name, p in self.params.items():
            g = p.grad
            m = self._m[name]
            v = self._v[name]
            m *= b1
            m += (1.0 - b1) * g
            v *= b2
            v += (1.0 - b2) * (g * g)
            update = (m / bc1) / (np.sqrt(v / bc2) + _EPSILON)
            p.data -= lr * update
        return self.params

