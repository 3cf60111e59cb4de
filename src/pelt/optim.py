"""Adam optimizer over a ParamStore, packed into one flat buffer."""

import numpy as np

from pelt.errors import ContractError

_BETA1, _BETA2 = 0.9, 0.999
_EPSILON = 1e-8


class Adam:
    """Standard Adam with bias correction. Building it packs the store, so
    one step is a few whole-buffer array operations over every parameter."""

    def __init__(self, params, lr=1e-3):
        self.params = params
        self.lr = lr
        self.t = 0
        self._data, self._grad = params.pack()
        self._m = np.zeros_like(self._data)
        self._v = np.zeros_like(self._data)

    def step(self, lr=None):
        """Apply one update in place; every parameter must carry a gradient."""
        lr = self.lr if lr is None else lr
        for name, p in self.params.items():
            if p.grad is None:
                raise ContractError(f"adam step: parameter {name!r} has no gradient")
            if p.grad is not p._slot:  # set from outside the tape
                p._slot[...] = p.grad
        self.t += 1
        b1, b2 = _BETA1, _BETA2
        bc1 = 1.0 - b1 ** self.t
        bc2 = 1.0 - b2 ** self.t
        g, m, v = self._grad, self._m, self._v
        m *= b1
        m += (1.0 - b1) * g
        v *= b2
        v += (1.0 - b2) * (g * g)
        self._data -= lr * ((m / bc1) / (np.sqrt(v / bc2) + _EPSILON))
        return self.params
