"""Adam over a ParamStore; it owns the flat parameter and gradient buffers."""

import numpy as np

from pelt.errors import ContractError

_BETA1, _BETA2 = 0.9, 0.999
_EPSILON = 1e-8


class Adam:
    """Standard Adam with bias correction. Building it packs the store: each
    parameter's data becomes a view of one buffer, in store order. Each step
    gathers the gradients into one more, then updates the whole buffer."""

    def __init__(self, params, lr=1e-3):
        self.params = params
        self.lr = lr
        self.t = 0
        tensors = [p for _, p in params.items()]
        if len({p.data.dtype for p in tensors}) > 1:
            raise ContractError("cannot pack parameters of mixed dtypes")
        self._data = np.concatenate([p.data.reshape(-1) for p in tensors])
        off = 0
        for p in tensors:
            p.data = self._data[off:off + p.data.size].reshape(p.data.shape)
            off += p.data.size
        self._grad = np.empty_like(self._data)
        self._m = np.zeros_like(self._data)
        self._v = np.zeros_like(self._data)

    def step(self, lr=None):
        """Apply one update in place; every parameter must carry a gradient."""
        lr = self.lr if lr is None else lr
        for name, p in self.params.items():
            if p.grad is None:
                raise ContractError(f"adam step: parameter {name!r} has no gradient")
        np.concatenate([p.grad.reshape(-1) for _, p in self.params.items()], out=self._grad)
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
