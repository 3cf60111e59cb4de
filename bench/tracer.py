"""Per-layer tracing of the pelt package, installed from outside.

A wrapper is patched into every pelt module namespace where a traced name
is looked up, so calls made through ``from pelt.model import encode`` in
``pelt.infuse`` are seen as well as calls inside ``pelt.model``. Nothing in
the package changes, and ``remove()`` puts every original back.

Spans are aggregated in memory by (name, stage), where the stage is the
pipeline stage the benchmark is running; per-call durations are kept only
for the names whose percentiles are reported.
"""

import inspect
import sys
import time
from collections import defaultdict

# Layers whose public functions are wrapped; ``tensor`` is handled apart,
# through the names pelt.model binds, so a fused op added later counts too.
LAYERS = ("optim", "model", "checkpoint", "corpus", "vocab", "table", "infuse", "probe")
METHODS = (("tensor", "Tensor", "backward"), ("optim", "Adam", "step"))
PER_CALL = ("model.predict_topk", "infuse.cloze_predict_infused")
# A corpus-layer function that takes ``sentences`` scans them; the count
# handed to such calls is recorded as corpus.sentences_scanned.
SCANNED = "corpus.sentences_scanned"


def _is_op(obj):
    """A plain function defined in pelt.tensor that is not a context manager."""
    return (inspect.isfunction(obj) and obj.__module__ == "pelt.tensor"
            and not inspect.isgeneratorfunction(getattr(obj, "__wrapped__", None)))


class Tracer:
    def __init__(self):
        self.stage = "none"
        self.calls = defaultdict(int)  # (name, stage) -> calls
        self.seconds = defaultdict(float)  # (name, stage) -> inclusive seconds
        self.durations = defaultdict(list)  # name -> per-call seconds
        self.step_seconds = 0.0  # wall time of training steps, loss start to loss start
        self._loss_start = None
        self._adam_end = None
        self._patches = []

    # -- installation -------------------------------------------------------

    def install(self):
        pelt_modules = [m for n, m in sorted(sys.modules.items())
                        if (n == "pelt" or n.startswith("pelt.")) and m is not None]
        model = sys.modules["pelt.model"]
        for attr, obj in list(vars(model).items()):
            if _is_op(obj):
                self._patch(model, attr, obj, f"tensor.{obj.__name__}")
        for layer in LAYERS:
            module = sys.modules[f"pelt.{layer}"]
            for attr, obj in list(vars(module).items()):
                if (inspect.isfunction(obj) and obj.__module__ == module.__name__
                        and not attr.startswith("_")):
                    name = f"{layer}.{attr}"
                    for where in pelt_modules:
                        if vars(where).get(attr) is obj:
                            self._patch(where, attr, obj, name)
        for layer, cls_name, attr in METHODS:
            cls = getattr(sys.modules[f"pelt.{layer}"], cls_name)
            self._patch(cls, attr, vars(cls)[attr], f"{layer}.{cls_name}.{attr}")

    def remove(self):
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches = []

    def _patch(self, owner, attr, original, name):
        tracer = self
        signature = inspect.signature(original)
        scans = name.startswith("corpus.") and "sentences" in signature.parameters

        def traced(*args, **kwargs):
            if scans:
                sentences = signature.bind(*args, **kwargs).arguments["sentences"]
                tracer.calls[(SCANNED, tracer.stage)] += len(sentences)
            t0 = time.perf_counter()
            try:
                return original(*args, **kwargs)
            finally:
                tracer._record(name, t0, time.perf_counter())

        traced.__wrapped__ = original
        traced.__name__ = getattr(original, "__name__", attr)
        setattr(owner, attr, traced)
        self._patches.append((owner, attr, original))

    # -- recording ----------------------------------------------------------

    def _record(self, name, t0, t1):
        key = (name, self.stage)
        self.calls[key] += 1
        self.seconds[key] += t1 - t0
        if name in PER_CALL:
            self.durations[name].append(t1 - t0)
        if name == "model.mlm_loss":
            if self._loss_start is not None:
                self.step_seconds += t0 - self._loss_start
            self._loss_start = t0
        elif name == "optim.Adam.step":
            self._adam_end = t1
        elif name == "model.train_mlm" and self._loss_start is not None:
            self.step_seconds += self._adam_end - self._loss_start
            self._loss_start = None

    # -- queries ------------------------------------------------------------

    def total(self, name, stages=None):
        """(calls, seconds) of a name, summed over the given stages (or all)."""
        calls = seconds = 0
        for (n, stage), c in self.calls.items():
            if n == name and (stages is None or stage in stages):
                calls += c
                seconds += self.seconds[(n, stage)]
        return calls, seconds

    def names(self):
        return sorted({n for n, _ in self.calls})

    def by_stage(self):
        """name -> stage -> [calls, ms], for the results record."""
        out = defaultdict(dict)
        for (name, stage), c in sorted(self.calls.items()):
            out[name][stage] = [c, round(self.seconds[(name, stage)] * 1e3, 3)]
        return dict(out)
