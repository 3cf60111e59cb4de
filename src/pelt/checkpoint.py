"""Binary checkpoint format.

Little-endian layout: magic "PELTCKPT", u32 format version, config block
(u32 dim, layers, heads, ffn_mult, max_len, vocab_size; f64 ln_eps;
u64 seed), metadata (u64 step, u64 train_seed, f64 final_loss), u32
parameter count, then per parameter: u32 name length, UTF-8 name bytes, u32
rank (1 or 2), u32 dims, f32 data. Weights are always stored as 32-bit floats.
The parameters are exactly model.param_layout(config), in its order; a loader
refuses any other count, name, order or shape.
"""

import hashlib
import io
import itertools
import math
import struct

import numpy as np

from pelt.errors import ConfigError, CorruptionError, FormatError
from pelt.model import Checkpoint, ModelConfig, param_layout
from pelt.tensor import ParamStore

MAGIC = b"PELTCKPT"
VERSION = 1


def serialize_checkpoint(ckpt):
    buf = io.BytesIO()
    cfg = ckpt.config
    buf.write(MAGIC)
    buf.write(struct.pack("<I", VERSION))
    buf.write(struct.pack("<6I", cfg.dim, cfg.layers, cfg.heads, cfg.ffn_mult,
                          cfg.max_len, cfg.vocab_size))
    buf.write(struct.pack("<d", cfg.ln_eps))
    buf.write(struct.pack("<Q", cfg.seed))
    buf.write(struct.pack("<QQd", ckpt.step, ckpt.train_seed,
                          float(ckpt.final_loss)))
    buf.write(struct.pack("<I", len(ckpt.params)))
    for name, p in ckpt.params.items():
        raw = name.encode("utf-8")
        buf.write(struct.pack("<I", len(raw)))
        buf.write(raw)
        buf.write(struct.pack("<I", p.data.ndim))
        buf.write(struct.pack(f"<{p.data.ndim}I", *p.data.shape))
        buf.write(np.ascontiguousarray(p.data, dtype="<f4").tobytes())
    return buf.getvalue()


def save_checkpoint(ckpt, path):
    data = serialize_checkpoint(ckpt)
    with open(path, "wb") as f:
        f.write(data)


class _Reader:
    def __init__(self, data, label):
        self.data = data
        self.off = 0
        self.label = label

    def take(self, n):
        if self.off + n > len(self.data):
            raise CorruptionError(f"{self.label}: truncated at byte {self.off}")
        out = self.data[self.off:self.off + n]
        self.off += n
        return out

    def unpack(self, fmt):
        return struct.unpack(fmt, self.take(struct.calcsize(fmt)))

    def text(self):
        """A u32 byte length followed by that many UTF-8 bytes."""
        (n,) = self.unpack("<I")
        raw = self.take(n)
        try:
            return raw.decode("utf-8")
        except UnicodeDecodeError:
            raise FormatError(f"{self.label}: string at byte {self.off - n} is not UTF-8") from None

    def done(self):
        if self.off != len(self.data):
            raise CorruptionError(f"{self.label}: {len(self.data) - self.off} trailing bytes")


def deserialize_checkpoint(data, label="checkpoint"):
    r = _Reader(data, label)
    if r.take(len(MAGIC)) != MAGIC:
        raise FormatError(f"{label}: bad magic, not a checkpoint file")
    (version,) = r.unpack("<I")
    if version != VERSION:
        raise FormatError(f"{label}: unsupported format version {version}")
    dim, layers, heads, ffn_mult, max_len, vocab_size = r.unpack("<6I")
    (ln_eps,) = r.unpack("<d")
    (seed,) = r.unpack("<Q")
    step, train_seed, final_loss = r.unpack("<QQd")
    try:
        cfg = ModelConfig(dim, layers, heads, ffn_mult, max_len, vocab_size,
                          float(ln_eps), seed)
    except ConfigError as err:
        raise FormatError(f"{label}: {err}") from None
    (count,) = r.unpack("<I")
    params = ParamStore()
    layout = param_layout(cfg)
    for want in itertools.islice(layout, count):
        name = r.text()
        (rank,) = r.unpack("<I")
        if rank not in (1, 2):
            raise FormatError(f"{label}: parameter {name!r} has rank {rank}, not 1 or 2")
        shape = r.unpack(f"<{rank}I")
        if (name, shape) != want:
            raise FormatError(f"{label}: parameter {len(params)} is {name!r} {shape}, "
                              f"its config lays out {want[0]!r} {want[1]}")
        n = math.prod(shape)
        arr = np.frombuffer(r.take(4 * n), dtype="<f4").reshape(shape).copy()
        params.add(name, arr)
    if len(params) < count or next(layout, None) is not None:
        raise FormatError(f"{label}: {count} parameters, not the number its config lays out")
    r.done()
    return Checkpoint(cfg, params, step, train_seed, float(final_loss))


def load_checkpoint(path):
    with open(path, "rb") as f:
        data = f.read()
    return deserialize_checkpoint(data, label=str(path))


def fingerprint(ckpt):
    """32-byte digest of the canonical serialized form."""
    return hashlib.sha256(serialize_checkpoint(ckpt)).digest()
