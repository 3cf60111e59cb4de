"""Float64 reference for the pelt model, its inputs and its file formats.

Everything here is written from the documented model and formats, apart
from the package under test, so that the benchmark can check the program's
outputs against a computation the program did not make:

- readers for the checkpoint (PELTCKPT) and table (PELTTBL1) formats;
- the vocabulary, greedy longest-match tokenizer and [[id|surface]] markup;
- first-encounter, deduplicated, capped masked occurrences, in one pass;
- the encoder forward: word embeddings (or direct vectors) plus positions,
  LayerNorm, multi-head self-attention, exact-erf GELU FFN, the MLM head
  r = LayerNorm(GELU(hW + b)) and the tied logits r E^T;
- bracketed infusion: "( vector )" after the last subword of each mention
  whose entity is in the table, inserted slots taking sequential positions.
"""

import re
import struct

import numpy as np
from scipy.special import erf

SPECIALS = ("[PAD]", "[MASK]", "[UNK]", "(", ")")
PAD_ID, MASK_ID, UNK_ID, LBRACKET_ID, RBRACKET_ID = range(5)
MENTION = re.compile(r"\[\[([^|\]]+)\|([^\]]+)\]\]")


# ---------------------------------------------------------------------------
# File formats
# ---------------------------------------------------------------------------

class _Bytes:
    def __init__(self, data):
        self.data = data
        self.off = 0

    def take(self, n):
        if self.off + n > len(self.data):
            raise ValueError(f"truncated at byte {self.off}")
        out = self.data[self.off:self.off + n]
        self.off += n
        return out

    def unpack(self, fmt):
        return struct.unpack(fmt, self.take(struct.calcsize(fmt)))

    def end(self):
        if self.off != len(self.data):
            raise ValueError(f"{len(self.data) - self.off} trailing bytes")


def read_checkpoint(data):
    """(config dict, metadata dict, name -> float64 array) from checkpoint bytes."""
    r = _Bytes(data)
    if r.take(8) != b"PELTCKPT" or r.unpack("<I") != (1,):
        raise ValueError("not a version-1 checkpoint")
    keys = ("dim", "layers", "heads", "ffn_mult", "max_len", "vocab_size")
    config = dict(zip(keys, r.unpack("<6I")))
    (config["ln_eps"],) = r.unpack("<d")
    (config["seed"],) = r.unpack("<Q")
    step, train_seed, final_loss = r.unpack("<QQd")
    meta = {"step": step, "train_seed": train_seed, "final_loss": final_loss}
    params = {}
    (count,) = r.unpack("<I")
    for _ in range(count):
        (name_len,) = r.unpack("<I")
        name = r.take(name_len).decode("utf-8")
        (rank,) = r.unpack("<I")
        shape = r.unpack(f"<{rank}I")
        size = int(np.prod(shape)) if rank else 1
        params[name] = np.frombuffer(r.take(4 * size), dtype="<f4").reshape(shape) \
            .astype(np.float64)
    r.end()
    return config, meta, params


def read_table(data):
    """Table bytes as a dict: fingerprint, dim, norm_l, entries id -> (count, f32 vector)."""
    r = _Bytes(data)
    if r.take(8) != b"PELTTBL1" or r.unpack("<I") != (1,):
        raise ValueError("not a version-1 entity table")
    fp = r.take(32)
    (dim,) = r.unpack("<I")
    (norm_l,) = r.unpack("<f")
    (count,) = r.unpack("<I")
    entries = {}
    for _ in range(count):
        (id_len,) = r.unpack("<I")
        eid = r.take(id_len).decode("utf-8")
        (occ,) = r.unpack("<I")
        entries[eid] = (occ, np.frombuffer(r.take(4 * dim), dtype="<f4").copy())
    r.end()
    return {"fingerprint": fp, "dim": dim, "norm_l": norm_l, "entries": entries}


# ---------------------------------------------------------------------------
# Text
# ---------------------------------------------------------------------------

class Vocab:
    def __init__(self, tokens):
        if tuple(tokens[:len(SPECIALS)]) != SPECIALS:
            raise ValueError("vocabulary does not start with the specials")
        self.tokens = list(tokens)
        self.index = {t: i for i, t in enumerate(self.tokens)}
        self.longest = max(len(t) for t in self.tokens)

    @classmethod
    def load(cls, path):
        with open(path, encoding="utf-8") as f:
            return cls([line.rstrip("\n") for line in f if line.rstrip("\n")])

    def tokenize(self, text):
        """Greedy longest match within each whitespace chunk; misses are UNK."""
        out = []
        for chunk in text.split():
            i = 0
            while i < len(chunk):
                for n in range(min(len(chunk) - i, self.longest), 0, -1):
                    if chunk[i:i + n] in self.index:
                        out.append(self.index[chunk[i:i + n]])
                        i += n
                        break
                else:
                    out.append(UNK_ID)
                    i += 1
        return out

    def parse(self, line):
        """Token ids and (entity id, start, end) mention spans of a marked line."""
        tokens, mentions, pos = [], [], 0
        for m in MENTION.finditer(line):
            tokens += self.tokenize(line[pos:m.start()])
            piece = self.tokenize(m.group(2))
            mentions.append((m.group(1), len(tokens), len(tokens) + len(piece)))
            tokens += piece
            pos = m.end()
        tokens += self.tokenize(line[pos:])
        return tokens, mentions


def read_lines(path):
    with open(path, encoding="utf-8") as f:
        return [line.rstrip("\n") for line in f if line.strip()]


def occurrences(lines, vocab, cap):
    """Entity id -> masked occurrences (tokens, mask position), in one pass.

    Each mention gives its sentence with only its own span collapsed to one
    [MASK]; an entity keeps the first ``cap`` distinct masked sequences in
    corpus order.
    """
    out, seen = {}, {}
    for line in lines:
        tokens, mentions = vocab.parse(line)
        for eid, start, end in mentions:
            items = out.setdefault(eid, [])
            masked = tuple(tokens[:start]) + (MASK_ID,) + tuple(tokens[end:])
            if len(items) < cap and masked not in seen.setdefault(eid, set()):
                seen[eid].add(masked)
                items.append((masked, start))
    return out


def unigram_entropy(lines, vocab):
    """Entropy in nats of the token distribution of a marked corpus."""
    counts = np.bincount([t for line in lines for t in vocab.parse(line)[0]])
    p = counts[counts > 0] / counts.sum()
    return float(-(p * np.log(p)).sum())


# ---------------------------------------------------------------------------
# Model
# ---------------------------------------------------------------------------

def layer_norm(x, gain, bias, eps):
    """Per-row zero mean, unit population variance, then the affine map."""
    centered = x - x.mean(axis=-1, keepdims=True)
    var = (centered ** 2).mean(axis=-1, keepdims=True)
    return centered / np.sqrt(var + eps) * gain + bias


def gelu(x):
    return 0.5 * x * (1.0 + erf(x / np.sqrt(2.0)))


def softmax(x):
    e = np.exp(x - x.max(axis=-1, keepdims=True))
    return e / e.sum(axis=-1, keepdims=True)


def attention(h, wq, bq, wk, bk, wv, bv, wo, bo, heads):
    """Multi-head self-attention over one unpadded sequence.

    Returns the projected output (n, D) and the weights (heads, n, n).
    """
    n, d = h.shape
    hd = d // heads

    def split(x):
        return x.reshape(n, heads, hd).transpose(1, 0, 2)

    q, k, v = split(h @ wq + bq), split(h @ wk + bk), split(h @ wv + bv)
    weights = softmax(q @ k.transpose(0, 2, 1) / np.sqrt(hd))
    ctx = (weights @ v).transpose(1, 0, 2).reshape(n, d)
    return ctx @ wo + bo, weights


class ReferenceModel:
    """The tied-weight MLM evaluated in float64 on one sequence at a time."""

    def __init__(self, config, params):
        self.cfg = config
        self.p = params

    def encode(self, slots):
        """Contextual vectors (n, D) for slots that are token ids or D-vectors."""
        p, cfg = self.p, self.cfg
        emb = p["emb.word"]
        x = np.stack([emb[s] if isinstance(s, (int, np.integer))
                      else np.asarray(s, dtype=np.float64) for s in slots])
        eps = cfg["ln_eps"]
        h = layer_norm(x + p["emb.pos"][:len(slots)], p["emb.ln.g"], p["emb.ln.b"], eps)
        for i in range(cfg["layers"]):
            a = f"layer{i}."
            out, _ = attention(h, *(p[a + "attn." + w] for w in
                                    ("wq", "bq", "wk", "bk", "wv", "bv", "wo", "bo")),
                               heads=cfg["heads"])
            h = layer_norm(h + out, p[a + "ln1.g"], p[a + "ln1.b"], eps)
            f = gelu(h @ p[a + "ffn.w1"] + p[a + "ffn.b1"]) @ p[a + "ffn.w2"] + p[a + "ffn.b2"]
            h = layer_norm(h + f, p[a + "ln2.g"], p[a + "ln2.b"], eps)
        return h

    def output_repr(self, h):
        """The MLM head's output representation of contextual vectors."""
        p = self.p
        return layer_norm(gelu(h @ p["head.w"] + p["head.b"]),
                          p["head.ln.g"], p["head.ln.b"], self.cfg["ln_eps"])

    def logits(self, r):
        return self.p["emb.word"] @ r

    def masked_repr(self, slots, position):
        return self.output_repr(self.encode(slots)[position:position + 1])[0]


def infuse(tokens, mentions, vectors):
    """Slots with "( vector )" after each mention whose entity has a vector,
    and the map from original positions to slot positions."""
    slots, where = [], []
    ends = {}
    for eid, _, end in mentions:
        if eid in vectors:
            ends[end - 1] = vectors[eid]
    for i, t in enumerate(tokens):
        where.append(len(slots))
        slots.append(t)
        if i in ends:
            slots += [LBRACKET_ID, ends[i], RBRACKET_ID]
    return slots, where
