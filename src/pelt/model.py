"""Tied-weight bidirectional transformer encoder with an MLM head.

The softmax weights of the MLM head ARE the word embedding matrix: logits
are computed as r @ E^T and no separate output matrix exists in the
parameter store. Inference is one operation, masked_outputs(): the MLM-head
output at one position of each slot sequence, where a slot is a token id or
a direct (D,) input vector (which is what lets constructed entity
embeddings ride along as pseudo-tokens). Entity tables sum these outputs
over masked occurrences; predict_topk() ranks the vocabulary against one of
them, with or without infused vectors. Every input is encoded as given,
in chunks of at most 64 inputs of one length, each one unpadded no-grad
pass of the encoder (past attention in the last layer, each masked row
alone) and head, spread over the calling thread and one helper per further
CPU; no output depends on the batch or thread count, at any width.
Training (mlm_loss) and inference run the same encoder, built from the
fused tape ops: ten nodes per layer (six ``linear``, one ``attention``, one
``gelu`` and two ``layer_norm`` that add the residuals; one more adds the
position rows), and the tied head's loss is one ``tied_cross_entropy``
node. mlm_loss runs GELU on real tokens only, and in the last layer on
masked ones only.
"""

import functools
import os
import time
from dataclasses import dataclass

import numpy as np

from pelt.errors import (ConfigError, ContractError, DivergenceError,
                         LengthError, ShapeError)
from pelt.optim import Adam
from pelt.tensor import (ParamStore, Tensor, attention, gather_rows, gelu,
                         layer_norm, linear, no_grad, tied_cross_entropy)
from pelt.vocab import MASK_ID, PAD_ID

_MASKED_SLICE = 64
_LAYER_PARAMS = tuple(f"attn.{p}{c}" for p in "wb" for c in "qkvo") + (
    "ln1.g", "ln1.b", "ffn.w1", "ffn.b1", "ffn.w2", "ffn.b2", "ln2.g", "ln2.b")


@dataclass(frozen=True)
class ModelConfig:
    dim: int = 64
    layers: int = 2
    heads: int = 4
    ffn_mult: int = 4
    max_len: int = 64
    vocab_size: int = 0
    ln_eps: float = 1e-5
    seed: int = 0

    def __post_init__(self):
        if self.vocab_size < 1:
            raise ConfigError("vocab_size must be positive")
        if (min(self.dim, self.heads, self.ffn_mult, self.max_len) < 1
                or min(self.layers, self.seed) < 0 or not 0 <= self.ln_eps < np.inf):
            raise ConfigError("need dim, heads, ffn_mult, max_len >= 1, "
                              "layers, seed >= 0 and 0 <= ln_eps < inf")
        if self.dim % self.heads != 0:
            raise ConfigError(f"dim {self.dim} not divisible by {self.heads} heads")


@dataclass
class Checkpoint:
    config: ModelConfig
    params: ParamStore
    step: int = 0
    train_seed: int = 0
    final_loss: float = float("nan")


def param_layout(config):
    """(name, shape) of every parameter, in the order init_params adds them
    and a checkpoint stores them; drawn from no random generator."""
    d, f = config.dim, config.dim * config.ffn_mult
    yield from (("emb.word", (config.vocab_size, d)), ("emb.pos", (config.max_len, d)),
                ("emb.ln.g", (d,)), ("emb.ln.b", (d,)))
    shapes = [(d, d)] * 4 + [(d,)] * 6 + [(d, f), (f,), (f, d)] + [(d,)] * 3
    for names in _layer_names(config.layers):
        yield from zip(names, shapes)
    yield from (("head.w", (d, d)), ("head.b", (d,)), ("head.ln.g", (d,)), ("head.ln.b", (d,)))


def init_params(config, dtype=np.float32):
    """Fresh parameters in param_layout's order: each matrix drawn from
    N(0, 0.02^2) in that order, each LayerNorm gain one, every bias zero."""
    rng = np.random.default_rng(config.seed)
    p = ParamStore()
    for name, shape in param_layout(config):
        if len(shape) == 2:
            p.add(name, rng.normal(0.0, 0.02, shape).astype(dtype))
        else:
            p.add(name, (np.ones if name.endswith(".g") else np.zeros)(shape, dtype=dtype))
    return p


@functools.cache
def _layer_names(layers):
    """Each layer's parameter names, in _LAYER_PARAMS order."""
    return tuple(tuple(f"layer{i}.{p}" for p in _LAYER_PARAMS) for i in range(layers))


# ---------------------------------------------------------------------------
# Forward pass
# ---------------------------------------------------------------------------

def _encoder(params, cfg, x, attn_bias, rows=None, live=None):
    """H = Enc(LayerNorm(x + P)); x is (B, n, D) input features. With
    ``rows`` (an array of flat indices into the B*n positions) only those
    rows return, shaped rows.shape + (D,), and the last layer runs them alone
    past attention (an (m, 1) array makes each row its own product). Layer i
    runs its GELU on the flat rows ``live[i]`` only: no other row may reach a loss."""
    n = x.shape[1]
    last = cfg.layers - 1 if rows is not None else -1
    pos = gather_rows(params["emb.pos"], np.arange(n))
    h = layer_norm(x, params["emb.ln.g"], params["emb.ln.b"], cfg.ln_eps, residual=pos)
    for i, names in enumerate(_layer_names(cfg.layers)):
        (wq, wk, wv, wo, bq, bk, bv, bo,
         g1, b1, w1, c1, w2, c2, g2, b2) = map(params.__getitem__, names)
        ctx = attention(linear(h, wq, bq), linear(h, wk, bk), linear(h, wv, bv),
                        cfg.heads, attn_bias)
        if i == last:
            ctx, h = gather_rows(ctx, rows), gather_rows(h, rows)
        h = layer_norm(linear(ctx, wo, bo), g1, b1, cfg.ln_eps, residual=h)
        f = linear(gelu(linear(h, w1, c1), live and live[i]), w2, c2)
        h = layer_norm(f, g2, b2, cfg.ln_eps, residual=h)
    if rows is not None and last < 0:
        h = gather_rows(h, rows)
    return h


def _head(params, cfg, h):
    """Output-representation transform r = LayerNorm(GELU(hW + b))."""
    f = gelu(linear(h, params["head.w"], params["head.b"]))
    return layer_norm(f, params["head.ln.g"], params["head.ln.b"], cfg.ln_eps)


def masked_outputs(ckpt, seqs, positions):
    """MLM-head output at ``positions[i]`` of each slot sequence ``seqs[i]``.

    A slot is a token id or a direct (D,) input vector. Every input, a
    repeat too, is encoded as given: the inputs are grouped by length and
    run in chunks of at most _MASKED_SLICE, each one unpadded no-grad pass
    of the encoder (past the last layer's attention, on the masked rows
    only, each its own product) and of the head, on the calling thread and
    one helper per further usable CPU (one chunk: no thread).
    No output depends on the batch or the thread count: the (m, D) result, in
    input order, equals encoding one sequence at a time, at any width.
    """
    cfg, emb = ckpt.config, ckpt.params["emb.word"].data
    groups = {}  # length -> the inputs of that length, in input order
    for i, seq in enumerate(seqs):
        groups.setdefault(len(seq), []).append(i)
    if groups and max(groups) > cfg.max_len:
        raise LengthError(f"sequence of {max(groups)} exceeds max length {cfg.max_len}")
    if 0 in groups:
        raise ContractError("cannot encode an empty sequence")
    chunks = []  # (inputs, (k, n) tokens, (k, slot, vector) of each vector slot, rows)
    for n, idx in groups.items():
        if not all(0 <= positions[i] < n for i in idx):
            raise IndexError("a position lies outside its sequence")
        for lo in range(0, len(idx), _MASKED_SLICE):
            part = idx[lo:lo + _MASKED_SLICE]
            tokens = np.full((len(part), n), PAD_ID, dtype=np.int64)
            vectors = []
            for k, i in enumerate(part):
                if set(map(type, seqs[i])) == {int}:  # all tokens: one row store
                    tokens[k] = seqs[i]
                    continue
                for j, s in enumerate(seqs[i]):
                    if isinstance(s, (int, np.integer)):
                        tokens[k, j] = s
                    elif np.shape(s) == (cfg.dim,):
                        vectors.append((k, j, s))
                    else:
                        raise ConfigError(f"input vector at slot {j} has shape "
                                          f"{np.shape(s)}, model dim is {cfg.dim}")
            if tokens.view(np.uint64).max() >= cfg.vocab_size:  # a negative id reads huge
                raise IndexError(f"token id out of range for vocabulary {cfg.vocab_size}")
            rows = [[k * n + positions[i]] for k, i in enumerate(part)]  # (m, 1): one row each
            chunks.append((part, tokens, vectors, rows))
    out = np.empty((len(seqs), cfg.dim), dtype=emb.dtype)
    todo = iter(chunks)  # shared: next() on a list iterator is atomic under the GIL

    def drain():
        for part, tokens, vectors, rows in todo:
            x = emb[tokens]
            for k, j, vec in vectors:
                x[k, j] = vec
            r = _head(ckpt.params, cfg, _encoder(ckpt.params, cfg, Tensor(x), None, rows))
            out[part] = r.data[:, 0]

    cpus = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count()
    helpers = min(len(chunks), cpus or 1) - 1  # the calling thread is the first worker
    with no_grad():  # the flag is module-wide: the helpers tape nothing either
        if helpers < 1:
            drain()
        else:
            from concurrent.futures import ThreadPoolExecutor  # not at import: 4 ms of a cold start
            with ThreadPoolExecutor(helpers) as pool:
                futures = [pool.submit(drain) for _ in range(helpers)]
                drain()
                for f in futures:
                    f.result()
    return out


# ---------------------------------------------------------------------------
# Loss and training
# ---------------------------------------------------------------------------

def mlm_loss(params, cfg, tokens, targets):
    """Mean tied-softmax cross entropy over the masked positions.

    ``tokens`` is (B, n) int; ``targets`` is (B, n) int with -1 everywhere
    except masked positions. Gradients flow into the embedding matrix both
    through the input lookup and through the output product.
    """
    tokens = np.asarray(tokens, dtype=np.int64)
    targets = np.asarray(targets, dtype=np.int64)
    if tokens.shape != targets.shape or tokens.ndim != 2:
        raise ShapeError(f"tokens {tokens.shape} and targets {targets.shape} must match, 2-D")
    flat_targets = targets.reshape(-1)
    sel = np.nonzero(flat_targets >= 0)[0]
    if sel.size == 0:
        raise ContractError("mlm loss: batch contains no masked position")
    emb = params["emb.word"]
    pad = tokens == PAD_ID  # masked out of attention as keys by a -1e9 bias
    bias = np.where(pad, -1e9, 0.0).astype(emb.data.dtype)[:, None, None, :] if pad.any() else None
    live = [None if bias is None else np.flatnonzero(~pad)] * (cfg.layers - 1) + [sel]
    h = _encoder(params, cfg, gather_rows(emb, tokens), bias, live=live)
    return tied_cross_entropy(_head(params, cfg, gather_rows(h, sel)), emb, flat_targets[sel])


def _lr_schedule(base, step, steps):
    warmup = max(1, steps // 10)
    if step < warmup:
        return base * (step + 1) / warmup
    frac = (step - warmup) / max(1, steps - warmup)
    return base * (1.0 - 0.9 * frac)


def _mask_batch(seqs, picks, rng, mask_rate):
    lens = [seqs[i].size for i in picks]
    n = max(lens)
    b = len(picks)
    tokens = np.full((b, n), PAD_ID, dtype=np.int64)
    targets = np.full((b, n), -1, dtype=np.int64)
    for row, i in enumerate(picks):
        seq = seqs[i]
        ln = seq.size
        tokens[row, :ln] = seq
        draw = rng.random(ln)
        chosen = draw < mask_rate
        if not chosen.any():
            chosen[rng.integers(ln)] = True
        targets[row, :ln][chosen] = seq[chosen]
        tokens[row, :ln][chosen] = MASK_ID
    return tokens, targets


def check_train_args(sentences, config, steps, lr, mask_rate, batch_size, log_every):
    """Reject the corpus or settings ``train_mlm`` cannot run with."""
    if not sentences:
        raise ContractError("train corpus is empty")
    if steps < 0 or batch_size < 1:
        raise ContractError(f"need steps >= 0 and batch_size >= 1, got {steps} and {batch_size}")
    if not (0 < lr < np.inf and 0 < mask_rate <= 1):
        raise ConfigError(f"need 0 < lr < inf and 0 < mask_rate <= 1, got {lr} and {mask_rate}")
    if log_every < 0:
        raise ConfigError(f"need log_every >= 0, got {log_every}")
    for s in sentences:
        if len(s.tokens) > config.max_len:
            raise LengthError(f"training sentence of {len(s.tokens)} tokens exceeds "
                              f"max length {config.max_len}")


def train_mlm(sentences, config, steps, lr, mask_rate=0.15, seed=0,
              batch_size=32, log_every=100):
    """Train from scratch; deterministic for a fixed (seed, thread count)."""
    check_train_args(sentences, config, steps, lr, mask_rate, batch_size, log_every)
    params = init_params(config, np.float32)
    seqs = [np.asarray(s.tokens, dtype=np.int64) for s in sentences]
    rng = np.random.default_rng(seed)
    adam = Adam(params, lr)
    t0 = time.time()
    recent = []
    last = float("nan")
    for step in range(steps):
        picks = rng.integers(0, len(seqs), size=batch_size)
        tokens, targets = _mask_batch(seqs, picks, rng, mask_rate)
        loss = mlm_loss(params, config, tokens, targets)
        last = loss.item()
        if not np.isfinite(last):
            raise DivergenceError(step)
        params.zero_grad()
        loss.backward()
        adam.step(lr=_lr_schedule(lr, step, steps))
        recent.append(last)
        if log_every and (step + 1) % log_every == 0:
            mean = sum(recent) / len(recent)
            print(f"step {step + 1:>6}/{steps}  loss {mean:7.4f}  "
                  f"lr {_lr_schedule(lr, step, steps):.2e}  {time.time() - t0:6.1f}s")
            recent = []
    return Checkpoint(config, params, steps, seed, last)


# ---------------------------------------------------------------------------
# Prediction
# ---------------------------------------------------------------------------

def rank_tokens(ckpt, r, k, candidates=None):
    """Top-k token ids by tied-softmax logit; ties broken toward lower id."""
    emb = ckpt.params["emb.word"].data
    if candidates is None:
        ids = np.arange(emb.shape[0])
        logits = emb @ r
    else:
        ids = np.asarray(sorted(set(int(c) for c in candidates)), dtype=np.int64)
        logits = emb[ids] @ r
    k = min(k, ids.size)
    order = np.lexsort((ids, -logits))[:k]
    return [(int(ids[j]), float(logits[j])) for j in order]


def predict_topk(ckpt, slots, position, k, candidates=None):
    """Ranked (token id, logit) pairs for the [MASK] at ``position`` of a
    slot sequence (token ids, or infused (D,) vectors as well)."""
    slots = list(slots)
    if not 0 <= position < len(slots):
        raise IndexError(f"position {position} outside sequence of {len(slots)}")
    if not isinstance(slots[position], (int, np.integer)) or slots[position] != MASK_ID:
        raise ContractError(f"position {position} does not hold [MASK]")
    return rank_tokens(ckpt, masked_outputs(ckpt, [slots], [position])[0], k, candidates)
