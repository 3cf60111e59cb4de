"""Synthetic fixtures for gradient checks and the direction oracle."""

import numpy as np

from pelt.corpus import Occurrence
from pelt.errors import ConfigError
from pelt.model import Checkpoint, ModelConfig, init_params
from pelt.vocab import MASK_ID, SPECIALS


def synthetic_checkpoint(dim=32, layers=2, heads=4, vocab_size=512, max_len=32,
                         seed=0, dtype=np.float64):
    cfg = ModelConfig(dim=dim, layers=layers, heads=heads, max_len=max_len,
                      vocab_size=vocab_size, seed=seed)
    return Checkpoint(cfg, init_params(cfg, dtype))


def _check_vocab(vocab_size):
    """Synthetic tokens are drawn from the ids above the specials."""
    if vocab_size <= len(SPECIALS):
        raise ConfigError(f"need a vocabulary of more than {len(SPECIALS)} ids, "
                          f"got {vocab_size}")


def synthetic_mlm_batch(vocab_size, batch=4, length=12, masks_per_row=2, seed=0):
    """Random token rows with ``masks_per_row`` masked positions each."""
    _check_vocab(vocab_size)
    rng = np.random.default_rng(seed)
    tokens = rng.integers(len(SPECIALS), vocab_size, size=(batch, length))
    targets = np.full((batch, length), -1, dtype=np.int64)
    for row in range(batch):
        picks = rng.choice(length, size=masks_per_row, replace=False)
        targets[row, picks] = tokens[row, picks]
        tokens[row, picks] = MASK_ID
    return tokens, targets


def synthetic_occurrences(vocab_size, occurrences=12, length=10, seed=0):
    """Random context sentences, each with one MASK at a random position."""
    _check_vocab(vocab_size)
    rng = np.random.default_rng(seed)
    items = []
    for _ in range(occurrences):
        toks = rng.integers(len(SPECIALS), vocab_size, size=length).tolist()
        pos = int(rng.integers(length))
        toks[pos] = MASK_ID
        items.append(Occurrence(tuple(toks), pos))
    return tuple(items)
