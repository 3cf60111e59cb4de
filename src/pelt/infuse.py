"""Splice constructed entity embeddings into input sequences.

For every mention whose entity is in the table, the triple
( <entity vector> ) is inserted immediately after the mention's last
subword; the original subwords stay in place and inserted slots take
ordinary sequential positions. Mentions absent from the table are left
untouched, so an empty table reproduces the vanilla model exactly. Tables
arrive verified against the checkpoint (see load_table and run_probe).
"""

from dataclasses import dataclass

import numpy as np

from pelt.errors import ContractError, LengthError
from pelt.model import encode, output_repr, rank_tokens
from pelt.vocab import LBRACKET_ID, MASK_ID, RBRACKET_ID


@dataclass(frozen=True)
class VectorSlot:
    entity_id: str
    vector: np.ndarray


@dataclass
class AugmentedSequence:
    """Token-id and direct-vector slots plus a map from original positions."""

    slots: list  # int token ids and VectorSlot objects
    provenance: np.ndarray  # original position -> augmented position
    insertions: int = 0

    def __len__(self):
        return len(self.slots)

    def model_slots(self):
        return [s.vector if isinstance(s, VectorSlot) else s for s in self.slots]


def augment(sentence, table, max_len=None):
    """Insert bracketed entity vectors after each table-known mention."""
    tokens = list(sentence.tokens)
    mentions = sorted(sentence.mentions, key=lambda m: m.start)
    slots = []
    provenance = np.empty(len(tokens), dtype=np.int64)
    inserted = 0
    cursor = 0
    for m in mentions:
        for i in range(cursor, m.end):
            provenance[i] = len(slots)
            slots.append(tokens[i])
        cursor = m.end
        if m.entity_id in table:
            slots.append(LBRACKET_ID)
            slots.append(VectorSlot(m.entity_id, table.vector(m.entity_id)))
            slots.append(RBRACKET_ID)
            inserted += 1
    for i in range(cursor, len(tokens)):
        provenance[i] = len(slots)
        slots.append(tokens[i])
    if max_len is not None and len(slots) > max_len:
        raise LengthError(
            f"augmented sequence of {len(slots)} exceeds max length {max_len} "
            f"(sentence: {tokens})")
    return AugmentedSequence(slots, provenance, inserted)


def strip(aug):
    """Remove every inserted ( vector ) triple; recovers the original tokens."""
    out = []
    i = 0
    while i < len(aug.slots):
        s = aug.slots[i]
        if (isinstance(s, int) and s == LBRACKET_ID
                and i + 2 < len(aug.slots)
                and isinstance(aug.slots[i + 1], VectorSlot)
                and aug.slots[i + 2] == RBRACKET_ID):
            i += 3
            continue
        if isinstance(s, VectorSlot):
            raise ContractError("dangling vector slot outside a bracket triple")
        out.append(s)
        i += 1
    return tuple(out)


def cloze_predict_infused(sentence, mask_pos, table, ckpt, k, candidates=None):
    """predict_topk at the mapped MASK position; table and ckpt are a verified pair."""
    if sentence.tokens[mask_pos] != MASK_ID:
        raise ContractError(f"position {mask_pos} does not hold [MASK]")
    aug = augment(sentence, table, max_len=ckpt.config.max_len)
    h = encode(ckpt, [aug.model_slots()])[0]
    mapped = int(aug.provenance[mask_pos])
    r = output_repr(ckpt, h[mapped:mapped + 1])[0]
    return rank_tokens(ckpt, r, k, candidates)
