"""Splice constructed entity embeddings into input sequences.

For every mention whose entity is in the table, the triple
( <entity vector> ) is inserted immediately after the mention's last
subword; the original subwords stay in place and inserted slots take
ordinary sequential positions. Mentions absent from the table are left
untouched, so an empty table reproduces the vanilla model exactly. Tables
arrive verified against the checkpoint (see load_table and run_probe).
"""

import numpy as np

from pelt.model import predict_topk
from pelt.vocab import LBRACKET_ID, RBRACKET_ID


def augment(sentence, table):
    """Insert bracketed entity vectors after each table-known mention.

    Returns (slots, provenance): the token ids with a (D,) table vector
    between each inserted pair of brackets, and each original position's
    index in the slots.
    """
    tokens = list(sentence.tokens)
    mentions = sorted(sentence.mentions, key=lambda m: m.start)
    slots = []
    provenance = np.empty(len(tokens), dtype=np.int64)
    cursor = 0
    for m in mentions:
        for i in range(cursor, m.end):
            provenance[i] = len(slots)
            slots.append(tokens[i])
        cursor = m.end
        if m.entity_id in table:
            slots += [LBRACKET_ID, table.vector(m.entity_id), RBRACKET_ID]
    for i in range(cursor, len(tokens)):
        provenance[i] = len(slots)
        slots.append(tokens[i])
    return slots, provenance


def cloze_predict_infused(sentence, mask_pos, table, ckpt, k, candidates=None):
    """predict_topk over the augmented slots at the mapped [MASK] position;
    table and ckpt are a verified pair."""
    slots, provenance = augment(sentence, table)
    return predict_topk(ckpt, slots, int(provenance[mask_pos]), k, candidates)
