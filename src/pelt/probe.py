"""Knowledge-probe harness: cloze evaluation, frequency buckets, norm sweep."""

from dataclasses import dataclass, field

from pelt.checkpoint import fingerprint
from pelt.corpus import BUCKET_LABELS, OCCURRENCE_CAP, bucket_label, parse_marked_line
from pelt.errors import ContractError, FormatError
from pelt.infuse import augment, cloze_predict_infused
from pelt.model import masked_outputs, predict_topk, rank_tokens
from pelt.table import (check_norm_l, collect_directions, table_from_directions,
                        verify_table)
from pelt.vocab import MASK_ID


def _rate(correct, total):
    return correct / total if total else 0.0


@dataclass
class ProbeReport:
    mode: str  # "vanilla" or "infused"
    model_fingerprint: str
    norm_l: float  # 0.0 in vanilla mode
    per_relation: dict  # relation -> (correct, total)
    per_bucket: dict  # bucket label -> (correct, total)
    rejected: list  # (subject, reason) pairs dropped before evaluation
    outcomes: list = field(default_factory=list)  # (subject, 0/1) per query, cloze order

    @property
    def macro_p1(self):
        """Unweighted mean of per-relation P@1 (the headline number)."""
        rates = [c / t for c, t in self.per_relation.values() if t]
        return sum(rates) / len(rates) if rates else 0.0

    @property
    def micro_p1(self):
        return _rate(sum(c for c, _ in self.per_relation.values()), self.query_count())

    def bucket_p1(self, label):
        return _rate(*self.per_bucket.get(label, (0, 0)))

    def query_count(self):
        return sum(t for _, t in self.per_relation.values())

    def _rows(self):
        """(kind, key, P@1, n) in report order: the relations sorted, the
        macro and micro means, then every bucket, empty ones included."""
        n = self.query_count()
        return ([("relation", rel, _rate(*self.per_relation[rel]), self.per_relation[rel][1])
                 for rel in sorted(self.per_relation)]
                + [("mean", "macro", self.macro_p1, n), ("mean", "micro", self.micro_p1, n)]
                + [("bucket", label, self.bucket_p1(label),
                    self.per_bucket.get(label, (0, 0))[1]) for label in BUCKET_LABELS])

    def render_text(self):
        lines = [f"mode {self.mode}  L {self.norm_l:g}  model {self.model_fingerprint[:12]}"]
        lines += [f"rejected {subject}: {reason}" for subject, reason in self.rejected]
        lines.append(f"{'relation':<12} {'P@1':>7} {'n':>5}")
        for kind, key, p1, n in self._rows():
            if (kind, key) == ("bucket", BUCKET_LABELS[0]):
                lines.append(f"{'bucket':<12} {'P@1':>7} {'n':>5}")
            lines.append(f"{key + ' mean' if kind == 'mean' else key:<12} {p1:7.3f} {n:5d}")
        return "\n".join(lines)

    def render_tsv(self):
        rows = [f"meta\tmode\t{self.mode}", f"meta\tnorm_l\t{self.norm_l:g}",
                f"meta\tmodel\t{self.model_fingerprint}"]
        rows += [f"rejected\t{subject}\t{reason}" for subject, reason in self.rejected]
        rows += [f"{kind}\t{key}\t{p1:.6f}\t{n}" for kind, key, p1, n in self._rows()]
        return "\n".join(rows)


def candidate_pools(catalog, vocab):
    """Per-relation candidate answer ids: every catalog answer of the relation,
    sorted. FormatError when an answer is not one vocabulary token."""
    pools = {}
    for entity in catalog:
        for rel, ans in entity.facts.items():
            if ans not in vocab:
                raise FormatError(f"catalog answer {ans!r} of relation {rel!r} "
                                  f"(entity {entity.entity_id}) is not in the vocabulary")
            pools.setdefault(rel, set()).add(vocab.id(ans))
    return {rel: sorted(ids) for rel, ids in pools.items()}


def _parse_queries(queries, vocab):
    """(kept, rejected): (query, sentence, [MASK] position) of each query
    the model can answer, and (subject, reason) of each one dropped."""
    if not queries:
        raise ContractError("cloze set is empty")
    kept, rejected = [], []
    for q in queries:
        if q.answer not in vocab:
            rejected.append((q.subject, f"answer {q.answer!r} not in vocabulary"))
            continue
        sentence = parse_marked_line(q.query, vocab)
        positions = [i for i, t in enumerate(sentence.tokens) if t == MASK_ID]
        if len(positions) != 1:
            rejected.append((q.subject, f"{len(positions)} [MASK] tokens in query"))
            continue
        kept.append((q, sentence, positions[0]))
    return kept, rejected


def _report(mode, model_fingerprint, norm_l, kept, rejected, hits):
    """Tally one 0/1 hit per kept query by relation and by bucket."""
    per_relation, per_bucket = {}, {}
    for (q, _, _), hit in zip(kept, hits):
        for counts, key in ((per_relation, q.relation),
                            (per_bucket, bucket_label(q.subject_freq))):
            c, t = counts.get(key, (0, 0))
            counts[key] = (c + hit, t + 1)
    return ProbeReport(mode, model_fingerprint, norm_l, per_relation, per_bucket, rejected,
                       [(q.subject, hit) for (q, _, _), hit in zip(kept, hits)])


def run_probe(queries, vocab, ckpt, table=None, pools=None):
    """Evaluate P@1 per relation and per frequency bucket.

    ``table=None`` runs the vanilla model; an empty table gives identical
    results. A table is verified against ``ckpt`` once, before any query is
    predicted, and the report reuses the fingerprint that check computed.
    ``pools`` (from ``candidate_pools``) ranks each query only over its
    relation's pool; a relation without a pool, or ``pools=None``, ranks
    over the whole vocabulary.
    """
    kept, rejected = _parse_queries(queries, vocab)
    fp = fingerprint(ckpt) if table is None else verify_table(table, ckpt)
    pools = pools or {}
    hits = []
    for q, sentence, pos in kept:
        candidates = pools.get(q.relation)
        if table is not None:
            ranked = cloze_predict_infused(sentence, pos, table, ckpt, 1, candidates)
        else:
            ranked = predict_topk(ckpt, sentence.tokens, pos, 1, candidates)
        hits.append(int(ranked[0][0] == vocab.id(q.answer)))
    mode, norm_l = ("infused", table.norm_l) if table is not None else ("vanilla", 0.0)
    return _report(mode, fp.hex(), norm_l, kept, rejected, hits)


@dataclass
class SweepResult:
    curve: list  # (L, macro mean P@1) in ascending L order
    selected_l: float
    directions: object  # DirectionSet reused across every L

    def render_text(self):
        lines = [f"{'L':>4} {'mean P@1':>9}"]
        for l, p in self.curve:
            marker = "  <- selected" if l == self.selected_l else ""
            lines.append(f"{l:4g} {p:9.4f}{marker}")
        return "\n".join(lines)

    def render_tsv(self):
        rows = [f"sweep\t{l:g}\t{p:.6f}" for l, p in self.curve]
        rows.append(f"selected\t{self.selected_l:g}")
        return "\n".join(rows)


def sweep_norm(queries, vocab, ckpt, lookup_sentences, entity_ids, l_values,
               cap=OCCURRENCE_CAP, pools=None):
    """Probe one table per distinct L; directions are collected once and rescaled.

    Every L is checked and the cloze set parsed before anything is collected.
    Every kept query is augmented against each distinct L's table (stamped
    with the fingerprint of the directions, collected from ``ckpt``), and one
    ``masked_outputs`` call encodes them all, so each curve value equals
    ``run_probe(..., table, pools).macro_p1``. The first best of the
    ascending curve is the selected L.
    """
    values = [float(l) for l in l_values]
    for l in values:
        check_norm_l(l)
    if not values:
        raise ContractError("no norm values to sweep")
    kept, rejected = _parse_queries(queries, vocab)
    dirset = collect_directions(entity_ids, lookup_sentences, ckpt, cap=cap)
    tables = [table_from_directions(dirset, l) for l in sorted(set(values))]
    jobs = [(q, *augment(sentence, t), pos) for t in tables for q, sentence, pos in kept]
    rows = masked_outputs(ckpt, [slots for _, slots, _, _ in jobs],
                          [int(prov[pos]) for _, _, prov, pos in jobs])
    pools, n = pools or {}, len(kept)
    hits = [int(rank_tokens(ckpt, r, 1, pools.get(q.relation))[0][0] == vocab.id(q.answer))
            for r, (q, *_) in zip(rows, jobs)]
    curve = [(t.norm_l, _report("infused", dirset.fingerprint.hex(), t.norm_l, kept,
                                rejected, hits[i * n:(i + 1) * n]).macro_p1)
             for i, t in enumerate(tables)]
    return SweepResult(curve, max(curve, key=lambda point: point[1])[0], dirset)
