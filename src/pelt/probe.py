"""Knowledge-probe harness: cloze evaluation, frequency buckets, norm sweep."""

import warnings
from dataclasses import dataclass, field

from pelt.checkpoint import fingerprint
from pelt.corpus import BUCKET_LABELS, OCCURRENCE_CAP, bucket_label, parse_marked_line
from pelt.errors import ContractError
from pelt.infuse import cloze_predict_infused
from pelt.model import predict_topk
from pelt.table import (check_norm_l, collect_directions, table_from_directions,
                        verify_table)
from pelt.vocab import MASK_ID


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
        c = sum(c for c, _ in self.per_relation.values())
        t = sum(t for _, t in self.per_relation.values())
        return c / t if t else 0.0

    def bucket_p1(self, label):
        c, t = self.per_bucket.get(label, (0, 0))
        return c / t if t else 0.0

    def query_count(self):
        return sum(t for _, t in self.per_relation.values())

    def render_text(self):
        lines = []
        lines.append(f"mode {self.mode}  L {self.norm_l:g}  "
                     f"model {self.model_fingerprint[:12]}")
        for subject, reason in self.rejected:
            lines.append(f"rejected {subject}: {reason}")
        lines.append(f"{'relation':<12} {'P@1':>7} {'n':>5}")
        for rel in sorted(self.per_relation):
            c, t = self.per_relation[rel]
            lines.append(f"{rel:<12} {c / t if t else 0.0:7.3f} {t:5d}")
        lines.append(f"{'macro mean':<12} {self.macro_p1:7.3f} {self.query_count():5d}")
        lines.append(f"{'micro mean':<12} {self.micro_p1:7.3f} {self.query_count():5d}")
        lines.append(f"{'bucket':<12} {'P@1':>7} {'n':>5}")
        for label in BUCKET_LABELS:
            t = self.per_bucket.get(label, (0, 0))[1]
            lines.append(f"{label:<12} {self.bucket_p1(label):7.3f} {t:5d}")
        return "\n".join(lines)

    def render_tsv(self):
        rows = [f"meta\tmode\t{self.mode}",
                f"meta\tnorm_l\t{self.norm_l:g}",
                f"meta\tmodel\t{self.model_fingerprint}"]
        for subject, reason in self.rejected:
            rows.append(f"rejected\t{subject}\t{reason}")
        for rel in sorted(self.per_relation):
            c, t = self.per_relation[rel]
            rows.append(f"relation\t{rel}\t{c / t if t else 0.0:.6f}\t{t}")
        rows.append(f"mean\tmacro\t{self.macro_p1:.6f}\t{self.query_count()}")
        rows.append(f"mean\tmicro\t{self.micro_p1:.6f}\t{self.query_count()}")
        for label in BUCKET_LABELS:
            t = self.per_bucket.get(label, (0, 0))[1]
            rows.append(f"bucket\t{label}\t{self.bucket_p1(label):.6f}\t{t}")
        return "\n".join(rows)


def _candidate_ids(catalog, vocab):
    """Per-relation single-token candidate sets derived from the catalog."""
    pools = {}
    for entity in catalog:
        for rel, ans in entity.facts.items():
            pools.setdefault(rel, set()).add(vocab.id(ans))
    return {rel: sorted(ids) for rel, ids in pools.items()}


def run_probe(queries, vocab, ckpt, table=None, restrict=False, catalog=None):
    """Evaluate P@1 per relation and per frequency bucket.

    ``table=None`` runs the vanilla model; an empty table gives identical
    results. A table is verified against ``ckpt`` once, before any query.
    ``restrict=True`` ranks only over the relation's answer tokens
    (requires the catalog to derive the pools).
    """
    if not queries:
        raise ContractError("cloze set is empty")
    if restrict and catalog is None:
        raise ContractError("candidate restriction needs the entity catalog")
    if table is not None:
        verify_table(table, ckpt)
    pools = _candidate_ids(catalog, vocab) if restrict else {}
    per_relation = {}
    per_bucket = {}
    rejected = []
    outcomes = []
    for q in queries:
        if q.answer not in vocab:
            rejected.append((q.subject, f"answer {q.answer!r} not in vocabulary"))
            continue
        sentence = parse_marked_line(q.query, vocab)
        positions = [i for i, t in enumerate(sentence.tokens) if t == MASK_ID]
        if len(positions) != 1:
            rejected.append((q.subject, f"{len(positions)} [MASK] tokens in query"))
            continue
        candidates = pools.get(q.relation) if restrict else None
        if table is not None:
            ranked = cloze_predict_infused(sentence, positions[0], table, ckpt, 1,
                                           candidates)
        else:
            ranked = predict_topk(ckpt, sentence.tokens, positions[0], 1, candidates)
        hit = int(ranked[0][0] == vocab.id(q.answer))
        outcomes.append((q.subject, hit))
        rc, rt = per_relation.get(q.relation, (0, 0))
        per_relation[q.relation] = (rc + hit, rt + 1)
        label = bucket_label(q.subject_freq)
        bc, bt = per_bucket.get(label, (0, 0))
        per_bucket[label] = (bc + hit, bt + 1)
    mode = "infused" if table is not None else "vanilla"
    norm_l = table.norm_l if table is not None else 0.0
    return ProbeReport(mode, fingerprint(ckpt).hex(), norm_l,
                       per_relation, per_bucket, rejected, outcomes)


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
               cap=OCCURRENCE_CAP, restrict=False, catalog=None):
    """Probe one table per L; directions are collected once and rescaled.

    Ties in mean P@1 break toward the smaller L.
    """
    values = []
    for l in l_values:
        check_norm_l(l)
        if l in values:
            warnings.warn(f"duplicate norm value {l:g} dropped from sweep")
            continue
        values.append(float(l))
    if not values:
        raise ContractError("no norm values to sweep")
    values.sort()
    dirset = collect_directions(entity_ids, lookup_sentences, ckpt, cap=cap)
    curve = []
    best_l, best_p = None, -1.0
    for l in values:
        tab = table_from_directions(dirset, l)
        report = run_probe(queries, vocab, ckpt, table=tab, restrict=restrict,
                           catalog=catalog)
        p = report.macro_p1
        curve.append((l, p))
        if p > best_p:
            best_l, best_p = l, p
    return SweepResult(curve, best_l, dirset)
