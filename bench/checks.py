"""Correctness checks on the artifacts of the last measured round.

Each check compares the program's output with a computation made in
``reference`` or with a property the method must have; none compares with a
stored copy of an earlier output. A check returns a list of failure
messages, empty when it passes.
"""

import hashlib
import os
import re

import numpy as np

import pipeline as pl
import reference as ref

# A float32 forward differs from the float64 reference by far less than
# this (measured: about 1e-6), so a top-1 with a larger margin over the
# runner-up cannot flip through rounding.
CLEAR_MARGIN = 1e-3
DIRECTION_TOL = 1e-5  # max |component| difference of unit directions
SAMPLE_ENTITIES = 3
SAMPLE_QUERIES = 40
ABSENT_ENTITY = "ent_absent"  # an id no corpus mentions
BUCKETS = ((0, 10, "[0,10)"), (10, 50, "[10,50)"), (50, 100, "[50,100)"),
           (100, None, "[100,inf)"))


def _read(path, mode="rb"):
    with open(path, mode) as f:
        return f.read()


def _tsv(path):
    return [line.split("\t") for line in _read(path, "r").splitlines()]


class Inputs:
    """The data directory of a round, read with the reference readers."""

    def __init__(self, d):
        self.d = d
        self.vocab = ref.Vocab.load(os.path.join(d, "vocab.txt"))
        self.catalog = [row[0] for row in _tsv(os.path.join(d, "catalog.tsv"))[1:] if row[0]]
        self.cloze = [row for row in _tsv(os.path.join(d, "cloze.tsv"))[1:] if row[0]]
        self.ckpt_bytes = _read(os.path.join(d, "model.bin"))
        self.config, self.meta, params = ref.read_checkpoint(self.ckpt_bytes)
        self.model = ref.ReferenceModel(self.config, params)
        self.table = ref.read_table(_read(os.path.join(d, "table.bin")))

    def path(self, name):
        return os.path.join(self.d, name)


def check_rounds(digests):
    """Every round of one run writes byte-identical artifacts."""
    return [f"round {i} wrote different {name}"
            for i, dig in enumerate(digests[1:], 1)
            for name in dig if dig[name] != digests[0][name]]


def check_train(inp, program, train_stdout):
    errors = []
    entropy = ref.unigram_entropy(ref.read_lines(inp.path("train.txt")), inp.vocab)
    loss = inp.meta["final_loss"]
    if not loss < entropy:
        errors.append(f"final loss {loss:.4f} not below unigram entropy {entropy:.4f}")
    printed = re.search(r"final_loss=([0-9.]+)", train_stdout)
    if not printed or abs(float(printed.group(1)) - loss) > 5e-5:
        errors.append(f"printed final loss disagrees with the checkpoint's {loss}")
    reloaded = program.checkpoint.load_checkpoint(inp.path("model.bin"))
    if program.checkpoint.serialize_checkpoint(reloaded) != inp.ckpt_bytes:
        errors.append("checkpoint does not reserialize byte-identically")
    return errors


def reference_direction(model, occurrences):
    total = sum(model.masked_repr(list(tokens), pos) for tokens, pos in occurrences)
    return total / np.linalg.norm(total)


def check_table(inp, build_stdout, seed):
    errors = []
    table = inp.table
    if table["fingerprint"] != hashlib.sha256(inp.ckpt_bytes).digest():
        errors.append("table fingerprint is not the SHA-256 of the checkpoint")
    if table["dim"] != inp.config["dim"] or table["norm_l"] != np.float32(pl.TABLE_L):
        errors.append(f"table D={table['dim']} L={table['norm_l']}")
    tol = 8 * np.finfo(np.float32).eps * pl.TABLE_L
    for eid, (_, vec) in table["entries"].items():
        norm = np.linalg.norm(vec.astype(np.float64))
        if abs(norm - pl.TABLE_L) > tol:
            errors.append(f"{eid}: vector norm {norm!r} is not L={pl.TABLE_L}")
    occ = ref.occurrences(ref.read_lines(inp.path("lookup.txt")), inp.vocab,
                          pl.OCCURRENCE_CAP)
    want = {eid: len(occ[eid]) for eid in inp.catalog if occ.get(eid)}
    got = {eid: count for eid, (count, _) in table["entries"].items()}
    if got != want:
        bad = sorted(e for e in set(got) | set(want) if got.get(e) != want.get(e))
        errors.append(f"occurrence counts differ for {bad[:5]}")
    skipped = set(re.findall(r"^skipped (\S+):", build_stdout, re.M))
    if skipped != set(inp.catalog) - set(want):
        errors.append(f"skipped {sorted(skipped)}, expected {sorted(set(inp.catalog) - set(want))}")
    rng = np.random.default_rng(seed)
    for eid in rng.choice(sorted(want), size=min(SAMPLE_ENTITIES, len(want)), replace=False):
        stored = table["entries"][eid][1].astype(np.float64)
        err = np.abs(reference_direction(inp.model, occ[eid]) - stored / np.linalg.norm(stored))
        if err.max() > DIRECTION_TOL:
            errors.append(f"{eid}: direction differs from the reference by {err.max():.2e}")
    return errors


def reference_top1(inp, vectors):
    """Per cloze row: (top-1 id, margin) of the reference, with and without vectors."""
    out = []
    for query, *_ in inp.cloze:
        tokens, mentions = inp.vocab.parse(query)
        pos = tokens.index(ref.MASK_ID)
        slots, where = ref.infuse(tokens, mentions, vectors)
        row = []
        for seq, at in ((tokens, pos), (slots, where[pos])):
            logits = inp.model.logits(inp.model.masked_repr(seq, at))
            order = np.argsort(-logits, kind="stable")
            row.append((int(order[0]), float(logits[order[0]] - logits[order[1]])))
        out.append(row)
    return out


def _bucket(freq):
    return next(label for lo, hi, label in BUCKETS if freq >= lo and (hi is None or freq < hi))


def _report_counts(path):
    """(kind, key) -> (correct, total) from a probe TSV."""
    counts = {}
    for row in _tsv(path):
        if row[0] in ("relation", "bucket"):
            total = int(row[3])
            counts[(row[0], row[1])] = (round(float(row[2]) * total), total)
    return counts


def check_probe_counts(inp, top1, mode, tsv_path):
    """Per relation and bucket, the program's hits lie between the reference's
    clear hits and those plus the queries whose margin is not clear."""
    errors = []
    index = 0 if mode == "vanilla" else 1
    expect = {}
    for (query, _, answer, relation, freq), row in zip(inp.cloze, top1):
        top, margin = row[index]
        clear = margin > CLEAR_MARGIN
        for key in (("relation", relation), ("bucket", _bucket(int(freq)))):
            hits, unclear, total = expect.get(key, (0, 0, 0))
            expect[key] = (hits + (clear and top == inp.vocab.index[answer]),
                           unclear + (not clear), total + 1)
    got = _report_counts(tsv_path)
    for key, (hits, unclear, total) in expect.items():
        correct, n = got.get(key, (None, None))
        if n != total or not hits <= correct <= hits + unclear:
            errors.append(f"{mode} {key}: program {correct}/{n}, reference "
                          f"{hits}(+{unclear} unclear)/{total}")
    return errors


def check_probe_sample(inp, program, top1, seed):
    """Top-1 of sampled queries through the program's own predictors."""
    errors = []
    ckpt = program.checkpoint.load_checkpoint(inp.path("model.bin"))
    table = program.table.load_table(inp.path("table.bin"), ckpt)
    vocab = program.vocab.Vocabulary.load(inp.path("vocab.txt"))
    rng = np.random.default_rng(seed)
    for i in rng.choice(len(inp.cloze), size=min(SAMPLE_QUERIES, len(inp.cloze)),
                        replace=False):
        sentence = program.corpus.parse_marked_line(inp.cloze[i][0], vocab)
        pos = sentence.tokens.index(ref.MASK_ID)
        got = (program.model.predict_topk(ckpt, sentence.tokens, pos, 1)[0][0],
               program.infuse.cloze_predict_infused(sentence, pos, table, ckpt, 1)[0][0])
        for mode, g, (top, margin) in zip(("vanilla", "infused"), got, top1[i]):
            if margin > CLEAR_MARGIN and g != top:
                errors.append(f"{mode} query {i}: program top-1 {g}, reference {top}")
    return errors


def check_empty_table(inp, pipe):
    """An empty table skips exactly the unmentioned entity and reproduces the
    vanilla report, except the mode and L lines."""
    errors = []
    ckpt, empty = inp.path("model.bin"), inp.path("empty.bin")
    out = pipe.call("check", ["build-table", "--ckpt", ckpt, "--data", inp.d, "--out", empty,
                              "--entities", ABSENT_ENTITY], record=False)
    if re.findall(r"^skipped (\S+):", out, re.M) != [ABSENT_ENTITY] or "stored=0" not in out:
        errors.append(f"empty table build printed {out!r}")
    pipe.call("check", ["probe", "--ckpt", ckpt, "--data", inp.d, "--table", empty,
                        "--tsv", inp.path("empty.tsv")], record=False)

    def body(path):
        return [r for r in _tsv(path) if r[:2] not in (["meta", "mode"], ["meta", "norm_l"])]

    if body(inp.path("empty.tsv")) != body(inp.path("vanilla.tsv")):
        errors.append("empty-table probe differs from the vanilla probe")
    return errors


def _macro(path):
    return next(r[2] for r in _tsv(path) if r[:2] == ["mean", "macro"])


def check_sweep(inp, pipe):
    """The selected L is the first best of the curve, and the curve's value
    there (and at the round's table L) equals a fresh infused probe."""
    errors = []
    rows = _tsv(inp.path("sweep.tsv"))
    curve = {float(r[1]): r[2] for r in rows if r[0] == "sweep"}
    selected = float(next(r[1] for r in rows if r[0] == "selected"))
    best = max(float(p) for p in curve.values())
    if selected != min(l for l, p in curve.items() if float(p) == best):
        errors.append(f"selected L={selected:g} is not the smallest best L")
    if curve.get(pl.TABLE_L) != _macro(inp.path("infused.tsv")):
        errors.append(f"sweep at L={pl.TABLE_L:g} differs from the infused probe")
    ckpt, fresh = inp.path("model.bin"), inp.path("fresh.bin")
    pipe.call("check", ["build-table", "--ckpt", ckpt, "--data", inp.d, "--out", fresh,
                        "--l", f"{selected:g}"], record=False)
    pipe.call("check", ["probe", "--ckpt", ckpt, "--data", inp.d, "--table", fresh,
                        "--tsv", inp.path("fresh.tsv")], record=False)
    if curve[selected] != _macro(inp.path("fresh.tsv")):
        errors.append(f"sweep at L={selected:g} is {curve[selected]}, a fresh probe "
                      f"gives {_macro(inp.path('fresh.tsv'))}")
    return errors


def run_all(pipe, d, digests, program, seed):
    inp = Inputs(d)
    top1 = reference_top1(inp, {eid: vec.astype(np.float64)
                                for eid, (_, vec) in inp.table["entries"].items()})
    return (check_rounds(digests)
            + check_train(inp, program, pipe.outputs["train"])
            + check_table(inp, pipe.outputs["build_table"], seed)
            + check_probe_counts(inp, top1, "vanilla", inp.path("vanilla.tsv"))
            + check_probe_counts(inp, top1, "infused", inp.path("infused.tsv"))
            + check_probe_sample(inp, program, top1, seed)
            + check_empty_table(inp, pipe)
            + check_sweep(inp, pipe))
