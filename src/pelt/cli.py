"""Command-line entry point: the full pipeline as seeded subcommands.

Every subcommand prints a one-line provenance header (version, seed,
fingerprints) and produces byte-identical artifacts for identical inputs
and seed. Exit codes: 0 success, 1 runtime error, 2 usage error. A
key=value config file can preset any option of its subcommand; explicit
flags win, and an unknown key or a value of the wrong type is a usage
error.
"""

import argparse
import os
import sys

import numpy as np

import pelt
from pelt import checkpoint as ckpt_io
from pelt import corpus as corpus_mod
from pelt import model as model_mod
from pelt import probe as probe_mod
from pelt import table as table_mod
from pelt.cloze import load_cloze
from pelt.errors import PeltError, UsageError
from pelt.gradcheck import grad_check
from pelt.linker import link_document_rows, load_page_graph
from pelt.synth import synthetic_checkpoint, synthetic_mlm_batch, synthetic_occurrence_set
from pelt.vocab import Vocabulary


def _read_config_file(path):
    values = {}
    with open(path, encoding="utf-8") as f:
        for raw in f:
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise PeltError(f"{path}: config lines must be key=value, got {line!r}")
            key, value = line.split("=", 1)
            values[key.strip().replace("-", "_")] = value.strip()
    return values


class _Options:
    """Resolved option values: explicit flag > config file > default."""

    def __init__(self, args):
        self._args = args
        self._file = _read_config_file(args.config) if getattr(args, "config", None) else {}
        unknown = sorted(set(self._file) - set(vars(args)) - {"func", "command", "config"})
        if unknown:
            raise UsageError(f"{args.config}: unknown config key {unknown[0]!r}")

    def get(self, name, default, cast=str):
        value = getattr(self._args, name, None)
        if value is not None:
            return value
        if name in self._file:
            raw = self._file[name]
            if cast is bool:
                return raw.lower() in ("1", "true", "yes")
            try:
                return cast(raw)
            except ValueError:
                raise UsageError(f"config value {name}={raw!r} is not "
                                 f"a valid {cast.__name__}") from None
        return default


def _provenance(seed, **fingerprints):
    parts = [f"# pelt {pelt.__version__}", f"seed={seed}"]
    for key, value in fingerprints.items():
        parts.append(f"{key}={value}")
    print(" ".join(parts))


def _write_tsv(path, text):
    if path:
        with open(path, "w", encoding="utf-8") as f:
            f.write(text + "\n")


def _load_data_dir(data_dir, need=("vocab",)):
    out = {}
    paths = {
        "vocab": os.path.join(data_dir, "vocab.txt"),
        "catalog": os.path.join(data_dir, "catalog.tsv"),
        "train": os.path.join(data_dir, "train.txt"),
        "lookup": os.path.join(data_dir, "lookup.txt"),
        "cloze": os.path.join(data_dir, "cloze.tsv"),
    }
    for key in need:
        path = paths[key]
        if not os.path.exists(path):
            raise PeltError(f"missing {key} file: {path}")
        if key == "vocab":
            out[key] = Vocabulary.load(path)
        elif key == "catalog":
            out[key] = corpus_mod.EntityCatalog.load(path)
        elif key == "cloze":
            out[key] = load_cloze(path)
        else:
            out[key] = corpus_mod.read_corpus_file(path)
    return out


# ---------------------------------------------------------------------------
# Subcommands
# ---------------------------------------------------------------------------

def _cmd_gen_corpus(args):
    opts = _Options(args)
    seed = opts.get("seed", 42, int)
    config = corpus_mod.CorpusConfig(
        n_entities=opts.get("entities", 50, int),
        zipf_exponent=opts.get("zipf", 1.0, float),
        entity_slot_budget=opts.get("budget", 1800, int),
        lookup_per_entity=opts.get("lookup_per_entity", 24, int),
        zero_train_entities=opts.get("zero_train", 5, int),
        seed=seed,
    )
    _provenance(seed)
    bundle = corpus_mod.generate_corpus(config)
    bundle.save(args.out)
    print(f"entities={len(bundle.catalog)} train={len(bundle.train_lines)} "
          f"lookup={len(bundle.lookup_lines)} cloze={len(bundle.queries)} "
          f"vocab={len(bundle.vocab)} out={args.out}")
    return 0


def _cmd_train(args):
    opts = _Options(args)
    seed = opts.get("seed", 0, int)
    data = _load_data_dir(args.data, need=("vocab", "train"))
    sentences = corpus_mod.parse_corpus(data["train"], data["vocab"])
    config = model_mod.ModelConfig(
        dim=opts.get("dim", 64, int),
        layers=opts.get("layers", 2, int),
        heads=opts.get("heads", 4, int),
        ffn_mult=opts.get("ffn_mult", 4, int),
        max_len=opts.get("maxlen", 64, int),
        vocab_size=len(data["vocab"]),
        ln_eps=opts.get("ln_eps", 1e-5, float),
        seed=seed,
    )
    _provenance(seed)
    ckpt = model_mod.train_mlm(
        sentences, config,
        steps=opts.get("steps", 3000, int),
        lr=opts.get("lr", 3e-3, float),
        mask_rate=opts.get("mask_rate", 0.15, float),
        seed=seed,
        batch_size=opts.get("batch", 32, int),
        log_every=opts.get("log_every", 200, int),
    )
    ckpt_io.save_checkpoint(ckpt, args.out)
    print(f"final_loss={ckpt.final_loss:.4f} "
          f"ckpt={ckpt_io.fingerprint(ckpt).hex()[:16]} out={args.out}")
    return 0


def _cmd_build_table(args):
    opts = _Options(args)
    ckpt = ckpt_io.load_checkpoint(args.ckpt)
    source = opts.get("source", "lookup")
    data = _load_data_dir(args.data, need=("vocab", "catalog", source))
    sentences = corpus_mod.parse_corpus(data[source], data["vocab"])
    entity_ids = (args.entities.split(",") if args.entities
                  else data["catalog"].ids())
    norm_l = opts.get("l", 7.0, float)
    _provenance(ckpt.train_seed, ckpt=ckpt_io.fingerprint(ckpt).hex()[:16])
    table, skipped = table_mod.build_table(
        entity_ids, sentences, ckpt, norm_l, cap=opts.get("cap", 256, int))
    table_mod.save_table(table, args.out)
    for eid in skipped:
        print(f"skipped {eid}: no occurrences in {source} corpus")
    print(f"stored={len(table)} skipped={len(skipped)} L={norm_l:g} out={args.out}")
    return 0


def _cmd_probe(args):
    opts = _Options(args)
    ckpt = ckpt_io.load_checkpoint(args.ckpt)
    data = _load_data_dir(args.data, need=("vocab", "catalog", "cloze"))
    table = table_mod.load_table(args.table, ckpt) if args.table else None
    _provenance(ckpt.train_seed,
                ckpt=ckpt_io.fingerprint(ckpt).hex()[:16],
                table=(table.fingerprint.hex()[:16] if table else "none"))
    report = probe_mod.run_probe(data["cloze"], data["vocab"], ckpt, table=table,
                                 restrict=bool(args.restrict), catalog=data["catalog"])
    print(report.render_text())
    _write_tsv(args.tsv, report.render_tsv())
    if args.strict and report.rejected:
        return 1
    return 0


def _parse_l_values(spec):
    values = []
    try:
        for part in spec.split(","):
            part = part.strip()
            if ".." in part:
                lo, hi = part.split("..", 1)
                values.extend(float(x) for x in range(int(lo), int(hi) + 1))
            elif part:
                values.append(float(part))
    except ValueError:
        raise UsageError(f"bad --l value {spec!r}: expected e.g. 1..10 or 1,3,7") from None
    return values


def _cmd_sweep(args):
    opts = _Options(args)
    ckpt = ckpt_io.load_checkpoint(args.ckpt)
    data = _load_data_dir(args.data, need=("vocab", "catalog", "cloze", "lookup"))
    sentences = corpus_mod.parse_corpus(data["lookup"], data["vocab"])
    l_values = _parse_l_values(opts.get("l", "1..10"))
    _provenance(ckpt.train_seed, ckpt=ckpt_io.fingerprint(ckpt).hex()[:16])
    result = probe_mod.sweep_norm(
        data["cloze"], data["vocab"], ckpt, sentences, data["catalog"].ids(),
        l_values, cap=opts.get("cap", 256, int),
        restrict=bool(args.restrict), catalog=data["catalog"])
    print(result.render_text())
    _write_tsv(args.tsv, result.render_tsv())
    return 0


def _cmd_link(args):
    _Options(args)  # link reads no option from the file, but still vets its keys
    graph = load_page_graph(args.graph)
    _provenance(0, graph=os.path.basename(args.graph))
    rows = []
    for doc in graph.docs:
        rows.extend(link_document_rows(doc, graph))
    for row in rows:
        print(row)
    _write_tsv(args.tsv, "\n".join(rows))
    return 0


def _cmd_gradcheck(args):
    opts = _Options(args)
    seed = opts.get("seed", 0, int)
    dim = opts.get("dim", 32, int)
    vocab_size = opts.get("vocab", 512, int)
    tol = opts.get("tol", 1e-4, float)
    _provenance(seed)
    ckpt = synthetic_checkpoint(dim=dim, layers=opts.get("layers", 2, int),
                                heads=opts.get("heads", 4, int),
                                vocab_size=vocab_size, seed=seed, dtype=np.float64)
    tokens, targets = synthetic_mlm_batch(vocab_size, seed=seed)
    err = grad_check(
        lambda: model_mod.mlm_loss(ckpt.params, ckpt.config, tokens, targets),
        ckpt.params,
        h=opts.get("h", 1e-5, float),
        samples=opts.get("samples", 200, int),
        seed=seed)
    ok = err < tol
    print(f"max_rel_error={err:.3e} tolerance={tol:g} {'PASS' if ok else 'FAIL'}")
    return 0 if ok else 1


def _cmd_oracle(args):
    opts = _Options(args)
    seed = opts.get("seed", 0, int)
    dim = opts.get("dim", 32, int)
    vocab_size = opts.get("vocab", 512, int)
    small = opts.get("small_vocab", 2, int)
    _provenance(seed)
    ckpt = synthetic_checkpoint(dim=dim, layers=1, heads=4,
                                vocab_size=vocab_size, seed=seed, dtype=np.float64)
    occ = synthetic_occurrence_set(vocab_size, occurrences=opts.get("occurrences", 12, int),
                                   seed=seed)
    report = table_mod.gradient_direction_oracle("synthetic", occ, ckpt, seed=seed)
    rng = np.random.default_rng(seed + 1)
    tiny = table_mod.gradient_direction_oracle(
        "synthetic", occ, ckpt, partition_rows=rng.normal(0.0, 0.5, (small, dim)),
        seed=seed)
    print(f"surrogate_max_deviation={report.surrogate_max_deviation:.3e}")
    print(f"full_step_cosine |V|={report.partition_size}: {report.full_step_cosine:.6f}")
    print(f"full_step_cosine |V|={tiny.partition_size}: {tiny.full_step_cosine:.6f}")
    return 0


# ---------------------------------------------------------------------------
# Parser
# ---------------------------------------------------------------------------

def _add_common(sub):
    sub.add_argument("--seed", type=int, default=None)
    sub.add_argument("--config", default=None, help="key=value option file")


def build_parser():
    parser = argparse.ArgumentParser(prog="pelt",
                                     description="pluggable entity lookup table pipeline")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("gen-corpus", help="generate the synthetic fact corpus")
    _add_common(p)
    p.add_argument("--out", required=True)
    p.add_argument("--entities", type=int, default=None)
    p.add_argument("--budget", type=int, default=None)
    p.add_argument("--zipf", type=float, default=None)
    p.add_argument("--lookup-per-entity", dest="lookup_per_entity", type=int, default=None)
    p.add_argument("--zero-train", dest="zero_train", type=int, default=None)
    p.set_defaults(func=_cmd_gen_corpus)

    p = sub.add_parser("train", help="train the masked language model")
    _add_common(p)
    p.add_argument("--data", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--steps", type=int, default=None)
    p.add_argument("--lr", type=float, default=None)
    p.add_argument("--batch", type=int, default=None)
    p.add_argument("--dim", type=int, default=None)
    p.add_argument("--layers", type=int, default=None)
    p.add_argument("--heads", type=int, default=None)
    p.add_argument("--ffn-mult", dest="ffn_mult", type=int, default=None)
    p.add_argument("--maxlen", type=int, default=None)
    p.add_argument("--ln-eps", dest="ln_eps", type=float, default=None)
    p.add_argument("--mask-rate", dest="mask_rate", type=float, default=None)
    p.add_argument("--log-every", dest="log_every", type=int, default=None)
    p.set_defaults(func=_cmd_train)

    p = sub.add_parser("build-table", help="build the entity lookup table")
    _add_common(p)
    p.add_argument("--ckpt", required=True)
    p.add_argument("--data", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--l", type=float, default=None)
    p.add_argument("--cap", type=int, default=None)
    p.add_argument("--entities", default=None, help="comma-separated entity ids")
    p.add_argument("--source", choices=("lookup", "train"), default=None)
    p.set_defaults(func=_cmd_build_table)

    p = sub.add_parser("probe", help="run the cloze knowledge probe")
    _add_common(p)
    p.add_argument("--ckpt", required=True)
    p.add_argument("--data", required=True)
    p.add_argument("--table", default=None)
    p.add_argument("--restrict", action="store_true")
    p.add_argument("--strict", action="store_true")
    p.add_argument("--tsv", default=None)
    p.set_defaults(func=_cmd_probe)

    p = sub.add_parser("sweep", help="sweep the embedding norm L")
    _add_common(p)
    p.add_argument("--ckpt", required=True)
    p.add_argument("--data", required=True)
    p.add_argument("--l", default=None, help="e.g. 1..10 or 1,3,7")
    p.add_argument("--cap", type=int, default=None)
    p.add_argument("--restrict", action="store_true")
    p.add_argument("--tsv", default=None)
    p.set_defaults(func=_cmd_sweep)

    p = sub.add_parser("link", help="link candidate names over a page graph")
    _add_common(p)
    p.add_argument("--graph", required=True)
    p.add_argument("--tsv", default=None)
    p.set_defaults(func=_cmd_link)

    p = sub.add_parser("gradcheck", help="finite-difference check of the MLM loss")
    _add_common(p)
    p.add_argument("--dim", type=int, default=None)
    p.add_argument("--layers", type=int, default=None)
    p.add_argument("--heads", type=int, default=None)
    p.add_argument("--vocab", type=int, default=None)
    p.add_argument("--samples", type=int, default=None)
    p.add_argument("--h", type=float, default=None)
    p.add_argument("--tol", type=float, default=None)
    p.set_defaults(func=_cmd_gradcheck)

    p = sub.add_parser("oracle", help="loss-decomposition direction checks")
    _add_common(p)
    p.add_argument("--dim", type=int, default=None)
    p.add_argument("--vocab", type=int, default=None)
    p.add_argument("--small-vocab", dest="small_vocab", type=int, default=None)
    p.add_argument("--occurrences", type=int, default=None)
    p.set_defaults(func=_cmd_oracle)

    return parser


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (PeltError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
