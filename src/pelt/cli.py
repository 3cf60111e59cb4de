"""Command-line entry point: the full pipeline as seeded subcommands.

Every subcommand prints a one-line provenance header (version, seed,
fingerprints) and produces byte-identical artifacts for identical inputs
and seed. Exit codes: 0 success, 1 runtime error, 2 usage error.

Each option is declared once, in ``build_parser``, with its type, default
and choices; flag names must be written in full. ``--config FILE`` presets
any option of its subcommand from ``key=value`` lines (``-`` or ``_`` in
keys; ``true`` or ``false`` for a switch such as ``restrict``). The lines
are parsed as ``--key=value`` flags placed before the command line, so
explicit flags win and a file value meets the same checks as its flag. A
line that is not key=value, an unknown key or a bad value in the file is a
usage error.
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
from pelt.corpus import CorpusConfig
from pelt.errors import ConfigError, PeltError, UsageError, read_lines
from pelt.gradcheck import grad_check
from pelt.linker import link_document_rows, load_page_graph
from pelt.model import ModelConfig
from pelt.synth import synthetic_checkpoint, synthetic_mlm_batch, synthetic_occurrences
from pelt.vocab import Vocabulary


def _read_config_file(path):
    values = {}
    for raw in read_lines(path):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise UsageError(f"{path}: config lines must be key=value, got {line!r}")
        key, value = line.split("=", 1)
        values[key.strip().replace("-", "_")] = value.strip()
    return values


def _provenance(seed, **fingerprints):
    parts = [f"# pelt {pelt.__version__}", f"seed={seed}"]
    for key, value in fingerprints.items():
        parts.append(f"{key}={value}")
    print(" ".join(parts))


def _write_tsv(path, text):
    if path:
        with open(path, "w", encoding="utf-8") as f:
            f.write(text + "\n")


def _load_data_dir(data_dir, need=("vocab",), ckpt=None):
    load = {"vocab": Vocabulary.load, "catalog": corpus_mod.EntityCatalog.load,
            "cloze": load_cloze, "train": corpus_mod.read_corpus_file,
            "lookup": corpus_mod.read_corpus_file}
    out = {}
    for key in need:
        path = os.path.join(data_dir, corpus_mod.DATA_FILES[key])
        if not os.path.exists(path):
            raise PeltError(f"missing {key} file: {path}")
        out[key] = load[key](path)
    if ckpt is not None and len(out["vocab"]) != ckpt.config.vocab_size:
        raise ConfigError(f"vocabulary of {len(out['vocab'])} tokens in {data_dir}, "
                          f"checkpoint expects {ckpt.config.vocab_size}")
    return out


# ---------------------------------------------------------------------------
# Subcommands
# ---------------------------------------------------------------------------

def _cmd_gen_corpus(args):
    config = CorpusConfig(
        n_entities=args.entities,
        zipf_exponent=args.zipf,
        entity_slot_budget=args.budget,
        lookup_per_entity=args.lookup_per_entity,
        zero_train_entities=args.zero_train,
        seed=args.seed,
    )
    _provenance(args.seed)
    bundle = corpus_mod.generate_corpus(config)
    bundle.save(args.out)
    print(f"entities={len(bundle.catalog)} train={len(bundle.train_lines)} "
          f"lookup={len(bundle.lookup_lines)} cloze={len(bundle.queries)} "
          f"vocab={len(bundle.vocab)} out={args.out}")
    return 0


def _cmd_train(args):
    data = _load_data_dir(args.data, need=("vocab", "train"))
    sentences = corpus_mod.parse_corpus(data["train"], data["vocab"])
    config = ModelConfig(
        dim=args.dim,
        layers=args.layers,
        heads=args.heads,
        ffn_mult=args.ffn_mult,
        max_len=args.maxlen,
        vocab_size=len(data["vocab"]),
        ln_eps=args.ln_eps,
        seed=args.seed,
    )
    model_mod.check_train_args(sentences, config, args.steps, args.lr, args.mask_rate,
                               args.batch, args.log_every)
    if os.path.isdir(args.out):
        raise ConfigError(f"cannot write {args.out}: it is a directory")
    if not os.path.isdir(os.path.dirname(args.out) or "."):
        raise ConfigError(f"cannot write {args.out}: its directory does not exist")
    _provenance(args.seed)
    ckpt = model_mod.train_mlm(
        sentences, config,
        steps=args.steps,
        lr=args.lr,
        mask_rate=args.mask_rate,
        seed=args.seed,
        batch_size=args.batch,
        log_every=args.log_every,
    )
    ckpt_io.save_checkpoint(ckpt, args.out)
    print(f"final_loss={ckpt.final_loss:.4f} "
          f"ckpt={ckpt_io.fingerprint(ckpt).hex()[:16]} out={args.out}")
    return 0


def _cmd_build_table(args):
    if args.entities and "" in args.entities.split(","):
        raise UsageError(f"bad --entities value {args.entities!r}: an entity id is empty")
    ckpt = ckpt_io.load_checkpoint(args.ckpt)
    data = _load_data_dir(args.data, need=("vocab", "catalog", args.source), ckpt=ckpt)
    sentences = corpus_mod.parse_corpus(data[args.source], data["vocab"])
    entity_ids = (args.entities.split(",") if args.entities
                  else data["catalog"].ids())
    table, skipped = table_mod.build_table(entity_ids, sentences, ckpt, args.l, cap=args.cap)
    _provenance(ckpt.train_seed, ckpt=table.fingerprint.hex()[:16])
    table_mod.save_table(table, args.out)
    for eid in skipped:
        print(f"skipped {eid}: no occurrences in {args.source} corpus")
    print(f"stored={len(table)} skipped={len(skipped)} L={args.l:g} out={args.out}")
    return 0


def _cmd_probe(args):
    ckpt = ckpt_io.load_checkpoint(args.ckpt)
    data = _load_data_dir(args.data, need=("vocab", "catalog", "cloze"), ckpt=ckpt)
    table = table_mod.load_table(args.table, ckpt) if args.table else None
    pools = (probe_mod.candidate_pools(data["catalog"], data["vocab"])
             if args.restrict else None)
    report = probe_mod.run_probe(data["cloze"], data["vocab"], ckpt, table=table,
                                 pools=pools)
    _provenance(ckpt.train_seed, ckpt=report.model_fingerprint[:16],
                table=(table.fingerprint.hex()[:16] if table else "none"))
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
        if not values:
            raise ValueError(spec)
    except ValueError:
        raise UsageError(f"bad --l value {spec!r}: expected e.g. 1..10 or 1,3,7") from None
    return values


def _cmd_sweep(args):
    ckpt = ckpt_io.load_checkpoint(args.ckpt)
    data = _load_data_dir(args.data, need=("vocab", "catalog", "cloze", "lookup"), ckpt=ckpt)
    sentences = corpus_mod.parse_corpus(data["lookup"], data["vocab"])
    l_values = _parse_l_values(args.l)
    pools = (probe_mod.candidate_pools(data["catalog"], data["vocab"])
             if args.restrict else None)
    result = probe_mod.sweep_norm(
        data["cloze"], data["vocab"], ckpt, sentences, data["catalog"].ids(),
        l_values, cap=args.cap, pools=pools)
    _provenance(ckpt.train_seed, ckpt=result.directions.fingerprint.hex()[:16])
    print(result.render_text())
    _write_tsv(args.tsv, result.render_tsv())
    return 0


def _cmd_link(args):
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
    _provenance(args.seed)
    ckpt = synthetic_checkpoint(dim=args.dim, layers=args.layers, heads=args.heads,
                                vocab_size=args.vocab, seed=args.seed, dtype=np.float64)
    tokens, targets = synthetic_mlm_batch(args.vocab, seed=args.seed)
    err = grad_check(
        lambda: model_mod.mlm_loss(ckpt.params, ckpt.config, tokens, targets),
        ckpt.params, h=args.h, samples=args.samples, seed=args.seed)
    ok = err < args.tol
    print(f"max_rel_error={err:.3e} tolerance={args.tol:g} {'PASS' if ok else 'FAIL'}")
    return 0 if ok else 1


def _cmd_oracle(args):
    seed = args.seed
    if args.small_vocab < 1:
        raise ConfigError(f"--small-vocab must be >= 1, got {args.small_vocab}")
    _provenance(seed)
    ckpt = synthetic_checkpoint(dim=args.dim, layers=1, heads=4,
                                vocab_size=args.vocab, seed=seed, dtype=np.float64)
    occ = synthetic_occurrences(args.vocab, occurrences=args.occurrences, seed=seed)
    report = table_mod.gradient_direction_oracle("synthetic", occ, ckpt, seed=seed)
    rng = np.random.default_rng(seed + 1)
    tiny = table_mod.gradient_direction_oracle(
        "synthetic", occ, ckpt,
        partition_rows=rng.normal(0.0, 0.5, (args.small_vocab, args.dim)), seed=seed)
    print(f"surrogate_max_deviation={report.surrogate_max_deviation:.3e}")
    print(f"full_step_cosine |V|={report.partition_size}: {report.full_step_cosine:.6f}")
    print(f"full_step_cosine |V|={tiny.partition_size}: {tiny.full_step_cosine:.6f}")
    return 0


# ---------------------------------------------------------------------------
# Parser
# ---------------------------------------------------------------------------

def build_parser():
    """The ``pelt`` parser and a dict of its subcommand parsers by name."""
    parser = argparse.ArgumentParser(prog="pelt",
                                     description="pluggable entity lookup table pipeline")
    sub = parser.add_subparsers(dest="command", required=True)

    def command(name, func, help):
        p = sub.add_parser(name, help=help, allow_abbrev=False)
        p.add_argument("--config", default=None, help="key=value option file")
        p.set_defaults(func=func)
        return p

    p = command("gen-corpus", _cmd_gen_corpus, "generate the synthetic fact corpus")
    p.add_argument("--seed", type=int, default=CorpusConfig.seed)
    p.add_argument("--out", required=True)
    p.add_argument("--entities", type=int, default=CorpusConfig.n_entities)
    p.add_argument("--budget", type=int, default=CorpusConfig.entity_slot_budget)
    p.add_argument("--zipf", type=float, default=CorpusConfig.zipf_exponent)
    p.add_argument("--lookup-per-entity", type=int, default=CorpusConfig.lookup_per_entity)
    p.add_argument("--zero-train", type=int, default=CorpusConfig.zero_train_entities)

    p = command("train", _cmd_train, "train the masked language model")
    p.add_argument("--seed", type=int, default=ModelConfig.seed)
    p.add_argument("--data", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--steps", type=int, default=3000)
    p.add_argument("--lr", type=float, default=3e-3)
    p.add_argument("--batch", type=int, default=32)
    p.add_argument("--dim", type=int, default=ModelConfig.dim)
    p.add_argument("--layers", type=int, default=ModelConfig.layers)
    p.add_argument("--heads", type=int, default=ModelConfig.heads)
    p.add_argument("--ffn-mult", type=int, default=ModelConfig.ffn_mult)
    p.add_argument("--maxlen", type=int, default=ModelConfig.max_len)
    p.add_argument("--ln-eps", type=float, default=ModelConfig.ln_eps)
    p.add_argument("--mask-rate", type=float, default=0.15)
    p.add_argument("--log-every", type=int, default=200)

    p = command("build-table", _cmd_build_table, "build the entity lookup table")
    p.add_argument("--ckpt", required=True)
    p.add_argument("--data", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--l", type=float, default=7.0)
    p.add_argument("--cap", type=int, default=corpus_mod.OCCURRENCE_CAP)
    p.add_argument("--entities", default=None, help="comma-separated entity ids")
    p.add_argument("--source", choices=("lookup", "train"), default="lookup")

    p = command("probe", _cmd_probe, "run the cloze knowledge probe")
    p.add_argument("--ckpt", required=True)
    p.add_argument("--data", required=True)
    p.add_argument("--table", default=None)
    p.add_argument("--restrict", action="store_true")
    p.add_argument("--strict", action="store_true")
    p.add_argument("--tsv", default=None)

    p = command("sweep", _cmd_sweep, "sweep the embedding norm L")
    p.add_argument("--ckpt", required=True)
    p.add_argument("--data", required=True)
    p.add_argument("--l", default="1..10", help="e.g. 1..10 or 1,3,7")
    p.add_argument("--cap", type=int, default=corpus_mod.OCCURRENCE_CAP)
    p.add_argument("--restrict", action="store_true")
    p.add_argument("--tsv", default=None)

    p = command("link", _cmd_link, "link candidate names over a page graph")
    p.add_argument("--graph", required=True)
    p.add_argument("--tsv", default=None)

    p = command("gradcheck", _cmd_gradcheck, "finite-difference check of the MLM loss")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--dim", type=int, default=32)
    p.add_argument("--layers", type=int, default=2)
    p.add_argument("--heads", type=int, default=4)
    p.add_argument("--vocab", type=int, default=512)
    p.add_argument("--samples", type=int, default=200)
    p.add_argument("--h", type=float, default=1e-5)
    p.add_argument("--tol", type=float, default=1e-4)

    p = command("oracle", _cmd_oracle, "loss-decomposition direction checks")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--dim", type=int, default=32)
    p.add_argument("--vocab", type=int, default=512)
    p.add_argument("--small-vocab", type=int, default=2)
    p.add_argument("--occurrences", type=int, default=12)

    return parser, sub.choices


def _apply_config(command, args, argv):
    """Parse argv again with the --config file's lines in front as --key=value flags."""
    values = _read_config_file(args.config)
    options = {k: v for k, v in vars(args).items() if k not in ("func", "command", "config")}
    flags = []
    for key, raw in values.items():
        if key not in options:
            raise UsageError(f"{args.config}: unknown config key {key!r}")
        flag = "--" + key.replace("_", "-")
        if not isinstance(options[key], bool):
            flags.append(f"{flag}={raw}")
        elif raw.lower() == "true":  # a store-true switch
            flags.append(flag)
        elif raw.lower() != "false":
            raise UsageError(f"{args.config}: bad config value {key}={raw!r} "
                             f"(expected true or false)")
    command.exit_on_error = False  # a bad file value raises ArgumentError instead
    try:
        return command.parse_args(flags + argv[argv.index(args.command) + 1:],
                                  argparse.Namespace(command=args.command))
    except argparse.ArgumentError as err:
        key = err.argument_name.lstrip("-").replace("-", "_")
        raise UsageError(f"{args.config}: bad config value {key}={values[key]!r} "
                         f"({err.message})") from None


def parse_args(argv):
    """The namespace of a ``pelt`` command line, its --config file applied."""
    parser, commands = build_parser()
    args = parser.parse_args(argv)
    if args.config:
        args = _apply_config(commands[args.command], args, argv)
    return args


def main(argv=None):
    try:
        args = parse_args(sys.argv[1:] if argv is None else list(argv))
        return args.func(args)
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (PeltError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
