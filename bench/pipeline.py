"""The pelt pipeline as a user runs it, stage by stage, through pelt.cli.main.

Every workload runs every stage on inputs that gen-corpus builds from the
benchmark seed, and sizes the stages so that a different layer does most of
the work (see README.md):

- train: set-up is gen-corpus; each round trains TRAIN_STEPS steps, then
  builds tables, probes and sweeps on the default inputs.
- build-table: set-up is gen-corpus with LOOKUP_PER_ENTITY lookup lines per
  entity and a SETUP_STEPS training run; each round builds the table twice,
  probes, and sweeps, which collects directions over that corpus again.
- probe: set-up is gen-corpus, the cloze set widened to every relation x
  template of every entity (800 queries) and a SETUP_STEPS training run;
  each round is dominated by the probes and the 10-value sweep.
"""

import contextlib
import hashlib
import io
import os
import statistics
import time
from dataclasses import dataclass

import reference as ref

BATCH = 32  # pelt train's default batch size
TRAIN_STEPS = 200
SETUP_STEPS = 80
SETUP_REPEATS = 3
# More lookup lines per entity than the 256 distinct sentence shapes the
# grammar gives an entity, so lines repeat (dedup applies) and every entity
# reaches the occurrence cap.
LOOKUP_PER_ENTITY = 288
TABLE_L = 7.0  # pelt build-table's default norm L
OCCURRENCE_CAP = 256  # pelt build-table's default cap
SWEEP_L = "1..10"
SWEEP_COUNT = 10
STAGES = ("gen_corpus", "train", "build_table", "probe_vanilla", "probe_infused", "sweep")


@dataclass(frozen=True)
class Workload:
    name: str
    round_train: bool  # train inside each round (else a short run in set-up)
    lookup_per_entity: int = 0  # 0 keeps gen-corpus's default
    widen_cloze: bool = False
    # Times per round that build-table and both probes run, half before the
    # sweep and half after it, so that the median of each run rests on
    # several calls spread over the run.
    blocks: int = 1


WORKLOADS = {
    "train": Workload("train", round_train=True, blocks=4),
    "build-table": Workload("build-table", round_train=False,
                            lookup_per_entity=LOOKUP_PER_ENTITY, blocks=2),
    "probe": Workload("probe", round_train=False, widen_cloze=True, blocks=2),
}


class StageFailed(Exception):
    pass


class Pipeline:
    """Runs stages of one workload in a scratch directory, timing each call."""

    def __init__(self, cli, workload, seed, workdir, tracer=None):
        self.cli = cli
        self.workload = workload
        self.seed = seed
        self.workdir = workdir
        self.tracer = tracer
        self.attempted = 0
        self.times = {stage: [] for stage in STAGES}  # seconds per call
        self.outputs = {}  # stage -> stdout of its last call

    # -- one CLI call ---------------------------------------------------------

    def call(self, stage, argv, record=True):
        out, err = io.StringIO(), io.StringIO()
        if self.tracer is not None:
            self.tracer.stage = stage
        self.attempted += 1
        t0 = time.perf_counter()
        try:
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = self.cli.main(argv)
        except SystemExit as exc:
            code = exc.code
        elapsed = time.perf_counter() - t0
        if code != 0:
            raise StageFailed(f"pelt {' '.join(argv)} exited {code}: {err.getvalue()[-500:]}")
        if record:
            self.times[stage].append(elapsed)
            self.outputs[stage] = out.getvalue()
        return out.getvalue()

    # -- stages ---------------------------------------------------------------

    def setup(self, tag):
        """Inputs for the measured rounds; returns (data dir, seconds)."""
        d = os.path.join(self.workdir, tag)
        t0 = time.perf_counter()
        argv = ["gen-corpus", "--seed", str(self.seed), "--out", d]
        if self.workload.lookup_per_entity:
            argv += ["--lookup-per-entity", str(self.workload.lookup_per_entity)]
        self.call("gen_corpus", argv)
        if self.workload.widen_cloze:
            widen_cloze(d)
        if not self.workload.round_train:
            self.train(d, SETUP_STEPS)
        return d, time.perf_counter() - t0

    def train(self, d, steps):
        self.call("train", ["train", "--data", d, "--out", os.path.join(d, "model.bin"),
                            "--seed", str(self.seed), "--steps", str(steps),
                            "--log-every", "0"])

    def round(self, d):
        if self.workload.round_train:
            self.train(d, TRAIN_STEPS)
        for _ in range((self.workload.blocks + 1) // 2):
            self.table_and_probes(d)
        self.call("sweep", ["sweep", "--ckpt", os.path.join(d, "model.bin"), "--data", d,
                            "--l", SWEEP_L, "--tsv", os.path.join(d, "sweep.tsv")])
        for _ in range(self.workload.blocks // 2):
            self.table_and_probes(d)
        return artifact_digest(d)

    def table_and_probes(self, d):
        ckpt, table = os.path.join(d, "model.bin"), os.path.join(d, "table.bin")
        self.call("build_table", ["build-table", "--ckpt", ckpt, "--data", d, "--out", table,
                                  "--l", f"{TABLE_L:g}"])
        self.call("probe_vanilla", ["probe", "--ckpt", ckpt, "--data", d,
                                    "--tsv", os.path.join(d, "vanilla.tsv")])
        self.call("probe_infused", ["probe", "--ckpt", ckpt, "--data", d, "--table", table,
                                    "--tsv", os.path.join(d, "infused.tsv")])


def artifact_digest(d):
    """SHA-256 of every artifact a round writes, to compare rounds."""
    out = {}
    for name in ("model.bin", "table.bin", "vanilla.tsv", "infused.tsv", "sweep.tsv"):
        with open(os.path.join(d, name), "rb") as f:
            out[name] = hashlib.sha256(f.read()).hexdigest()
    return out


def widen_cloze(d):
    """Replace cloze.tsv with every relation x template query of every entity."""
    from pelt.corpus import default_relations

    with open(os.path.join(d, "catalog.tsv"), encoding="utf-8") as f:
        rows = [line.rstrip("\n").split("\t") for line in f if line.strip()][1:]
    lines = ["query\tsubject\tanswer\trelation\tsubject_freq"]
    for eid, surface, _, freq, _, _, facts in rows:
        answers = dict(kv.split("=", 1) for kv in facts.split(";"))
        for rel in default_relations():
            for template in rel.templates:
                text = template.replace("{s}", f"[[{eid}|{surface}]]")
                text = " ".join(text.replace("{d}", "").replace("{a}", "[MASK]").split())
                lines.append(f"{text}\t{eid}\t{answers[rel.name]}\t{rel.name}\t{freq}")
    with open(os.path.join(d, "cloze.tsv"), "w", encoding="utf-8") as f:
        f.write("\n".join(lines) + "\n")


# ---------------------------------------------------------------------------
# End-to-end metrics
# ---------------------------------------------------------------------------

def query_count(d):
    return len(ref.read_lines(os.path.join(d, "cloze.tsv"))) - 1


def stored_occurrences(d):
    with open(os.path.join(d, "table.bin"), "rb") as f:
        return sum(c for c, _ in ref.read_table(f.read())["entries"].values())


def end_to_end(pipe, d, setup_seconds, peak_rss_mb):
    """Each rate is work per wall second of one CLI call, median over calls."""
    med = {stage: statistics.median(t) for stage, t in pipe.times.items() if t}
    steps = TRAIN_STEPS if pipe.workload.round_train else SETUP_STEPS
    queries = query_count(d)
    return {
        "setup_s": (statistics.median(setup_seconds), "s"),
        "train_sentences_per_s": (steps * BATCH / med["train"], "1/s"),
        "build_table_occ_per_s": (stored_occurrences(d) / med["build_table"], "1/s"),
        "vanilla_queries_per_s": (queries / med["probe_vanilla"], "1/s"),
        "infused_queries_per_s": (queries / med["probe_infused"], "1/s"),
        "sweep_queries_per_s": (SWEEP_COUNT * queries / med["sweep"], "1/s"),
        "peak_rss_mb": (peak_rss_mb, "MB"),
    }
