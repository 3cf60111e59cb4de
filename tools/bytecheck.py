"""Compare the seed-42 pipeline's artifacts of a parent commit and this tree.

Usage:
    python tools/bytecheck.py PARENT [--expect-change NAME,...]

PARENT is any git revision. Its tree is checked out into a temporary
``git worktree`` (removed afterwards); the tree this script lives in is run
as it stands, uncommitted edits included. Each tree runs the same pipeline,
once at ``OPENBLAS_NUM_THREADS=1`` and once at 2, in a fresh interpreter
with paths relative to its output directory, so printed paths match:

    gen-corpus --seed 42, train --seed 42 --steps 300, build-table,
    probe (vanilla, infused, infused --restrict), sweep --l 1..10,
    gradcheck, oracle

It compares, at each thread count, the ``gen-corpus`` data files,
``model.bin``, ``table.bin``, every TSV and every command's stdout. Exit
status: 0 when only names given with ``--expect-change`` differ, 1 when
another name differs, 2 when a command fails or the usage is wrong.
"""

import argparse
import os
import shutil
import subprocess
import sys
import tempfile

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
THREADS = ("1", "2")
DATA = ("vocab.txt", "catalog.tsv", "train.txt", "lookup.txt", "cloze.tsv")
_MODEL = ["--ckpt", "model.bin", "--data", "data"]
PIPELINE = (  # (stdout name, argv) of each command, in run order
    ("gen-corpus.out", ["gen-corpus", "--seed", "42", "--out", "data"]),
    ("train.out", ["train", "--data", "data", "--out", "model.bin", "--seed", "42",
                   "--steps", "300", "--log-every", "0"]),
    ("build-table.out", ["build-table", *_MODEL, "--out", "table.bin"]),
    ("vanilla.out", ["probe", *_MODEL, "--tsv", "vanilla.tsv"]),
    ("infused.out", ["probe", *_MODEL, "--table", "table.bin", "--tsv", "infused.tsv"]),
    ("restrict.out", ["probe", *_MODEL, "--table", "table.bin", "--restrict",
                      "--tsv", "restrict.tsv"]),
    ("sweep.out", ["sweep", *_MODEL, "--l", "1..10", "--tsv", "sweep.tsv"]),
    ("gradcheck.out", ["gradcheck"]),
    ("oracle.out", ["oracle"]),
)
NAMES = ([f"data/{name}" for name in DATA] + ["model.bin", "table.bin"]
         + [f"{probe}.tsv" for probe in ("vanilla", "infused", "restrict", "sweep")]
         + [out for out, _ in PIPELINE])


def run_tree(tree, out, threads):
    """Run the pipeline from ``tree``'s sources in ``out``; {name: bytes}."""
    os.makedirs(out)
    env = dict(os.environ, OPENBLAS_NUM_THREADS=threads, PYTHONPATH=os.path.join(tree, "src"))
    for name, argv in PIPELINE:
        run = subprocess.run([sys.executable, "-m", "pelt.cli", *argv], cwd=out, env=env,
                             capture_output=True, timeout=900)
        if run.returncode != 0:
            print(f"bytecheck: {tree}: {' '.join(argv)} exited {run.returncode}: "
                  f"{run.stderr.decode(errors='replace').strip()}", file=sys.stderr)
            raise SystemExit(2)
        with open(os.path.join(out, name), "wb") as f:
            f.write(run.stdout)
    artifacts = {}
    for name in NAMES:
        with open(os.path.join(out, name), "rb") as f:
            artifacts[name] = f.read()
    return artifacts


def describe(name, a, b):
    """How two versions of an artifact differ: by byte for a .bin file,
    else by line."""
    if a == b:
        return "same"
    unit = "bytes" if name.endswith(".bin") else "lines"
    if unit == "lines":
        a, b = a.split(b"\n"), b.split(b"\n")
    if len(a) != len(b):
        return f"differs ({len(a)} -> {len(b)} {unit})"
    return f"differs ({sum(x != y for x, y in zip(a, b))} {unit})"


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("parent", help="git revision to compare against")
    parser.add_argument("--expect-change", default="",
                        help="comma-separated artifact names allowed to differ")
    args = parser.parse_args(argv)
    expected = {n for n in args.expect_change.split(",") if n}
    if expected - set(NAMES):
        parser.error(f"unknown artifact names {sorted(expected - set(NAMES))}; "
                     f"known: {','.join(NAMES)}")
    rev = subprocess.run(["git", "-C", ROOT, "rev-parse", "--verify", args.parent + "^{commit}"],
                         capture_output=True, text=True)
    if rev.returncode != 0:
        parser.error(f"not a commit: {args.parent}")
    parent_sha = rev.stdout.strip()

    scratch = tempfile.mkdtemp(prefix="bytecheck-")
    worktree = os.path.join(scratch, "parent")
    try:
        subprocess.run(["git", "-C", ROOT, "worktree", "add", "--detach", "--quiet", worktree,
                        parent_sha], check=True)
        results = {t: {tree: run_tree(path, os.path.join(scratch, f"{tree}-{t}"), t)
                       for tree, path in (("parent", worktree), ("change", ROOT))}
                   for t in THREADS}
    finally:
        subprocess.run(["git", "-C", ROOT, "worktree", "remove", "--force", worktree],
                       capture_output=True)
        subprocess.run(["git", "-C", ROOT, "worktree", "prune"], capture_output=True)
        shutil.rmtree(scratch, ignore_errors=True)

    print(f"bytecheck {parent_sha[:12]} -> this tree")
    width = max(map(len, NAMES))

    def row(first, cells, note=""):
        print((f"{first:<{width}}  " + "  ".join(f"{c:<26}" for c in cells) + note).rstrip())

    row("artifact", [f"threads={t}" for t in THREADS])
    unexpected = []
    for name in NAMES:
        cells = [describe(name, results[t]["parent"][name], results[t]["change"][name])
                 for t in THREADS]
        moved = any(c != "same" for c in cells)
        note = " (expected)" if name in expected else ""
        if moved and name not in expected:
            unexpected.append(name)
            note = " UNEXPECTED"
        row(name, cells, note)
    if unexpected:
        print(f"FAIL: {len(unexpected)} unexpected difference(s): {','.join(unexpected)}")
        return 1
    print("OK: no difference outside --expect-change")
    return 0


if __name__ == "__main__":
    sys.exit(main())
