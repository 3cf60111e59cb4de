"""pelt benchmark: one workload, timed end to end or traced per layer.

    python3 bench/run.py --workload {train,build-table,probe} --seed N \
        --seconds S --trace {0,1}

Run from the root of a checkout: the program is imported from ./src. The
last line of standard output is one JSON object with the keys correct,
attempted, failed and metrics; the lines before it give the environment
and every metric with its unit. A record of the run, with the environment,
the per-call samples and (traced) the per-stage span totals, is written to
bench/results/. Scratch data lives in bench/work/ and is removed on exit.
See bench/README.md for the workloads and what each metric means.
"""

import argparse
import ctypes
import importlib
import json
import os
import platform
import resource
import shutil
import statistics
import sys
import time

import checks
import pipeline as pl
from tracer import Tracer

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def load_program():
    """Import pelt from this checkout's src/, and nothing installed elsewhere."""
    src = os.path.join(ROOT, "src")
    if not os.path.isfile(os.path.join(src, "pelt", "cli.py")):
        raise ImportError(f"no pelt sources under {src}")
    sys.path.insert(0, src)
    modules = {}
    for name in ("cli", "checkpoint", "corpus", "infuse", "model", "table", "vocab"):
        modules[name] = importlib.import_module(f"pelt.{name}")
        if not os.path.abspath(modules[name].__file__).startswith(src + os.sep):
            raise ImportError(f"pelt.{name} was imported from {modules[name].__file__}")
    return argparse.Namespace(**modules)


def blas_threads():
    """The BLAS thread count as the loaded OpenBLAS reports it; None if unknown."""
    with open("/proc/self/maps", encoding="utf-8") as f:
        libs = {line.split()[-1] for line in f if "openblas" in line.lower()}
    for path in sorted(libs):
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_", "scipy_openblas_get_num_threads",
                       "openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype, fn.argtypes = ctypes.c_int, []
                return fn()
    return None


def environment():
    import numpy as np
    import scipy

    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    cpu = None
    with open("/proc/cpuinfo", encoding="utf-8") as f:
        for line in f:
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": blas.get("name"),
        "blas_version": blas.get("version"),
        "blas_threads": blas_threads(),
        "blas_env": {k: os.environ.get(k) for k in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS")},
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "cpu_model": cpu,
    }


def peak_rss_mb():
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _pct(values, q):
    values = sorted(values)
    return values[min(len(values) - 1, int(q * len(values)))]


def per_layer(tracer, passes, plain, traced):
    """Per-layer metrics of a traced run: per training step, per pass
    (set-up plus one round), per call, or per stage call."""
    steps, _ = tracer.total("optim.Adam.step", ("train",))
    if not steps:
        raise RuntimeError("traced run made no training step")

    def train_ms(name):
        return tracer.total(name, ("train",))[1] * 1e3 / steps

    m = {}
    ops = [n for n in tracer.names() if n.startswith("tensor.") and n != "tensor.Tensor.backward"]
    m["tensor.op_calls_per_step"] = (sum(tracer.total(n, ("train",))[0] for n in ops) / steps,
                                     "count")
    for op in ("matmul", "gelu", "layer_norm", "softmax", "softmax_cross_entropy",
               "gather_rows", "add"):
        m[f"tensor.{op}_ms_per_step"] = (train_ms(f"tensor.{op}"), "ms")
    m["tensor.backward_ms_per_step"] = (train_ms("tensor.Tensor.backward"), "ms")
    m["model.mlm_loss_ms_per_step"] = (train_ms("model.mlm_loss"), "ms")
    m["optim.adam_step_ms_per_step"] = (train_ms("optim.Adam.step"), "ms")
    m["model.step_other_ms"] = (tracer.step_seconds * 1e3 / steps - train_ms("model.mlm_loss")
                                - train_ms("tensor.Tensor.backward")
                                - train_ms("optim.Adam.step"), "ms")

    for name in ("corpus.parse_corpus", "corpus.index_occurrences", "model.encode_batch",
                 "model.output_repr_all", "table.collect_masked_outputs", "table.sum_direction",
                 "checkpoint.fingerprint", "table.verify_table", "infuse.augment",
                 "infuse.encode_augmented", "model.encode", "model.output_repr",
                 "model.rank_tokens", "checkpoint.load_checkpoint",
                 "checkpoint.save_checkpoint", "table.save_table", "table.load_table"):
        calls, seconds = tracer.total(name)
        m[f"{name}_calls"] = (calls / passes, "count")
        m[f"{name}_ms"] = (seconds * 1e3 / passes, "ms")
    m["corpus.sentences_scanned"] = (tracer.total("corpus.sentences_scanned")[0] / passes,
                                     "count")
    for name, label in (("model.predict_topk", "probe.predict_topk"),
                        ("infuse.cloze_predict_infused", "infuse.cloze_predict_infused")):
        durations = tracer.durations[name]
        m[f"{label}_ms_p50"] = (statistics.median(durations) * 1e3, "ms")
        m[f"{label}_ms_p99"] = (_pct(durations, 0.99) * 1e3, "ms")

    plain_total = traced_total = 0.0
    for stage in pl.STAGES:
        if traced.times[stage]:
            m[f"cli.{stage}_ms"] = (statistics.median(traced.times[stage]) * 1e3, "ms")
            if plain.times[stage]:
                plain_total += statistics.median(plain.times[stage])
                traced_total += statistics.median(traced.times[stage])
    m["trace.overhead_pct"] = (100.0 * (traced_total / plain_total - 1.0), "%")
    return m


def run_plain(program, workload, seed, seconds, workdir):
    """Set up SETUP_REPEATS times, then run whole rounds for ``seconds``."""
    pipe = pl.Pipeline(program.cli, workload, seed, workdir)
    setup_seconds = []
    for i in range(pl.SETUP_REPEATS):
        if i:
            shutil.rmtree(d)
        d, spent = pipe.setup(f"setup{i}")
        setup_seconds.append(spent)
    digests = []
    start = time.perf_counter()
    while not digests or time.perf_counter() - start < seconds:
        digests.append(pipe.round(d))
    metrics = pl.end_to_end(pipe, d, setup_seconds, peak_rss_mb())
    return [pipe], d, digests, metrics, {"setup_seconds": setup_seconds}


def run_traced(program, workload, seed, seconds, workdir):
    """One untraced pass (set-up and round), then traced passes for ``seconds``."""
    plain = pl.Pipeline(program.cli, workload, seed, workdir)
    d, _ = plain.setup("plain")
    digests = [plain.round(d)]
    tracer = Tracer()
    traced = pl.Pipeline(program.cli, workload, seed, workdir, tracer)
    passes = 0
    tracer.install()
    try:
        start = time.perf_counter()
        while not passes or time.perf_counter() - start < seconds:
            shutil.rmtree(d)
            d, _ = traced.setup(f"traced{passes}")
            digests.append(traced.round(d))
            passes += 1
    finally:
        tracer.remove()
    metrics = per_layer(tracer, passes, plain, traced)
    return [plain, traced], d, digests, metrics, {"passes": passes, "spans": tracer.by_stage()}


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    try:
        program = load_program()
    except ImportError as exc:
        print(f"error: cannot load the program: {exc}", file=sys.stderr)
        return 1
    if args.workload not in pl.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; "
              f"choose from {', '.join(pl.WORKLOADS)}", file=sys.stderr)
        return 2
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as f:
        spec = json.load(f)
    wanted = [m["name"] for m in spec["per_layer" if args.trace else "end_to_end"]]

    env = environment()
    print("# env " + json.dumps(env, sort_keys=True))
    workdir = os.path.join(HERE, "work", f"{args.workload}-{args.seed}-{os.getpid()}")
    measure = run_traced if args.trace else run_plain
    try:
        pipes, d, digests, metrics, record = measure(
            program, pl.WORKLOADS[args.workload], args.seed, args.seconds, workdir)
        errors = checks.run_all(pipes[-1], d, digests, program, args.seed)
    except pl.StageFailed as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    missing = [name for name in wanted if name not in metrics]
    if missing:
        print(f"error: no value for {', '.join(missing)}", file=sys.stderr)
        return 1

    for message in errors:
        print(f"# check failed: {message}")
    for name in wanted:
        value, unit = metrics[name]
        print(f"# {name} {value:.6g} {unit}")
    result = {
        "correct": not errors,
        "attempted": sum(p.attempted for p in pipes),
        "failed": 0,  # a failed call ends the run with exit 1 before any result
        "metrics": {name: {"value": metrics[name][0], "unit": metrics[name][1]}
                    for name in wanted},
    }
    record.update(workload=args.workload, seed=args.seed, seconds=args.seconds,
                  trace=args.trace, env=env, errors=errors, result=result,
                  all_metrics={name: value for name, (value, _) in metrics.items()},
                  stage_seconds={f"{i}:{stage}": t for i, p in enumerate(pipes)
                                 for stage, t in p.times.items() if t})
    out = os.path.join(HERE, "results")
    os.makedirs(out, exist_ok=True)
    stamp = time.strftime("%Y%m%dT%H%M%S")
    with open(os.path.join(out, f"{args.workload}-s{args.seed}-t{args.trace}-{stamp}.json"),
              "w", encoding="utf-8") as f:
        json.dump(record, f, indent=1, sort_keys=True)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
