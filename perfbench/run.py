"""weakmeas benchmark: one workload, one closed-loop client, one JSON result line.

Usage (from the repository root):

    python3 perfbench/run.py --workload trace_sweep --seed 1 --seconds 20 --trace 0

``--trace 0`` measures the end-to-end metrics with tracing off.  ``--trace 1``
runs every op twice, untraced and then with every weakmeas layer wrapped by
``spans.Tracer``, requires bit-identical results, and reports the per-layer
metrics derived from the spans.  The last
stdout line is ``{"correct", "attempted", "failed", "metrics"}``; the line
before it holds the run's details (environment, sample counts, quartiles,
failure reasons).  Spans are written under ``.perfbench_out/`` in the
repository root.

The library is imported from ``src/`` of the checkout the script sits in, so
the benchmark measures that source tree without installing it.
"""

from __future__ import annotations

import argparse
import collections
import dataclasses
import json
import os
import platform
import resource
import statistics
import shutil
import subprocess
import sys
import tempfile
import time

# One closed-loop client gets one core: BLAS threads would be extra threads
# beside the client, and on a shared 2-core machine they stall at random
# (a 15 ms eigvalsh was seen to take 0.8 s).  Pinned before numpy loads;
# child interpreters inherit it, and the run records the count it got.
os.environ["OPENBLAS_NUM_THREADS"] = "1"

import numpy as np  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT_DIR = os.path.join(ROOT, ".perfbench_out")

import spans as spanlib  # noqa: E402
import workloads as wl  # noqa: E402

SETUP_PROBES = 15  # fresh interpreters timed per run; setup_s is their median
# highest latency percentile with at least ten samples beyond it at the
# committed run length of 20 s
TAIL_PCT = {"cli_cold": 65, "trace_sweep": 90, "distribution_grid": 95, "pointer_sim": 85}

CHECK_RAISED = "check_"  # reason prefix of a check that could not run


def _import_weakmeas():
    """The weakmeas package of this checkout's ``src``, never an installed one."""
    src = os.path.join(ROOT, "src")
    sys.path.insert(0, src)
    import weakmeas
    import weakmeas.cli  # noqa: F401  (binds every submodule on the package)
    if os.path.dirname(os.path.dirname(os.path.abspath(weakmeas.__file__))) != src:
        raise ImportError(f"weakmeas was imported from {weakmeas.__file__}, not {src}")
    return weakmeas


def _quartiles(values) -> dict:
    values = sorted(values)
    if len(values) >= 2:
        q1, med, q3 = statistics.quantiles(values, n=4)
    else:
        q1 = med = q3 = values[0]
    return {"median": med, "q1": q1, "q3": q3, "iqr": q3 - q1, "n": len(values)}


def environment(seed: int) -> dict:
    """What a number depends on besides the code: interpreter, numpy, BLAS,
    thread and core counts, and the source revision when one is recorded."""
    info = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {"git_sha": _git_sha(), "seed": seed, "python": platform.python_version(),
            "numpy": np.__version__,
            "blas": {k: info.get(k) for k in ("name", "version", "openblas configuration")},
            "blas_threads": _blas_threads(),
            "nproc": os.cpu_count(), "affinity_cpus": len(os.sched_getaffinity(0)),
            "platform": platform.platform()}


def _git_sha():
    head = os.path.join(ROOT, ".git", "HEAD")
    if not os.path.exists(head):
        return None  # a plain source export carries no revision
    with open(head) as fh:
        ref = fh.read().strip()
    if not ref.startswith("ref: "):
        return ref
    path = os.path.join(ROOT, ".git", *ref[5:].split("/"))
    if os.path.exists(path):
        with open(path) as fh:
            return fh.read().strip()
    packed = os.path.join(ROOT, ".git", "packed-refs")
    if os.path.exists(packed):
        with open(packed) as fh:
            for line in fh:
                if line.rstrip().endswith(ref[5:]):
                    return line.split()[0]
    return None


def _blas_threads():
    """Thread count OpenBLAS runs with, read from the loaded library itself."""
    import ctypes
    import glob
    libs = glob.glob(os.path.join(os.path.dirname(np.__file__), os.pardir,
                                  "numpy.libs", "libscipy_openblas*"))
    for path in libs:
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype, fn.argtypes = ctypes.c_int, []
                return int(fn())
    return os.environ.get("OPENBLAS_NUM_THREADS") or os.environ.get("OMP_NUM_THREADS")


# ---------------------------------------------------------------------------
# ops

@dataclasses.dataclass(slots=True)
class Op:
    k: int
    params: dict
    seconds: float
    error: str | None  # None when the op passed its check
    digest: str | None  # of the result; None when the op raised
    out_bytes: int = 0


def _fail_reason(exc: BaseException) -> str:
    lines = str(exc).splitlines()
    return f"raise_{type(exc).__name__}: {lines[0][:160] if lines else ''}"


def _checked(check, *args):
    try:
        return check(*args)
    except Exception as exc:  # recorded; the run then reports correct: false
        return CHECK_RAISED + _fail_reason(exc)


def run_in_process(wm, workload, k: int, params: dict, check: bool = True) -> Op:
    """One library op: time the call, then check it by its independent route."""
    t0 = time.perf_counter()
    try:
        result = workload.run(wm, params)
    except Exception as exc:  # a raising op is a failed op, not a failed run
        return Op(k, params, time.perf_counter() - t0, _fail_reason(exc), None)
    seconds = time.perf_counter() - t0
    error = _checked(workload.check, wm, params, result) if check else None
    return Op(k, params, seconds, error, wl.digest(result))


def run_cli_op(workload, k: int, params: dict, scratch: str, spans_path: str | None = None,
               check: bool = True) -> Op:
    """One cli_cold op in a fresh interpreter; traced when ``spans_path`` is set."""
    out_path = os.path.join(scratch, "output.csv")
    argv = workload.argv(params, out_path)
    launcher = None
    if spans_path is not None:
        launcher = [os.path.join(HERE, "cli_child.py"), spans_path, str(k), "--"]
    t0 = time.perf_counter()
    result = wl.run_cli(argv, ROOT, launcher)
    seconds = time.perf_counter() - t0
    result["rows"], size = wl.read_output(out_path)
    error = _checked(workload.check, None, params, result) if check else None
    out_bytes = len(result["stdout"].encode()) + size
    return Op(k, params, seconds, error,
              wl.digest([result["returncode"], result["stdout"], result["rows"]]), out_bytes)


def closed_loop(do_op, workload, rounds: int) -> list:
    """Run ``rounds`` whole rounds of ops back to back, each op starting when
    the last returned."""
    return [do_op(k, workload.inputs(k)) for k in range(rounds * workload.ROUND)]


def rounds_for(workload, seconds: float, traced: bool) -> int:
    """Whole rounds that fill ``seconds`` on the reference machine.  A traced
    run runs each op twice, so it makes half as many."""
    return max(1, round(seconds / (workload.ROUND_SECONDS * (2 if traced else 1))))


# ---------------------------------------------------------------------------
# set-up

def setup_probe(workload_name: str, seed: int) -> None:
    """Child side of a set-up sample: import, make inputs, warm up, say ready."""
    wm = _import_weakmeas()
    workload = wl.WORKLOADS[workload_name](seed)
    workload.inputs(0)
    if workload.in_process:
        workload.run(wm, workload.warmup)
    sys.stdout.write("ready\n")
    sys.stdout.flush()


def time_setup(workload_name: str, seed: int) -> list:
    """Launch-to-ready wall time of fresh interpreters, one at a time."""
    samples = []
    cmd = [sys.executable, os.path.abspath(__file__), "--setup-probe",
           "--workload", workload_name, "--seed", str(seed)]
    for _ in range(SETUP_PROBES):
        t0 = time.perf_counter()
        with subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True) as proc:
            line = proc.stdout.readline()
            samples.append(time.perf_counter() - t0)
            proc.stdout.read()
            code = proc.wait(timeout=60)
        if line.strip() != "ready" or code != 0:
            raise RuntimeError(f"set-up probe failed (exit {code})")
    return samples


# ---------------------------------------------------------------------------
# metrics

def _with_units(values: dict, section: list) -> dict:
    """Metric values keyed and unit-tagged as a BENCHMARK.json section lists them."""
    listed = {m["name"] for m in section}
    if set(values) != listed:
        raise RuntimeError(f"metrics differ from BENCHMARK.json: {sorted(set(values) ^ listed)}")
    return {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in section}


def end_to_end(workload, ops: list, setup: list, peak_rss_mb: float) -> tuple:
    lat = np.array([op.seconds for op in ops]) * 1e3
    passed = sum(op.error is None for op in ops)
    pct = TAIL_PCT[workload.name]
    tail = float(np.percentile(lat, pct))
    metrics = {"setup_s": statistics.median(setup),
               "ops_per_s": passed / (lat.sum() / 1e3),
               "op_p50_ms": float(np.median(lat)),
               "op_tail_ms": tail,
               "pass_frac": passed / len(ops),
               "peak_rss_mb": peak_rss_mb}
    rounds = collections.defaultdict(lambda: [0, 0.0])
    for op in ops:
        rounds[op.k // workload.ROUND][0] += op.error is None
        rounds[op.k // workload.ROUND][1] += op.seconds
    detail = {"latency_ms": _quartiles(lat.tolist()), "setup_s": _quartiles(setup),
              "ops_per_s_by_round": _quartiles([n / t for n, t in rounds.values()]),
              "op_tail": {"percentile": pct, "samples_beyond": int(np.sum(lat > tail)),
                          "samples": len(lat)},
              "timed_op_seconds": float(lat.sum() / 1e3)}
    return metrics, detail


def per_layer(spans: list, ops: list, untraced: list, names: list, in_process: bool) -> tuple:
    """Per-layer metrics per traced op, from the spans of the traced ops.
    Layers the workload does not reach read 0.  ``in_process`` says whether
    all ops shared one process, which is what a rule built earlier can be
    reused within; otherwise every op is its own process."""
    n = len(ops)
    summary = spanlib.summarize(spans)
    values = dict.fromkeys(names, 0.0)

    def put(key, value):
        if key not in values:
            raise KeyError(f"{key} is not a per_layer metric of BENCHMARK.json")
        values[key] = value

    for name, s in summary.items():
        if name == "cli.import":
            put("cli.import_s", s["total_s"] / n)
            continue
        for quantity in ("calls", "self_s", "nodes", "cells", "points", "postselections"):
            key = f"{name}.{quantity}"
            if key in values and quantity in s:
                put(key, s[quantity] / n)
    if "fockspace.gauss_legendre" in summary:
        seen, repeats, calls = set(), 0, 0
        for rec in spans:
            if rec[0] == "fockspace.gauss_legendre":
                key = rec[5]["nodes"] if in_process else (rec[4], rec[5]["nodes"])
                repeats += key in seen
                seen.add(key)
                calls += 1
        put("fockspace.gauss_legendre.repeat_frac", repeats / calls)
    s = summary.get("weakvalues.negativity_probability")
    if s:
        put("weakvalues.negativity_probability.quadrature_frac", s["quadrature"] / s["calls"])
    s = summary.get("quasiprob.weak_value_from_distribution")
    if s:
        put("quasiprob.weak_value_from_distribution.useful_cell_frac", s["useful"] / s["built"])
    wall = sum(op.seconds for op in ops)
    covered = spanlib.top_level_seconds(spans)
    put("bench.uncovered_frac", sum(op.seconds - covered.get(op.k, 0.0) for op in ops) / wall)
    put("bench.trace_overhead_frac", wall / sum(op.seconds for op in untraced) - 1.0)
    if "cli.main" in summary:
        main_total = summary["cli.main"]["total_s"]
        import_total = summary["cli.import"]["total_s"]
        put("cli.output_bytes", sum(op.out_bytes for op in ops) / n)
        put("cli.process_overhead_s", (wall - main_total - import_total) / n)
    detail = {"traced_ops": n, "traced_seconds": wall,
              "untraced_seconds": sum(op.seconds for op in untraced),
              "self_share": {name: s["self_s"] / wall for name, s in sorted(summary.items())}}
    return values, detail


def _failures(ops: list) -> dict:
    tags = collections.Counter(op.error.split(":")[0] for op in ops if op.error)
    examples = [op.error for op in ops if op.error][:5]
    return {"by_reason": dict(tags), "examples": examples}


def _benchmark_spec() -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        return json.load(fh)


# ---------------------------------------------------------------------------

def _warm_up(wm, workload) -> None:
    if workload.in_process:
        workload.run(wm, workload.warmup)
    else:
        # compiles the bytecode of a fresh checkout before anything is timed
        wl.run_cli(["--help"], ROOT)


def measure(wm, workload, args, scratch: str) -> tuple:
    """Untraced closed-loop run, then set-up samples in fresh interpreters."""
    _warm_up(wm, workload)
    if workload.in_process:
        ops = closed_loop(lambda k, p: run_in_process(wm, workload, k, p),
                          workload, rounds_for(workload, args.seconds, False))
        usage = resource.getrusage(resource.RUSAGE_SELF)
    else:
        ops = closed_loop(lambda k, p: run_cli_op(workload, k, p, scratch),
                          workload, rounds_for(workload, args.seconds, False))
        usage = resource.getrusage(resource.RUSAGE_CHILDREN)
    # ru_maxrss is in KiB on Linux; for children it is the largest one
    metrics, stats = end_to_end(workload, ops, time_setup(workload.name, args.seed),
                                usage.ru_maxrss / 1024.0)
    return ops, metrics, stats


def measure_traced(wm, workload, args, scratch: str) -> tuple:
    """Each op runs untraced, then again with the layers wrapped.  Pairing
    the two runs of an op keeps machine noise out of the overhead ratio; the
    untraced run's check decides whether the op failed."""
    _warm_up(wm, workload)
    tracer = spanlib.Tracer()
    spans: list = []

    def paired(k, params):
        if workload.in_process:
            plain = run_in_process(wm, workload, k, params)
            tracer.op_id = k
            with tracer:
                traced = run_in_process(wm, workload, k, params, check=False)
        else:
            plain = run_cli_op(workload, k, params, scratch)
            path = os.path.join(scratch, f"op{k}.jsonl")
            traced = run_cli_op(workload, k, params, scratch, path, check=False)
            spans.extend(spanlib.load_spans(path, offset=len(spans)))
        return plain, traced

    pairs = closed_loop(paired, workload, rounds_for(workload, args.seconds, True))
    return ([p for p, _ in pairs], [t for _, t in pairs],
            tracer.spans if workload.in_process else spans)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(wl.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    if args.setup_probe:
        setup_probe(args.workload, args.seed)
        return 0

    spec = _benchmark_spec()
    try:
        wm = _import_weakmeas()
    except ImportError as exc:
        print(f"perfbench: cannot import weakmeas from {os.path.join(ROOT, 'src')}: {exc}",
              file=sys.stderr)
        return 2
    workload = wl.WORKLOADS[args.workload](args.seed)
    os.makedirs(OUT_DIR, exist_ok=True)
    scratch = tempfile.mkdtemp(prefix=f"{args.workload}-", dir=OUT_DIR)
    try:
        detail = {"workload": args.workload, "trace": args.trace,
                  "env": environment(args.seed)}
        mismatched = []
        if args.trace == 0:
            ops, metrics, stats = measure(wm, workload, args, scratch)
            section = spec["end_to_end"]
        else:
            ops, traced, spans = measure_traced(wm, workload, args, scratch)
            mismatched = [t.k for op, t in zip(ops, traced) if op.digest != t.digest]
            section = spec["per_layer"]
            metrics, stats = per_layer(spans, traced, ops, [m["name"] for m in section],
                                       workload.in_process)
            stats.update(bit_identical=not mismatched, mismatched_ops=mismatched[:10])
            spanlib.dump(spans, os.path.join(OUT_DIR, f"spans-{args.workload}-{args.seed}.jsonl"))
    finally:
        shutil.rmtree(scratch)
    check_raised = any(op.error and op.error.startswith(CHECK_RAISED) for op in ops)
    correct = not mismatched and not check_raised
    detail.update(stats)
    metrics = _with_units(metrics, section)
    detail["ops"] = len(ops)
    detail["failures"] = _failures(ops)
    print(json.dumps({"detail": detail}))
    print(json.dumps({"correct": correct, "attempted": len(ops),
                      "failed": sum(op.error is not None for op in ops),
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
