"""Tests of the benchmark itself: seeded inputs, the tracer's transparency and
clean-up, and agreement of the printed metrics with BENCHMARK.json.

Run from the repository root with ``python3 -m pytest perfbench -q``.
"""

import json
import os
import shutil
import sys
import tempfile
import time

import numpy as np
import pytest

import run
import spans
import workloads as wl

wm = run._import_weakmeas()

IN_PROCESS = [name for name, w in wl.WORKLOADS.items() if w.in_process]


@pytest.fixture
def scratch():
    """Scratch directory inside the checkout, where the benchmark writes."""
    os.makedirs(run.OUT_DIR, exist_ok=True)
    path = tempfile.mkdtemp(prefix="test-", dir=run.OUT_DIR)
    yield path
    shutil.rmtree(path)


def _spec():
    with open(os.path.join(run.ROOT, "BENCHMARK.json")) as fh:
        return json.load(fh)


@pytest.mark.parametrize("name", sorted(wl.WORKLOADS))
def test_same_seed_same_inputs_other_seed_other_inputs(name):
    def inputs(seed):
        workload = wl.WORKLOADS[name](seed)
        return [json.dumps(workload.inputs(k), sort_keys=True) for k in range(12)]

    assert inputs(7) == inputs(7)
    assert inputs(7) != inputs(8)
    assert len(set(inputs(7))) == 12


def test_workload_streams_are_independent_on_one_seed():
    a = wl.Draws(5, 4, "trace_sweep")(0)
    b = wl.Draws(5, 4, "pointer_sim")(0)
    assert not np.array_equal(a, b)


def _bindings():
    """Identity of every object the tracer may replace."""
    seen = {}
    for mod_name in ("weakmeas",) + tuple(f"weakmeas.{m}" for m in spans.MODULES):
        mod = sys.modules[mod_name]
        for attr, value in vars(mod).items():
            seen[(mod_name, attr)] = id(value)
            if isinstance(value, dict):
                for key, item in value.items():
                    seen[(mod_name, attr, key)] = id(item)
            if isinstance(value, type) and value.__module__.startswith("weakmeas"):
                for key, item in vars(value).items():
                    seen[(mod_name, attr, "class", key)] = id(item)
    return seen


def test_tracer_restores_every_wrapped_name():
    before = _bindings()
    original = wm.weakvalues.weak_value
    tracer = spans.Tracer()
    with tracer:
        during = _bindings()
        assert wm.weakvalues.weak_value is not original
        assert wm.weak_value is wm.weakvalues.weak_value
        assert wm.fockspace.wavefunction_table is wm.quasiprob.wavefunction_table
        workload = wl.TraceSweep(1)
        workload.run(wm, workload.warmup)
    changed = {key for key in before if during.get(key) != before[key]}
    # functions, cross-module bindings, the CLI's profile table and class entries
    assert ("weakmeas.quasiprob", "wavefunction_table") in changed
    assert ("weakmeas.cli", "_PROFILE_BUILDERS", "H") in changed
    assert ("weakmeas.fockspace", "QuadratureGrid", "class", "gauss_legendre") in changed
    assert ("weakmeas.povm", "DetectorKernel", "class", "__call__") in changed
    assert _bindings() == before
    names = {rec[0] for rec in tracer.spans}
    assert {"fockspace.gauss_legendre", "weakvalues.weak_value",
            "povm.kernel_eval"} <= names


@pytest.mark.parametrize("name", IN_PROCESS)
def test_traced_results_are_bit_identical(name):
    workload = wl.WORKLOADS[name](3)
    for k in range(4):
        params = workload.inputs(k)
        plain = run.run_in_process(wm, workload, k, params)
        tracer = spans.Tracer()
        with tracer:
            traced = run.run_in_process(wm, workload, k, params, check=False)
        assert plain.digest is not None and traced.digest == plain.digest
        assert tracer.spans


def test_traced_cli_output_is_bit_identical(scratch):
    workload = wl.CliCold(3)
    k = wl.CLI_MIX.index("simulate qubit")
    params = workload.inputs(k)
    plain = run.run_cli_op(workload, k, params, scratch)
    path = os.path.join(scratch, "spans.jsonl")
    traced = run.run_cli_op(workload, k, params, scratch, path, check=False)
    assert plain.error is None
    assert traced.digest == plain.digest
    names = {rec[0] for rec in spans.load_spans(path)}
    assert {"cli.import", "cli.main", "vonneumann.simulate_qubit_pointer"} <= names


def test_self_time_subtracts_direct_children():
    recs = [["a", 0.0, 10.0, -1, 0, None], ["b", 1.0, 4.0, 0, 0, {"cells": 2}],
            ["c", 2.0, 3.0, 1, 0, None], ["b", 5.0, 6.0, 0, 0, {"cells": 3}]]
    summary = spans.summarize(recs)
    assert summary["a"]["self_s"] == pytest.approx(6.0)
    assert summary["b"]["self_s"] == pytest.approx(3.0)
    assert summary["b"]["cells"] == 5 and summary["b"]["calls"] == 2
    assert spans.top_level_seconds(recs) == {0: 10.0}


@pytest.mark.parametrize("trace, section", [(0, "end_to_end"), (1, "per_layer")])
@pytest.mark.parametrize("name", ["pointer_sim", "cli_cold"])
def test_printed_metrics_match_benchmark_json(capsys, name, trace, section):
    assert run.main(["--workload", name, "--seed", "2", "--seconds", "0.2",
                     "--trace", str(trace)]) == 0
    out = capsys.readouterr().out.strip().splitlines()
    result = json.loads(out[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["attempted"] >= 1
    spec = {m["name"]: m["unit"] for m in _spec()[section]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == spec
    if trace == 0:
        assert all(v["value"] > 0 for v in result["metrics"].values())


def test_benchmark_json_names_its_workloads():
    spec = _spec()
    assert [w["name"] for w in spec["workloads"]] == list(wl.WORKLOADS)
    names = [m["name"] for m in spec["end_to_end"] + spec["per_layer"]]
    assert len(names) == len(set(names))


@pytest.mark.parametrize("name", sorted(wl.WORKLOADS))
def test_run_length_is_fixed_by_seconds_not_by_the_clock(name):
    workload = wl.WORKLOADS[name](1)
    rounds = run.rounds_for(workload, 20, traced=False)
    assert 1 <= run.rounds_for(workload, 20, traced=True) <= rounds
    assert run.rounds_for(workload, 0.2, traced=False) == 1

    def slow_op(k, params):
        time.sleep(0.001 * (k % 3))
        return k

    assert run.closed_loop(slow_op, workload, 2) == list(range(2 * workload.ROUND))
