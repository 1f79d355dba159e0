"""Tests of the benchmark itself: its checks catch perturbed outputs, its
tracer leaves robkf as it found it, and it prints the metrics that
BENCHMARK.json declares.

    PYTHONPATH=src python3 -m pytest -q bench/tests
"""
import json
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
import scipy.linalg

import robkf
import checks
import run
import workloads
from spans import Tracer

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent


def one_pass(workload, ops=None):
    return {op.name: op.fn() for op in (ops or workload.ops())}


@pytest.fixture(scope="module")
def stream(tmp_path_factory):
    w = workloads.FilterStream()
    w.build(0, tmp_path_factory.mktemp("stream"))
    ops = [op for op in w.ops() if op.name in ("standard", "robust.tau0.5", "risk_sensitive.tau1")]
    return w, one_pass(w, ops)


def check_run(w, name, ft, **overrides):
    kind, params = {n: (k, p) for n, k, p in workloads.FILTERS}[name]
    arrays = {f: getattr(ft, f).copy() for f in ("estimates", "P_seq", "V_seq", "theta_seq")}
    arrays.update(overrides)
    checks.check_trajectory(workloads.EXAMPLE, kind, w.y, label=name, **arrays, **params)
    return arrays


@pytest.mark.parametrize("name", ["standard", "robust.tau0.5", "risk_sensitive.tau1"])
def test_trajectory_check_rejects_a_nudged_P(stream, name):
    w, outs = stream
    arrays = check_run(w, name, outs[name])
    P = arrays["P_seq"]
    P[500, 0, 1] *= 1 + 1e-6
    P[500, 1, 0] = P[500, 0, 1]
    with pytest.raises(checks.CheckFailed, match="P_"):
        check_run(w, name, outs[name], P_seq=P)


def test_trajectory_check_rejects_a_scaled_theta(stream):
    w, outs = stream
    theta = outs["robust.tau0.5"].theta_seq.copy()
    theta[700] *= 1 + 1e-6
    with pytest.raises(checks.CheckFailed, match="radius"):
        check_run(w, "robust.tau0.5", outs["robust.tau0.5"], theta_seq=theta)


def test_fixed_point_check_rejects_a_nudged_P(stream):
    w, outs = stream
    fp = robkf.iterate_to_fixed_point(w.example, np.eye(2), "robust", tau=0.5, c=0.10)
    P_last = outs["robust.tau0.5"].P_seq[-1]
    checks.check_fixed_point(workloads.EXAMPLE, "robust", fp.P_star, fp.V_star, fp.theta_star,
                             P_last, "fp", tau=0.5, c=0.10)
    P = fp.P_star * (1 + 1e-6)
    with pytest.raises(checks.CheckFailed):
        checks.check_fixed_point(workloads.EXAMPLE, "robust", P, fp.V_star, fp.theta_star,
                                 P_last, "fp", tau=0.5, c=0.10)


def test_certificate_check_rejects_phi_past_its_tolerance():
    model = workloads.program_model(workloads.EXAMPLE)
    cert = robkf.certify(model, 0.5).as_dict()
    checks.check_certificate(workloads.EXAMPLE, cert, 0.5, "robust", "example")
    A, Sigma, C, R = checks.normalized(workloads.EXAMPLE)
    _, phi, cond = checks.lifted_closed_form(A, Sigma, C, R, 50)
    lo, hi = checks.phi_bounds(phi, cond)
    assert lo <= cert["phi_N"] <= hi
    for moved in (lo * (1 - 1e-7), hi * (1 + 1e-7)):
        with pytest.raises(checks.CheckFailed, match="phi_N"):
            checks.check_certificate(workloads.EXAMPLE, {**cert, "phi_N": moved}, 0.5,
                                     "robust", "example")
    with pytest.raises(checks.CheckFailed, match="c_max"):
        checks.check_certificate(workloads.EXAMPLE, {**cert, "c_max": cert["c_max"] * (1 + 1e-6)},
                                 0.5, "robust", "example")


def test_kept_failure_is_a_robkf_error_and_n23_certifies():
    model = workloads.program_model(workloads.load_stored("correlated_draw4.json"))
    with pytest.raises(robkf.NotSPD):
        robkf.certify(model, 0.5)
    assert robkf.certify(model, 0.5, N=23).c_max > 0.0


def test_cli_check_rejects_a_changed_digit(tmp_path):
    """A digit changed in the middle or at the end of one P entry."""
    w = workloads.CliCompare()
    w.build(0, tmp_path)
    outs = one_pass(w, w.ops(in_process=True))
    w.check(outs)
    lines = outs["run"].stdout.splitlines()
    fields = lines[500].split(",")
    p11 = lines[0].split(",").index("P_11")
    for digit in (fields[p11].index(".") + 1, len(fields[p11]) - 1):
        value = fields[p11]
        changed = value[:digit] + str((int(value[digit]) + 1) % 10) + value[digit + 1:]
        bad_lines = lines[:500] + [",".join(fields[:p11] + [changed] + fields[p11 + 1:])] + lines[501:]
        bad = {**outs, "run": workloads.CliResult(0, "\n".join(bad_lines) + "\n")}
        with pytest.raises(checks.CheckFailed, match="cli run"):
            w.check(bad)


def _bindings():
    modules = [m for n, m in sys.modules.items() if n == "robkf" or n.startswith("robkf.")]
    return {(m.__name__, k): v for m in modules + [scipy.linalg] for k, v in vars(m).items()}


def test_tracer_wraps_and_restores():
    before = _bindings()
    tracer = Tracer()
    with tracer.installed():
        assert robkf.filters.solve_theta is not before[("robkf.filters", "solve_theta")]
        assert robkf.contraction.find_phi_N is not before[("robkf.contraction", "find_phi_N")]
        assert scipy.linalg.cholesky is not before[("scipy.linalg", "cholesky")]
        robkf.solve_theta(np.eye(2), 0.1, 0.5)
    after = _bindings()
    assert after.keys() == before.keys()
    assert all(after[k] is v for k, v in before.items())
    calls = tracer.summary()["calls"]
    assert calls["divergence.solve_theta"] == 1
    assert calls["scipy.linalg.eigvalsh"] >= 1


def declared():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return spec, {m["name"]: m["unit"] for m in spec["end_to_end"]}, {
        m["name"]: m["unit"] for m in spec["per_layer"]}


def test_benchmark_json_declares_the_printed_metrics():
    spec, e2e, layers = declared()
    assert e2e == run.END_TO_END
    assert layers == run.PER_LAYER
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)


@pytest.mark.parametrize("trace", [0, 1])
def test_printed_metrics_match_benchmark_json(trace):
    _, e2e, layers = declared()
    done = subprocess.run(
        [sys.executable, str(BENCH / "run.py"), "--workload", "certify_models", "--seed", "3",
         "--seconds", "1", "--trace", str(trace)],
        capture_output=True, text=True, cwd=ROOT, timeout=170)
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["failed"] * 9 == result["attempted"]
    want = layers if trace else e2e
    assert {k: v["unit"] for k, v in result["metrics"].items()} == want


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    done = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "certify_models", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        capture_output=True, text=True, cwd=tmp_path, timeout=170)
    assert done.returncode != 0
    assert done.stdout.strip() == ""
