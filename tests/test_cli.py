import csv
import gc
import io
import json
import logging
import math
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import robkf
from robkf import FilterConfig, cli, load_model, run_filter, simulate
from robkf.cli import main
from robkf.contraction import _certify_each

from conftest import example_matrices, precise_sensor_jordan_model, random_model


@pytest.fixture
def model_file(tmp_path):
    A, B, C, D = example_matrices()
    payload = {
        "A": np.asarray(A).tolist(),
        "B": np.asarray(B).tolist(),
        "C": np.asarray(C).tolist(),
        "D": np.asarray(D).tolist(),
        "x0_mean": [0.0, 0.0],
        "V0": [[1.0, 0.0], [0.0, 1.0]],
    }
    path = tmp_path / "model.json"
    path.write_text(json.dumps(payload))
    return str(path)


def matrix_file(tmp_path, name, M):
    path = tmp_path / name
    path.write_text(json.dumps(np.asarray(M).tolist()))
    return str(path)


def read_csv(text):
    rows = list(csv.reader(io.StringIO(text)))
    return rows[0], rows[1:]


def test_certify_golden_json(model_file, capsys):
    assert main(["certify", "--model", model_file, "--tau", "0"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["c_max"] == pytest.approx(0.122, rel=0.02)
    assert payload["mode"] == "robust"
    assert payload["tau"] == 0.0
    assert payload["q"] == 40 and payload["N"] == 50
    assert payload["phi_N"] == pytest.approx(1.3328e-3, rel=5e-3)
    assert payload["tilde_phi_N"] == pytest.approx(1.3335e-3, rel=1e-3)
    assert "theta_max" not in payload
    P = np.asarray(payload["P_bar_q"])
    np.testing.assert_allclose(
        P, 1e2 * np.array([[1.2568, 1.3641], [1.3641, 1.5025]]), rtol=5e-4)


def test_certify_out_file(model_file, tmp_path, capsys):
    out = tmp_path / "cert.json"
    assert main(["certify", "--model", model_file, "--tau", "0.5", "--out", str(out)]) == 0
    assert capsys.readouterr().out == ""
    payload = json.loads(out.read_text())
    assert payload["c_max"] == pytest.approx(0.101, rel=0.02)


def test_certify_risk_sensitive(model_file, capsys):
    rc = main(["certify", "--model", model_file, "--tau", "1", "--mode", "risk_sensitive"])
    assert rc == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["theta_max"] == pytest.approx(1.334352e-3, rel=1e-4)
    assert "c_max" not in payload


def test_certify_missing_model(tmp_path, capsys):
    path = str(tmp_path / "nope.json")
    assert main(["certify", "--model", path, "--tau", "0"]) == 2
    assert capsys.readouterr().err.strip() == f"error: model: {path} not readable"


def test_usage_errors(model_file, capsys):
    assert main([]) == 1
    assert main(["certify", "--model", model_file]) == 1  # --tau required
    assert main(["bogus-command"]) == 1
    assert main(["certify", "--model", model_file, "--tau", "0",
                 "--mode", "bogus"]) == 1
    capsys.readouterr()


def test_config_errors_exit_1(model_file, capsys):
    assert main(["certify", "--model", model_file, "--tau", "0", "--q", "0"]) == 1
    assert main(["certify", "--model", model_file, "--tau", "2"]) == 1
    assert main(["run", "--model", model_file, "--kind", "robust",
                 "--tau", "0.5", "--steps", "5"]) == 1  # missing --c
    assert main(["run", "--model", model_file, "--kind", "robust",
                 "--c", "0.1", "--steps", "3"]) == 1  # missing --tau
    assert main(["compare", "--model", model_file, "--filter", "robust:c=0.1"]) == 1
    assert main(["certify", "--model", model_file, "--tau", "0.5",
                 "--mode", "risk_sensitive"]) == 1  # RiskSensitiveModeUnsupported
    assert main(["run", "--model", model_file, "--kind", "standard", "--steps", "-1"]) == 1
    assert main(["compare", "--model", model_file, "--filter", "standard", "--steps", "-1"]) == 1
    err = capsys.readouterr().err
    assert "error:" in err


def test_negative_seed_exits_1(model_file, capsys):
    assert main(["run", "--model", model_file, "--kind", "standard",
                 "--steps", "5", "--seed", "-1"]) == 1
    assert main(["compare", "--model", model_file, "--filter", "standard",
                 "--steps", "5", "--seed", "-1"]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: seed must be a nonnegative integer, got -1\n" * 2


def test_certify_prints_an_unbounded_budget_and_compare_rejects_it(tmp_path, capsys):
    # theta_bar lies past gamma's domain at tau < 1, so every radius is certified
    path = _write_model(tmp_path, precise_sensor_jordan_model())
    assert main(["certify", "--model", path, "--tau", "0.5"]) == 0
    out = capsys.readouterr().out
    assert '"c_max": Infinity' in out
    assert json.loads(out)["c_max"] == float("inf")
    assert main(["compare", "--model", path, "--steps", "5"]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: robust filter needs a finite c > 0, got inf\n"


def test_metric_values(tmp_path, capsys):
    p = matrix_file(tmp_path, "p.json", np.eye(2))
    q = matrix_file(tmp_path, "q.json", 2 * np.eye(2))
    assert main(["metric", p, p]) == 0
    assert capsys.readouterr().out.strip() == "0.0"
    assert main(["metric", p, q]) == 0
    # the Cholesky factor of 2I is fl(√2), and fl(√2)² = 2 + 2.7e-16: one ulp above ln 2
    assert capsys.readouterr().out.strip() == "0.6931471805599454"


def test_metric_across_twice_the_double_range(tmp_path, capsys):
    p = matrix_file(tmp_path, "p.json", 1e-300 * np.eye(2))
    q = matrix_file(tmp_path, "q.json", 1e300 * np.eye(2))
    assert main(["metric", p, q]) == 0
    assert float(capsys.readouterr().out) == pytest.approx(600 * math.log(10), rel=1e-15)


def test_metric_failures(tmp_path, capsys):
    p = matrix_file(tmp_path, "p.json", np.eye(2))
    bad = matrix_file(tmp_path, "bad.json", [[1.0, 2.0], [2.0, 1.0]])
    flat = matrix_file(tmp_path, "flat.json", [[1.0, 2.0]])
    ragged = tmp_path / "ragged.json"
    ragged.write_text("[[1.0, 0.0], [0.0]]")
    assert main(["metric", p, bad]) == 3
    assert main(["metric", p, flat]) == 2
    assert main(["metric", p, str(ragged)]) == 2
    assert f"matrix: {ragged} is not a rectangular numeric array" in capsys.readouterr().err
    missing = str(tmp_path / "gone.json")
    assert main(["metric", p, missing]) == 2
    assert f"matrix: {missing} not readable" in capsys.readouterr().err


@pytest.mark.parametrize("literal", ["NaN", "Infinity", "-Infinity"])
def test_non_finite_literals_exit_2(model_file, tmp_path, capsys, literal):
    p = matrix_file(tmp_path, "p.json", np.eye(2))
    bad = tmp_path / "bad.json"
    bad.write_text(f"[[{literal}, 0], [0, 1]]")
    assert main(["metric", p, str(bad)]) == 2
    assert capsys.readouterr().err == (
        f"error: matrix: {bad} holds the non-finite literal {literal!r}\n")
    model = tmp_path / "model.json"
    model.write_text(Path(model_file).read_text().replace("0.1", literal, 1))
    assert main(["certify", "--model", str(model), "--tau", "0.5"]) == 2
    assert capsys.readouterr().err == (
        f"error: model: {model} holds the non-finite literal {literal!r}\n")


def test_metric_shape_mismatch_exits_2(tmp_path, capsys):
    p = matrix_file(tmp_path, "p.json", np.eye(2))
    q = matrix_file(tmp_path, "q.json", np.eye(3))
    assert main(["metric", p, q]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: shape mismatch (2, 2) vs (3, 3)\n"


def _unstable_model_file(tmp_path):
    # With A's second mode at 100 the N = 100 lifted build overflows to
    # inf, as the README example's does at N = 2000 (which takes seconds).
    A, B, C, D = example_matrices()
    A = np.array(A, dtype=float)
    A[1, 1] = 100.0
    path = tmp_path / "unstable.json"
    path.write_text(json.dumps({
        "A": A.tolist(), "B": np.asarray(B).tolist(), "C": np.asarray(C).tolist(),
        "D": np.asarray(D).tolist(), "x0_mean": [0.0, 0.0], "V0": np.eye(2).tolist(),
    }))
    return str(path)


def test_certify_overflowing_lifted_build_exits_3(tmp_path, capsys):
    path = _unstable_model_file(tmp_path)
    rc = main(["certify", "--model", path, "--tau", "0.5", "--N", "100"])
    assert rc == 3
    assert capsys.readouterr().err.strip() == (
        "error: block innovation covariance has non-finite entries")


@pytest.mark.parametrize("command", [["compare"], ["run", "--kind", "standard"]])
def test_simulating_past_the_double_range_exits_3(model_file, capsys, command):
    assert main([*command, "--model", model_file, "--steps", "4000"]) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert re.fullmatch(r"error: simulated state x_3895 leaves the double range \(.*\)\n",
                        captured.err)


@pytest.mark.parametrize("command, step", [(["compare"], 3891),
                                           (["run", "--kind", "standard"], 3891)],
                         ids=["compare", "run"])
def test_estimates_past_the_double_range_exit_3(model_file, capsys, command, step):
    # 3895 steps is the longest simulation of the example at seed 0; the estimates
    # tracking its states leave the double range a few steps before that
    assert main([*command, "--model", model_file, "--steps", "3895"]) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert re.fullmatch(rf"error: filter estimate xhat_{step} leaves the double range \(.*\)\n",
                        captured.err)


def test_simulated_observations_past_the_double_range_exit_3(model_file, capsys):
    # C scaled by 1e10 takes C x past the largest double while every state stays finite
    payload = json.loads(Path(model_file).read_text())
    payload["C"] = (1e10 * np.asarray(payload["C"])).tolist()
    Path(model_file).write_text(json.dumps(payload))
    assert main(["run", "--kind", "standard", "--model", model_file, "--steps", "3800"]) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert re.fullmatch(r"error: simulated observations leave the double range \(.*\)\n",
                        captured.err)


@pytest.mark.parametrize("field, code, what", [("B", 3, "burn-in from B Bᵀ"), ("D", 2, "D Dᵀ")],
                         ids=["B", "D"])
def test_certify_past_the_double_range_names_the_quantity(model_file, capsys, field, code, what):
    # B or D scaled by 1e160 takes B Bᵀ or D Dᵀ past the largest double
    payload = json.loads(Path(model_file).read_text())
    payload[field] = (1e160 * np.asarray(payload[field])).tolist()
    Path(model_file).write_text(json.dumps(payload))
    assert main(["certify", "--model", model_file, "--tau", "0.5"]) == code
    captured = capsys.readouterr()
    assert captured.out == ""
    assert re.fullmatch(rf"error: {what} leaves the double range \(overflow encountered in matmul\)\n",
                        captured.err)


def test_cli_import_loads_no_scipy():
    code = "import sys, robkf.cli; print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"
    done = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, check=True,
                          env={**os.environ, "PYTHONPATH": str(Path(robkf.__file__).parents[1])})
    assert done.stdout.strip() == "[]"


def test_run_standard_csv(model_file, capsys):
    assert main(["run", "--model", model_file, "--kind", "standard",
                 "--steps", "5", "--seed", "0"]) == 0
    header, rows = read_csv(capsys.readouterr().out)
    assert header == ["k", "xhat_1", "xhat_2", "P_11", "P_12", "P_22",
                      "V_11", "V_12", "V_22", "theta"]
    assert [r[0] for r in rows] == ["1", "2", "3", "4", "5"]
    assert all(r[-1] == "0.0" for r in rows)
    # standard kind: V row equals P row
    for r in rows:
        assert r[3:6] == r[6:9]


def test_run_csv_round_trip(model_file, capsys):
    steps, seed = 12, 4
    assert main(["run", "--model", model_file, "--kind", "robust", "--tau", "0.5",
                 "--c", "0.101", "--steps", str(steps), "--seed", str(seed)]) == 0
    header, rows = read_csv(capsys.readouterr().out)

    model = load_model(model_file)
    y = simulate(model, steps, seed).observations
    ft = run_filter(model, FilterConfig.robust(0.5, 0.101), y)
    for k, row in enumerate(rows, start=1):
        vals = [float(v) for v in row]
        assert vals[0] == k
        assert vals[1:3] == list(ft.estimates[k])
        P, V = ft.P_seq[k - 1], ft.V_seq[k]
        assert vals[3:6] == [P[0, 0], P[0, 1], P[1, 1]]
        assert vals[6:9] == [V[0, 0], V[0, 1], V[1, 1]]
        assert vals[9] == ft.theta_seq[k - 1]


def test_run_robust_settles(model_file, capsys):
    assert main(["run", "--model", model_file, "--kind", "robust", "--tau", "0",
                 "--c", "0.122", "--steps", "40"]) == 0
    _, rows = read_csv(capsys.readouterr().out)
    p11 = [float(r[3]) for r in rows]
    assert abs(p11[25] - p11[-1]) <= 1e-3 * p11[-1]
    theta = [float(r[-1]) for r in rows]
    assert all(t > 0 for t in theta)


def test_run_zero_steps_header_only(model_file, capsys):
    assert main(["run", "--model", model_file, "--kind", "standard", "--steps", "0"]) == 0
    out = capsys.readouterr().out
    assert out.count("\n") == 1 and out.startswith("k,")


def test_run_out_file(model_file, tmp_path, capsys):
    out = tmp_path / "run.csv"
    assert main(["run", "--model", model_file, "--kind", "standard",
                 "--steps", "3", "--out", str(out)]) == 0
    assert capsys.readouterr().out == ""
    header, rows = read_csv(out.read_text())
    assert header[0] == "k" and len(rows) == 3


def test_run_with_obs_file(model_file, tmp_path, capsys):
    obs = tmp_path / "obs.csv"
    obs.write_text("y1\n" + "\n".join(str(v) for v in np.linspace(-1, 1, 7)) + "\n")
    assert main(["run", "--model", model_file, "--kind", "standard",
                 "--obs", str(obs)]) == 0
    _, rows = read_csv(capsys.readouterr().out)
    assert len(rows) == 7

    assert main(["run", "--model", model_file, "--kind", "standard",
                 "--obs", str(obs), "--steps", "5"]) == 1
    assert "--obs replaces --steps" in capsys.readouterr().err


def test_run_needs_steps_or_obs(model_file, capsys):
    assert main(["run", "--model", model_file, "--kind", "standard"]) == 1
    capsys.readouterr()


def test_compare_default_panel(model_file, capsys):
    assert main(["compare", "--model", model_file, "--steps", "25", "--seed", "2"]) == 0
    header, rows = read_csv(capsys.readouterr().out)
    assert len(rows) == 25
    for label in ("kf", "rkf_tau0", "rkf_tau05", "rkf_tau1"):
        for col in (f"{label}_xhat_1", f"{label}_P_11", f"{label}_V_22", f"{label}_theta"):
            assert col in header
    assert len(header) == 1 + 4 * 9
    k_theta = header.index("kf_theta")
    assert all(r[k_theta] == "0.0" for r in rows)
    r_theta = header.index("rkf_tau05_theta")
    assert all(float(r[r_theta]) > 0 for r in rows)


def test_compare_single_filter_matches_run_columns(model_file, capsys):
    assert main(["compare", "--model", model_file, "--filter", "standard",
                 "--steps", "6", "--seed", "9"]) == 0
    cmp_header, cmp_rows = read_csv(capsys.readouterr().out)
    assert main(["run", "--model", model_file, "--kind", "standard",
                 "--steps", "6", "--seed", "9"]) == 0
    run_header, run_rows = read_csv(capsys.readouterr().out)
    assert cmp_header == ["k"] + [f"kf_{name}" for name in run_header[1:]]
    assert cmp_rows == run_rows


def test_compare_deterministic_bytes(model_file, capsys):
    argv = ["compare", "--model", model_file, "--filter", "standard",
            "--filter", "robust:tau=1,c=0.05", "--steps", "10", "--seed", "5"]
    assert main(argv) == 0
    first = capsys.readouterr().out
    assert main(argv) == 0
    assert capsys.readouterr().out == first
    header, _ = read_csv(first)
    assert "rkf_tau1_theta" in header


def test_compare_bad_filter_spec(model_file, capsys):
    assert main(["compare", "--model", model_file, "--filter", "robust:tau=0.5"]) == 1
    assert main(["compare", "--model", model_file, "--filter", "bogus"]) == 1
    assert main(["compare", "--model", model_file, "--filter", "robust:tau=0.5,c=x"]) == 1
    assert main(["compare", "--model", model_file, "--filter", "standard:nope=1"]) == 1
    capsys.readouterr()


def test_compare_rejects_a_repeated_filter_spec_key(model_file, capsys):
    spec = "robust:tau=0.5,c=0.1,tau=0.7"
    assert main(["compare", "--model", model_file, "--filter", spec, "--steps", "2"]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: repeated key 'tau' in filter spec {spec!r}\n"


def test_rejected_reweighting_exits_3_naming_the_spectrum(model_file, capsys):
    assert main(["run", "--model", model_file, "--kind", "risk_sensitive", "--tau", "1",
                 "--theta", "0.5", "--steps", "20"]) == 3
    assert re.fullmatch(r"error: P is not symmetric positive definite \(eigenvalues "
                        r"-\S+e\+\d+ to \S+e\+\d+\)\n", capsys.readouterr().err)


@pytest.mark.parametrize("flag", [["--q", "0"], ["--q", "40"], ["--N", "1"]])
def test_compare_rejects_certification_flags_with_filter(model_file, tmp_path, capsys, flag):
    out = tmp_path / "out.csv"
    assert main(["compare", "--model", model_file, "--filter", "standard", *flag,
                 "--steps", "2", "--out", str(out)]) == 1
    assert not out.exists()
    assert capsys.readouterr().err == (
        "error: --q and --N certify the default panel; --filter replaces it\n")


def test_log_level_env(model_file, capsys, monkeypatch):
    # the root logger already has a handler, as under pytest or in an
    # application, so a logging.basicConfig call would do nothing
    monkeypatch.setenv("ROBKF_LOG", "info")
    root = logging.getLogger()
    own = logging.StreamHandler(io.StringIO())
    root.addHandler(own)
    try:
        assert main(["compare", "--model", model_file, "--filter", "standard",
                     "--steps", "5"]) == 0
    finally:
        root.removeHandler(own)
    assert "rmse" in capsys.readouterr().err
    assert own.stream.getvalue() == ""


def test_log_level_env_under_python_m(model_file):
    env = {**os.environ, "ROBKF_LOG": "info", "PYTHONPATH": str(Path(robkf.__file__).parents[1])}
    done = subprocess.run([sys.executable, "-m", "robkf.cli", "compare", "--model", model_file,
                           "--filter", "standard", "--steps", "5"],
                          capture_output=True, text=True, check=True, env=env)
    assert "INFO robkf.cli: rmse kf = " in done.stderr


def test_certify_agrees_across_blas_thread_counts(model_file):
    # the BLAS thread count reorders sums: output is reproducible bit for bit
    # only at one thread count, and agrees to 1e-12 relative across them
    payloads = []
    for threads in ("1", "2"):
        env = {**os.environ, "OPENBLAS_NUM_THREADS": threads,
               "PYTHONPATH": str(Path(robkf.__file__).parents[1])}
        done = subprocess.run(
            [sys.executable, "-m", "robkf.cli", "certify", "--model", model_file, "--tau", "0.5"],
            capture_output=True, text=True, check=True, env=env)
        payloads.append(json.loads(done.stdout))
    one, two = payloads
    assert one.keys() == two.keys()
    for key, value in one.items():
        if isinstance(value, str):
            assert two[key] == value
        else:
            np.testing.assert_allclose(two[key], value, rtol=1e-12, atol=0, err_msg=key)


def test_main_leaves_the_root_logger_alone(model_file, capsys, monkeypatch):
    monkeypatch.setenv("ROBKF_LOG", "info")
    root, pkg = logging.getLogger(), logging.getLogger("robkf")
    saved = root.level, root.handlers[:]
    for h in saved[1]:
        root.removeHandler(h)
    root.setLevel(logging.WARNING)
    try:
        assert main(["compare", "--model", model_file, "--filter", "standard",
                     "--steps", "5"]) == 0
        assert root.level == logging.WARNING and root.handlers == []
        assert not logging.getLogger("unrelated").isEnabledFor(logging.INFO)
        assert (pkg.level, pkg.handlers, pkg.propagate) == (logging.NOTSET, [], True)
    finally:
        root.setLevel(saved[0])
        for h in saved[1]:
            root.addHandler(h)
    assert "rmse" in capsys.readouterr().err


def _reference_csv(header, runs, steps):
    """The CSV as the CLI formatted it one float at a time through csv.writer."""
    def fmt(x):
        return repr(float(x))

    def upper(M):
        n = M.shape[0]
        return [M[i, j] for i in range(n) for j in range(i, n)]

    def row(k, ft):
        return ([fmt(v) for v in ft.estimates[k]] + [fmt(v) for v in upper(ft.P_seq[k - 1])]
                + [fmt(v) for v in upper(ft.V_seq[k])] + [fmt(ft.theta_seq[k - 1])])

    out = io.StringIO()
    writer = csv.writer(out, lineterminator="\n")
    writer.writerow(header)
    writer.writerows([[str(k)] + [v for ft in runs for v in row(k, ft)]
                      for k in range(1, steps + 1)])
    return out.getvalue()


def _write_model(tmp_path, model):
    path = tmp_path / f"model_n{model.n}.json"
    path.write_text(json.dumps({name: np.asarray(getattr(model, name)).tolist()
                                for name in ("A", "B", "C", "D", "x0_mean", "V0")}))
    return str(path)


def _csv_models(tmp_path):
    """Model files with n = 1, 2 (the example) and 3, and their models."""
    A, B, C, D = example_matrices()
    models = [random_model(np.random.default_rng(1), n=1),
              robkf.StateSpaceModel(A=A, B=B, C=C, D=D, x0_mean=np.zeros(2), V0=np.eye(2)),
              random_model(np.random.default_rng(1), n=3)]
    return [(_write_model(tmp_path, model), model) for model in models]


@pytest.mark.parametrize("steps", [0, 40])
def test_run_csv_bytes_match_the_row_formatter(tmp_path, capsys, steps):
    config = FilterConfig.robust(0.5, 0.01)
    for path, model in _csv_models(tmp_path):
        assert main(["run", "--model", path, "--kind", "robust", "--tau", "0.5", "--c", "0.01",
                     "--steps", str(steps), "--seed", "3"]) == 0
        ft = run_filter(model, config, simulate(model, steps, 3).observations)
        header = ["k"] + cli._trajectory_columns("", model.n)
        assert capsys.readouterr().out == _reference_csv(header, [ft], steps)


@pytest.mark.parametrize("steps", [0, 40])
def test_compare_csv_bytes_match_the_row_formatter(tmp_path, capsys, steps):
    specs = ["standard", "robust:tau=0,c=0.01", "risk_sensitive:tau=1,theta=0.001", "standard"]
    configs = [FilterConfig.standard(), FilterConfig.robust(0.0, 0.01),
               FilterConfig.risk_sensitive(1.0, 0.001), FilterConfig.standard()]
    for path, model in _csv_models(tmp_path):
        argv = ["compare", "--model", path, "--steps", str(steps), "--seed", "4"]
        assert main(argv + [arg for spec in specs for arg in ("--filter", spec)]) == 0
        table = robkf.compare_filters(model, configs, steps, 4)
        header = ["k"] + [name for label in table.labels
                          for name in cli._trajectory_columns(f"{label}_", model.n)]
        assert capsys.readouterr().out == _reference_csv(header, table.runs, steps)


def test_default_compare_panel_uses_certify(model_file, capsys):
    model = load_model(model_file)
    taus = (0.0, 0.5, 1.0)
    for q, N in ((40, None), (20, 8)):
        certs = _certify_each(model, taus, q=q, N=N)
        assert [c.as_dict() for c in certs] == [
            robkf.certify(model, tau, q=q, N=N).as_dict() for tau in taus]
    configs = [FilterConfig.standard()] + [
        FilterConfig.robust(tau, robkf.certify(model, tau).c_max) for tau in taus]
    table = robkf.compare_filters(model, configs, 30, 6)
    header = ["k"] + [name for label in table.labels
                      for name in cli._trajectory_columns(f"{label}_", 2)]
    assert main(["compare", "--model", model_file, "--steps", "30", "--seed", "6"]) == 0
    assert capsys.readouterr().out == _reference_csv(header, table.runs, 30)


@pytest.mark.parametrize("kw", [
    dict(tau=1.5), dict(tau="x"), dict(tau=0.5, mode="bogus"),
    dict(tau=0.5, mode="risk_sensitive"), dict(tau=0.5, q=0), dict(tau=0.5, q=2.5),
    dict(tau=0.5, N=1), dict(tau=0.5, N="x"),
])
def test_certify_each_raises_as_certify(example_model, kw):
    tau = kw.pop("tau")
    with pytest.raises(robkf.RobkfError) as want:
        robkf.certify(example_model, tau, **kw)
    with pytest.raises(type(want.value), match=re.escape(str(want.value))):
        _certify_each(example_model, (1.0, tau), **kw)


@pytest.mark.parametrize("extra", [["--q", "0"], ["--N", "1"]])
def test_compare_default_panel_rejects_bad_q_and_N(model_file, capsys, extra):
    assert main(["compare", "--model", model_file, "--steps", "5"] + extra) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ")


def test_csv_writes_extreme_values_in_round_trip_form(capsys):
    values = np.array([-0.0, 5e-324, 1e300, -1e300, 0.1, -5e-324])
    n, steps = 2, 3
    ft = robkf.FilterTrajectory(
        config=FilterConfig.standard(),
        estimates=np.resize(values, (steps + 1, n)),
        gains=np.zeros((steps, n, 1)),
        P_seq=np.resize(values[::-1], (steps, n, n)),
        V_seq=np.resize(np.roll(values, 2), (steps + 1, n, n)),
        theta_seq=np.resize(values, steps),
        cycle=None,
    )
    header = ["k"] + cli._trajectory_columns("a_", n) + cli._trajectory_columns("b_", n)
    cli._emit_csv(header, [ft, ft], None)
    out = capsys.readouterr().out
    assert out == _reference_csv(header, [ft, ft], steps)
    assert "-0.0," in out and "5e-324" in out and "1e+300" in out
    rows = [line.split(",") for line in out.splitlines()[1:]]
    assert np.array([[float(v) for v in row[1:]] for row in rows]).tobytes() == np.hstack(
        [cli._trajectory_block(ft)] * 2).tobytes()


def _python_m(argv, **kw):
    """``python -m robkf.cli argv`` with robkf from this checkout."""
    env = {**os.environ, "PYTHONPATH": str(Path(robkf.__file__).parents[1])}
    return subprocess.run([sys.executable, "-m", "robkf.cli", *argv], env=env, **kw)


@pytest.mark.parametrize("command", ["certify", "run", "compare"])
def test_write_to_a_missing_directory_exits_1(model_file, tmp_path, capsys, command):
    extra = {"certify": ["--tau", "0.5"], "run": ["--kind", "standard", "--steps", "5"],
             "compare": ["--steps", "5"]}[command]
    out = tmp_path / "missing" / "out.csv"
    assert main([command, "--model", model_file, "--out", str(out)] + extra) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: cannot write {out}: No such file or directory\n"


@pytest.mark.parametrize("command, work", [("certify", ["certify"]), ("run", ["run_filter"]),
                                           ("compare", ["_certify_each", "compare_filters"])])
def test_unwritable_out_directory_fails_before_any_work(model_file, tmp_path, monkeypatch,
                                                       capsys, command, work):
    calls = []
    for name in work:
        monkeypatch.setattr(cli, name, lambda *args, _name=name, **kw: calls.append(_name))
    extra = {"certify": ["--tau", "0.5"], "run": ["--kind", "standard", "--steps", "1000"],
             "compare": ["--steps", "1000"]}[command]
    (tmp_path / "file").write_text("")
    for out, why in ((tmp_path / "missing" / "out.csv", "No such file or directory"),
                     (tmp_path / "file" / "out.csv", "Not a directory")):
        assert main([command, "--model", model_file, "--out", str(out)] + extra) == 1
        assert capsys.readouterr().err == f"error: cannot write {out}: {why}\n"
    assert calls == []
    assert sorted(p.name for p in tmp_path.iterdir()) == ["file", "model.json"]


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="needs /dev/full")
@pytest.mark.parametrize("argv", [["certify", "--tau", "0.5"],
                                  ["compare", "--filter", "standard", "--steps", "1000"],
                                  ["--help"], ["certify", "--help"]])
def test_write_to_a_full_stdout_exits_1(model_file, argv):
    with open("/dev/full", "w") as full:
        done = _python_m([argv[0], "--model", model_file, *argv[1:]], stdout=full,
                         stderr=subprocess.PIPE, text=True)
    assert done.returncode == 1
    assert done.stderr == "error: cannot write stdout: No space left on device\n"


def test_main_freezes_nothing(model_file, capsys):
    frozen = gc.get_freeze_count()
    assert main(["certify", "--model", model_file, "--tau", "0.5"]) == 0
    assert gc.get_freeze_count() == frozen


def test_entry_freezes_the_import_heap(tmp_path):
    eye = matrix_file(tmp_path, "I.json", np.eye(2))
    code = ("import gc, sys; from robkf.cli import entry; "
            f"sys.argv[1:] = ['metric', {eye!r}, {eye!r}]; "
            "assert gc.get_freeze_count() == 0; rc = entry(); "
            "print(rc, gc.get_freeze_count() > 1000)")
    done = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, check=True,
                          env={**os.environ, "PYTHONPATH": str(Path(robkf.__file__).parents[1])})
    assert done.stdout == "0.0\n0 True\n"


def test_python_m_exit_codes(model_file, tmp_path):
    unstable = _unstable_model_file(tmp_path)
    cases = [(["certify", "--model", model_file, "--tau", "0.5"], 0),
             (["certify", "--model", str(tmp_path / "absent.json"), "--tau", "0.5"], 2),
             (["certify", "--model", unstable, "--tau", "0.5", "--N", "100"], 3)]
    for argv, code in cases:
        done = _python_m(argv, capture_output=True, text=True)
        assert done.returncode == code, (argv, done.stderr)
        assert "Traceback" not in done.stderr


@pytest.mark.parametrize("argv", [
    ["certify", "--tau", "0.5"],
    ["run", "--kind", "robust", "--tau", "0.5", "--c", "0.1", "--steps", "1000"],
    ["compare", "--steps", "1000"],
])
def test_python_m_stdout_matches_main(model_file, capsys, argv):
    argv = [argv[0], "--model", model_file, *argv[1:]]
    done = _python_m(argv, capture_output=True, check=True)
    assert main(argv) == 0
    assert done.stdout == capsys.readouterr().out.encode()


def test_cycling_csv_bytes_match_the_row_formatter(model_file, capsys):
    model = load_model(model_file)
    steps, seed = 1000, 0
    configs = [FilterConfig.standard()] + [
        FilterConfig.robust(tau, robkf.certify(model, tau).c_max) for tau in (0.0, 0.5, 1.0)]
    table = robkf.compare_filters(model, configs, steps, seed)
    assert all(ft.cycle is not None and sum(ft.cycle) < steps for ft in table.runs)
    header = ["k"] + [name for label in table.labels
                      for name in cli._trajectory_columns(f"{label}_", 2)]
    assert main(["compare", "--model", model_file, "--steps", str(steps)]) == 0
    assert capsys.readouterr().out == _reference_csv(header, table.runs, steps)

    ft = run_filter(model, FilterConfig.robust(0.5, 0.1), simulate(model, steps, 2).observations)
    assert ft.cycle is not None and sum(ft.cycle) < steps
    assert main(["run", "--model", model_file, "--kind", "robust", "--tau", "0.5", "--c", "0.1",
                 "--steps", str(steps), "--seed", "2"]) == 0
    header = ["k"] + cli._trajectory_columns("", 2)
    assert capsys.readouterr().out == _reference_csv(header, [ft], steps)


def test_csv_replays_signed_zeros_from_the_cycle(capsys):
    n, steps, (j, period) = 2, 12, (3, 4)
    rng = np.random.default_rng(5)
    P_seq, V_seq, theta_seq = rng.normal(size=(steps, n, n)), rng.normal(size=(steps + 1, n, n)), \
        rng.normal(size=steps)
    P_seq[j, 0, 0], P_seq[j + 1, 0, 1], V_seq[j + 1, 1, 1], theta_seq[j + 2] = -0.0, 0.0, -0.0, -0.0
    V_seq[j + 2, 0, 0], theta_seq[j + 3] = 0.0, 0.0
    for r in range(j + period, steps):  # row r + 1 repeats row r + 1 - period
        P_seq[r], V_seq[r + 1], theta_seq[r] = P_seq[r - period], V_seq[r + 1 - period], \
            theta_seq[r - period]
    estimates = rng.normal(size=(steps + 1, n))
    estimates[-1] = [-0.0, 0.0]
    ft = robkf.FilterTrajectory(config=FilterConfig.standard(), estimates=estimates,
                                gains=np.zeros((steps, n, 1)), P_seq=P_seq, V_seq=V_seq,
                                theta_seq=theta_seq, cycle=(j, period))
    header = ["k"] + cli._trajectory_columns("", n)
    cli._emit_csv(header, [ft], None)
    out = capsys.readouterr().out
    assert out == _reference_csv(header, [ft], steps)
    replayed = [line.split(",")[1 + n:] for line in out.splitlines()[1 + j + period:]]
    assert any("-0.0" in row for row in replayed) and any("0.0" in row for row in replayed)
