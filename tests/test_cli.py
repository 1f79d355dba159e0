import csv
import io
import json

import numpy as np
import pytest

from robkf import FilterConfig, load_model, run_filter, simulate
from robkf.cli import main

from conftest import example_matrices


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
    err = capsys.readouterr().err
    assert "error:" in err


def test_metric_values(tmp_path, capsys):
    p = matrix_file(tmp_path, "p.json", np.eye(2))
    q = matrix_file(tmp_path, "q.json", 2 * np.eye(2))
    assert main(["metric", p, p]) == 0
    assert capsys.readouterr().out.strip() == "0.0"
    assert main(["metric", p, q]) == 0
    assert capsys.readouterr().out.strip() == "0.6931471805599453"


def test_metric_failures(tmp_path, capsys):
    p = matrix_file(tmp_path, "p.json", np.eye(2))
    bad = matrix_file(tmp_path, "bad.json", [[1.0, 2.0], [2.0, 1.0]])
    flat = matrix_file(tmp_path, "flat.json", [[1.0, 2.0]])
    assert main(["metric", p, bad]) == 3
    assert main(["metric", p, flat]) == 2
    missing = str(tmp_path / "gone.json")
    assert main(["metric", p, missing]) == 2
    assert f"matrix: {missing} not readable" in capsys.readouterr().err


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


def test_log_level_env(model_file, capsys, monkeypatch):
    import logging
    monkeypatch.setenv("ROBKF_LOG", "info")
    for h in logging.getLogger().handlers[:]:
        logging.getLogger().removeHandler(h)
    assert main(["compare", "--model", model_file, "--filter", "standard",
                 "--steps", "5"]) == 0
    err = capsys.readouterr().err
    assert "rmse" in err
    for h in logging.getLogger().handlers[:]:
        logging.getLogger().removeHandler(h)
