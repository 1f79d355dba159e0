"""The benchmark's three workloads: their inputs, passes and checks.

A workload builds its inputs once from the seed (``build``), then lists
the operations of one pass (``ops``). Each operation is a callable that
calls robkf through module attributes looked up at call time, so the
traced run's wrappers see it. ``check`` verifies the outputs of one
pass with the plain-numpy references in ``checks``.
"""
from __future__ import annotations

import contextlib
import io
import json
import os
import statistics
import subprocess
import sys
from dataclasses import dataclass
from pathlib import Path
from types import SimpleNamespace
from typing import Callable

import numpy as np

import robkf
import robkf.cli

import checks

BENCH_DIR = Path(__file__).resolve().parent
STORED_MODELS = BENCH_DIR / "models"
FIELDS = ("A", "B", "C", "D", "x0_mean", "V0")

EXAMPLE = SimpleNamespace(
    A=np.array([[0.1, 1.0], [0.0, 1.2]]),
    B=np.array([[1.0, 0.0, 0.0], [0.0, 1.0, 0.0]]),
    C=np.array([[1.0, -1.0]]),
    D=np.array([[0.0, 0.0, 1.0]]),
    x0_mean=np.zeros(2),
    V0=np.eye(2),
)
STEPS = 1000
# Radii at or below the example's certified values: c_max = 0.1222 / 0.1010
# / 0.08624 at tau = 0 / 0.5 / 1, theta_max = 1.3344e-3 at tau = 1.
FILTERS = (
    ("standard", "standard", {}),
    ("robust.tau0", "robust", {"tau": 0.0, "c": 0.12}),
    ("robust.tau0.5", "robust", {"tau": 0.5, "c": 0.10}),
    ("robust.tau1", "robust", {"tau": 1.0, "c": 0.086}),
    ("risk_sensitive.tau1", "risk_sensitive", {"tau": 1.0, "theta": 1.3e-3}),
)
SMALL_C = 1e-9
RANDOM_SIZES = (3, 4, 6)


# The one operation that fails today: certify on stored draw 4 raises
# NotSPD at the default N = 50 (see README.md).
KEPT_FAILURE = "stored.draw4"


@dataclass(frozen=True)
class Op:
    """One operation of a pass."""

    name: str
    fn: Callable


def program_model(ns) -> robkf.StateSpaceModel:
    return robkf.StateSpaceModel(**{f: getattr(ns, f) for f in FIELDS})


def load_stored(name: str):
    data = json.loads((STORED_MODELS / name).read_text())
    return SimpleNamespace(**{f: np.array(data[f], dtype=float) for f in FIELDS})


def random_model(rng, n: int):
    """A fixed uncorrelated n-state system in a random orthonormal basis.

    A = Q diag(-0.8 .. 0.8) Qᵀ, B = [Q diag(0.5 .. 1.5) R, 0], C = 1ᵀ Qᵀ / sqrt(n)
    and D = [0, 1], with Q and R random orthogonal from ``rng``. Every
    draw is one system seen in another basis, so its certificate scalars
    and its work are the same from seed to seed while every matrix the
    program sees differs. With A's spectrum and C's direction drawn too,
    the phi_N bisection took 31-58 probes at n = 6 depending on the draw,
    which moved certify_models' pass time by the seed rather than by the
    program.
    """
    def orthogonal():
        Q, R = np.linalg.qr(rng.standard_normal((n, n)))
        return Q * np.sign(np.diag(R))

    Q = orthogonal()
    return SimpleNamespace(
        A=Q @ np.diag(np.linspace(-0.8, 0.8, n)) @ Q.T,
        B=np.hstack([Q @ np.diag(np.linspace(0.5, 1.5, n)) @ orthogonal(), np.zeros((n, 1))]),
        C=np.full((1, n), n ** -0.5) @ Q.T,
        D=np.hstack([np.zeros((1, n)), [[1.0]]]),
        x0_mean=np.zeros(n),
        V0=np.eye(n),
    )


def identical(a, b) -> bool:
    """Bit-for-bit equality of two operation outputs."""
    if isinstance(a, BaseException) or isinstance(b, BaseException):
        return type(a) is type(b) and str(a) == str(b)
    if hasattr(a, "__dataclass_fields__"):
        return type(a) is type(b) and all(
            identical(getattr(a, f), getattr(b, f)) for f in a.__dataclass_fields__
        )
    if isinstance(a, np.ndarray):
        return isinstance(b, np.ndarray) and a.shape == b.shape and np.array_equal(a, b)
    if isinstance(a, (tuple, list)):
        return len(a) == len(b) and all(identical(x, y) for x, y in zip(a, b))
    return type(a) is type(b) and a == b


class CertifyModels:
    """certify on the example, seed-drawn n = 3, 4, 6 models and two
    stored correlated n = 2 models; the contraction layer's workload."""

    name = "certify_models"

    def build(self, seed: int, workdir: Path) -> None:
        rng = np.random.default_rng([seed, 1])
        self.cases = [
            (f"example.robust.tau{tau:g}", EXAMPLE, tau, "robust") for tau in (0.0, 0.5, 1.0)
        ]
        self.cases.append(("example.risk_sensitive.tau1", EXAMPLE, 1.0, "risk_sensitive"))
        for n in RANDOM_SIZES:
            self.cases.append((f"random.n{n}", random_model(rng, n), 0.5, "robust"))
        self.cases.append(("stored.draw1", load_stored("correlated_draw1.json"), 0.5, "robust"))
        self.cases.append(("stored.draw4", load_stored("correlated_draw4.json"), 0.5, "robust"))
        self.models = {name: program_model(ns) for name, ns, _, _ in self.cases}

    def ops(self):
        def certify(name, tau, mode):
            model = self.models[name]
            return lambda: robkf.certify(model, tau, mode=mode)

        return [Op(name, certify(name, tau, mode)) for name, _, tau, mode in self.cases]

    def untraced_layer_metrics(self, medians: dict, outputs: dict) -> dict:
        def ms(sizes):
            return 1e3 * statistics.median(
                medians[name] for name, ns, _, _ in self.cases
                if ns.A.shape[0] in sizes and not isinstance(outputs[name], robkf.RobkfError))
        return {"contraction.certify_small.ms": ms((2, 3)), "contraction.certify_wide.ms": ms((6,))}

    def check(self, outputs: dict) -> None:
        for name, ns, tau, mode in self.cases:
            out = outputs[name]
            if isinstance(out, robkf.RobkfError):
                checks.expect(name == KEPT_FAILURE, f"{name}: certify raised {out!r}")
                continue
            checks.expect(isinstance(out, robkf.ConvergenceCertificate),
                          f"{name}: certify returned {type(out).__name__}")
            cert = out.as_dict()
            checks.check_certificate(ns, cert, tau, mode, name)
            if name.startswith("example.robust"):
                checks.check_example_golden(cert, tau, name)


def filter_config(kind, params):
    return robkf.FilterConfig(kind=kind, **params)


class FilterStream:
    """run_filter over 1000 observations for five filter kinds, a robust
    n = 4 filter at a tiny radius, and two fixed-point iterations; the
    divergence, Riccati and filter layers' workload."""

    name = "filter_stream"

    def build(self, seed: int, workdir: Path) -> None:
        rng = np.random.default_rng([seed, 2])
        self.y = checks.simulate(EXAMPLE, STEPS, rng)
        self.small = random_model(rng, 4)
        self.y_small = checks.simulate(self.small, STEPS, rng)
        self.example = program_model(EXAMPLE)
        self.small_model = program_model(self.small)

    def ops(self):
        def run(model, kind, params, y):
            config = filter_config(kind, params)
            return lambda: robkf.run_filter(model, config, y)

        ops = [Op(name, run(self.example, kind, params, self.y)) for name, kind, params in FILTERS]
        ops.append(Op("robust.n4.small_c", run(
            self.small_model, "robust", {"tau": 0.5, "c": SMALL_C}, self.y_small)))
        start = np.eye(2)
        ops.append(Op("fixed_point.standard",
                      lambda: robkf.iterate_to_fixed_point(self.example, start)))
        ops.append(Op("fixed_point.robust.tau0.5", lambda: robkf.iterate_to_fixed_point(
            self.example, start, "robust", tau=0.5, c=0.10)))
        return ops

    def untraced_layer_metrics(self, medians: dict, outputs: dict) -> dict:
        def step_us(names):
            return 1e6 * statistics.median(medians[name] for name in names) / STEPS
        return {
            "filters.standard.step_us": step_us(["standard"]),
            "filters.robust.step_us": step_us(["robust.tau0", "robust.tau0.5", "robust.tau1"]),
            "filters.risk_sensitive.step_us": step_us(["risk_sensitive.tau1"]),
        }

    def check(self, outputs: dict) -> None:
        for name, kind, params in FILTERS:
            ft = outputs[name]
            checks.check_trajectory(EXAMPLE, kind, self.y, ft.estimates, ft.P_seq, ft.V_seq,
                                    ft.theta_seq, name, **params)
        ft = outputs["robust.n4.small_c"]
        checks.check_trajectory(self.small, "robust", self.y_small, ft.estimates, ft.P_seq,
                                ft.V_seq, ft.theta_seq, "robust.n4.small_c", tau=0.5, c=SMALL_C)
        fp = outputs["fixed_point.standard"]
        checks.check_fixed_point(EXAMPLE, "standard", fp.P_star, fp.V_star, fp.theta_star,
                                 outputs["standard"].P_seq[-1], "fixed_point.standard")
        fp = outputs["fixed_point.robust.tau0.5"]
        checks.check_fixed_point(EXAMPLE, "robust", fp.P_star, fp.V_star, fp.theta_star,
                                 outputs["robust.tau0.5"].P_seq[-1], "fixed_point.robust.tau0.5",
                                 tau=0.5, c=0.10)


@dataclass(frozen=True)
class CliResult:
    returncode: int
    stdout: str


def cli_env() -> dict:
    """The child's environment: robkf from this checkout's src/, BLAS as set."""
    env = dict(os.environ)
    src = str(Path(robkf.__file__).resolve().parent.parent)
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


class CliCompare:
    """Fresh ``python -m robkf.cli`` processes for compare, run and certify;
    what a command-line user waits for."""

    name = "cli_compare"

    def build(self, seed: int, workdir: Path) -> None:
        rng = np.random.default_rng([seed, 3])
        self.seed = seed
        self.y = checks.simulate(EXAMPLE, STEPS, rng)
        self.model_path = workdir / "model.json"
        self.obs_path = workdir / "observations.csv"
        self.model_path.write_text(json.dumps({f: getattr(EXAMPLE, f).tolist() for f in FIELDS}))
        self.obs_path.write_text("y1\n" + "".join(f"{v!r}\n" for v in self.y[:, 0].tolist()))
        model = str(self.model_path)
        self.argv = {
            "compare": ["compare", "--model", model, "--steps", str(STEPS), "--seed", str(seed)],
            "run": ["run", "--model", model, "--kind", "robust", "--tau", "0.5", "--c", "0.10",
                    "--obs", str(self.obs_path)],
            "certify": ["certify", "--model", model, "--tau", "0.5"],
        }
        self.env = cli_env()

    def ops(self, in_process: bool = False):
        def child(argv):
            cmd = [sys.executable, "-m", "robkf.cli", *argv]

            def call():
                done = subprocess.run(cmd, env=self.env, capture_output=True, text=True)
                return CliResult(done.returncode, done.stdout)
            return call

        def inline(argv):
            def call():
                buf = io.StringIO()
                with contextlib.redirect_stdout(buf):
                    code = robkf.cli.main(argv)
                return CliResult(code, buf.getvalue())
            return call

        make = inline if in_process else child
        return [Op(name, make(argv)) for name, argv in self.argv.items()]

    def untraced_layer_metrics(self, medians: dict, outputs: dict) -> dict:
        metrics = {f"cli.{name}.s": medians[name] for name in self.argv}
        metrics["cli.output_bytes"] = sum(len(out.stdout.encode()) for out in outputs.values())
        return metrics

    def check(self, outputs: dict) -> None:
        for name, out in outputs.items():
            checks.expect(out.returncode == 0, f"cli {name}: exit code {out.returncode}")
        model = program_model(EXAMPLE)

        printed = json.loads(outputs["certify"].stdout)
        checks.expect(printed == robkf.certify(model, 0.5).as_dict(),
                      "cli certify: the JSON differs from the library's certificate")
        checks.check_certificate(EXAMPLE, printed, 0.5, "robust", "cli certify")
        checks.check_example_golden(printed, 0.5, "cli certify")

        params = {"tau": 0.5, "c": 0.10}
        ft = robkf.run_filter(model, filter_config("robust", params), self.y)
        header, rows = checks.parse_csv(outputs["run"].stdout)
        checks.check_exact([v for r in rows for v in r], _csv_values([ft]), "cli run")
        self._check_block(header, rows, "", "robust", params, self.y, "cli run")

        certs = {tau: robkf.certify(model, tau) for tau in (0.0, 0.5, 1.0)}
        configs = [robkf.FilterConfig.standard()] + [
            robkf.FilterConfig.robust(tau, cert.c_max) for tau, cert in certs.items()
        ]
        table = robkf.compare_filters(model, configs, STEPS, self.seed)
        header, rows = checks.parse_csv(outputs["compare"].stdout)
        checks.check_exact([v for r in rows for v in r], _csv_values(table.runs), "cli compare")
        y = checks.simulate(EXAMPLE, STEPS, np.random.default_rng(self.seed))
        self._check_block(header, rows, "kf_", "standard", {}, y, "cli compare kf")
        for tau, cert in certs.items():
            prefix = "rkf_tau" + f"{tau:g}".replace(".", "") + "_"
            self._check_block(header, rows, prefix, "robust", {"tau": tau, "c": cert.c_max}, y,
                              f"cli compare {prefix[:-1]}")

    def _check_block(self, header, rows, prefix, kind, params, y, label):
        x, P, V, theta = checks.trajectory_columns(header, rows, prefix, 2)
        estimates = np.vstack([EXAMPLE.x0_mean, x])
        V_seq = np.concatenate([EXAMPLE.V0[None], V])
        checks.check_trajectory(EXAMPLE, kind, y, estimates, P, V_seq, theta, label, **params)


def _csv_values(runs) -> list:
    """The numbers of run/compare CSV rows in their documented order."""
    T = runs[0].steps
    iu = np.triu_indices(runs[0].P_seq.shape[1])
    blocks = [np.arange(1, T + 1)[:, None]]
    for ft in runs:
        blocks += [ft.estimates[1:], ft.P_seq[:, iu[0], iu[1]], ft.V_seq[1:, iu[0], iu[1]],
                   ft.theta_seq[:, None]]
    return np.hstack(blocks).ravel().tolist()


WORKLOADS = {w.name: w for w in (CertifyModels, FilterStream, CliCompare)}
