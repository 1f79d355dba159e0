"""Command-line front end: certification, filter runs, comparisons.

Four subcommands wrap the library for scripted use and emit CSV/JSON
for plotting:

    robkf certify --model m.json --tau 0.5        convergence certificate
    robkf run     --model m.json --kind robust    one filter, CSV trajectory
    robkf compare --model m.json                  several filters, aligned CSV
    robkf metric  P.json Q.json                   Thompson distance d_T(P, Q)

Every command is deterministic given its arguments and the BLAS thread
count (the thread count moves the last digits of certificates, and so
of the default compare panel's radii and CSV): simulation draws
come from numpy.random.default_rng(seed) (PCG64) via standard_normal,
for the initial state x0 = x0_mean + chol(V0) z and the per-step noise
v_k alike. Numbers are written in shortest round-trip decimal form, so
re-reading a CSV reproduces the doubles exactly. Each trajectory's
xhat columns are formatted for every row; its P, V and theta columns are
formatted up to the end of the first period of its ``cycle``, or up to
its ``settled`` step, and later rows reuse those strings, as
``run_filter`` replays the arrays.
``compare`` runs each filter of its panel through ``run_filter`` against
one simulated trajectory, and its default panel certifies the model once
for all three tau. A failed write of the output file or stream, help
text included, is an ``OutputError`` (exit 1); a missing ``--out``
directory is found before the command does any work.

``python -m robkf.cli`` and the ``robkf`` script start at ``entry``,
which freezes the import-time heap before it runs ``main``; ``main``
itself changes nothing process-wide.
"""
from __future__ import annotations

import argparse
import gc
import json
import logging
import os
import sys
from typing import Optional, Sequence

import numpy as np

from robkf.contraction import _certify_each, certify, thompson_metric
from robkf.errors import (ConfigError, ModelError, ModelIOError, NumericError, OutputError,
                          RobkfError)
from robkf.filters import _replay, compare_filters, load_observations, run_filter
from robkf.model import _read_json, load_model, simulate
from robkf.riccati import FilterConfig

__all__ = ["cmd_certify", "cmd_run", "cmd_compare", "cmd_metric", "main", "entry"]

log = logging.getLogger("robkf.cli")  # also when run as ``python -m robkf.cli``

_LOG_LEVELS = {"error": logging.ERROR, "info": logging.INFO, "debug": logging.DEBUG}

_RNG_NOTE = (
    "Reproducibility: trajectories are simulated with "
    "numpy.random.default_rng(seed) (PCG64); the initial state is "
    "x0_mean + chol(V0) @ z and each step draws v_k by standard_normal, "
    "so a fixed --seed reproduces output files bit for bit. Filters use "
    "V0 from the model file as the gain covariance of step 0, then "
    "alternate prediction and reweighting."
)


def _fmt(x) -> str:
    return repr(float(x))


def _upper_tri_names(name: str, n: int) -> list:
    return [f"{name}_{i}{j}" for i in range(1, n + 1) for j in range(i, n + 1)]


def _output_error(target: str, exc: OSError) -> OutputError:
    return OutputError(f"cannot write {target}: {exc.strerror or exc}")


def _write(text: str, output_path: Optional[str]) -> None:
    """Write a command's output to the file, or to stdout and flush it,
    so that a failed write is an ``OutputError`` inside the command."""
    try:
        if output_path is None:
            sys.stdout.write(text)
            sys.stdout.flush()
        else:
            with open(output_path, "w", newline="") as fh:
                fh.write(text)
    except OSError as exc:
        raise _output_error("stdout" if output_path is None else output_path, exc) from None


def _check_out_dir(output_path: str) -> None:
    """``OutputError`` with ``_write``'s text, before any work, if the directory
    of the output file is missing or is not one. Opens and creates nothing."""
    try:
        os.stat(os.path.join(os.path.dirname(output_path) or ".", ""))
    except OSError as exc:
        raise _output_error(output_path, exc) from None


def _emit_csv(header: list, runs: list, output_path: Optional[str]) -> None:
    """Write the header, then row k = 1 .. T of the trajectories' columns
    side by side, each number in shortest round-trip form."""
    columns = [_trajectory_rows(ft) for ft in runs]
    _write("".join([",".join(header) + "\n"]
                   + [f"{k}," + ",".join(parts) + "\n" for k, parts in enumerate(zip(*columns), 1)]),
           output_path)


def _trajectory_columns(prefix: str, n: int) -> list:
    return ([f"{prefix}xhat_{i}" for i in range(1, n + 1)] + _upper_tri_names(f"{prefix}P", n)
            + _upper_tri_names(f"{prefix}V", n) + [f"{prefix}theta"])


def _trajectory_block(ft) -> np.ndarray:
    """Rows k = 1 .. T of one trajectory's columns as one (T, cols) array:
    xhat_k, the upper triangles of P_k and V_k, theta_k."""
    i, j = np.triu_indices(ft.P_seq.shape[-1])
    return np.hstack([ft.estimates[1:], ft.P_seq[:, i, j], ft.V_seq[1:, i, j],
                      ft.theta_seq[:, None]])


def _trajectory_rows(ft) -> list:
    """The formatted rows of ``_trajectory_block(ft)``. Once (V, theta)_{j+p}
    repeats (V, theta)_j, row k > j + p holds the bits of row k - p in
    every column but xhat, and once the run settled at step s, row k > s
    those of row s (j, p = s - 1, 1), so those columns are formatted for
    rows 1 .. j + p only and reused after."""
    block = _trajectory_block(ft)
    n, T = ft.estimates.shape[1], len(block)
    replay = _replay(ft.cycle, ft.settled)
    stop = T if replay is None else min(T, sum(replay))
    xhat = [",".join(map(repr, row)) for row in block[:, :n].tolist()]
    rest = [",".join(map(repr, row)) for row in block[:stop, n:].tolist()]
    if stop < T:
        j, period = replay
        rest += [rest[j + (k - j) % period] for k in range(stop, T)]
    return [f"{x},{r}" for x, r in zip(xhat, rest)]


def cmd_certify(args: argparse.Namespace) -> int:
    model = load_model(args.model)
    cert = certify(model, tau=args.tau, q=args.q, N=args.N, mode=args.mode)
    _write(json.dumps(cert.as_dict(), indent=2) + "\n", args.out)
    return 0


def cmd_run(args: argparse.Namespace) -> int:
    model = load_model(args.model)
    config = FilterConfig(kind=args.kind, tau=args.tau, c=args.c, theta=args.theta)
    if args.obs is not None:
        if args.steps is not None or args.seed is not None:
            raise ConfigError("--obs replaces --steps and --seed")
        y = load_observations(args.obs)
    else:
        if args.steps is None:
            raise ConfigError("run needs --steps (with optional --seed) or --obs")
        seed = 0 if args.seed is None else args.seed
        y = simulate(model, args.steps, seed).observations

    ft = run_filter(model, config, y)
    _emit_csv(["k"] + _trajectory_columns("", model.n), [ft], args.out)
    return 0


def _parse_filter_spec(spec: str) -> FilterConfig:
    """Parse 'kind' or 'kind:key=value,...' with keys tau, c, theta, each at most once."""
    kind, _, rest = spec.partition(":")
    kw = {}
    if rest:
        for item in rest.split(","):
            key, eq, value = item.partition("=")
            key = key.strip()
            if not eq or key not in ("tau", "c", "theta"):
                raise ConfigError(f"bad filter spec item {item!r} in {spec!r}")
            if key in kw:
                raise ConfigError(f"repeated key {key!r} in filter spec {spec!r}")
            try:
                kw[key] = float(value)
            except ValueError:
                raise ConfigError(f"non-numeric value in filter spec {spec!r}") from None
    return FilterConfig(kind=kind.strip(), **kw)


def cmd_compare(args: argparse.Namespace) -> int:
    model = load_model(args.model)
    if args.filter:
        if args.q is not None or args.N is not None:
            raise ConfigError("--q and --N certify the default panel; --filter replaces it")
        configs = [_parse_filter_spec(s) for s in args.filter]
    else:
        q = 40 if args.q is None else args.q
        configs = [FilterConfig.standard()] + [
            FilterConfig.robust(cert.tau, cert.c_max)
            for cert in _certify_each(model, (0.0, 0.5, 1.0), q=q, N=args.N)
        ]
    steps = 100 if args.steps is None else args.steps
    seed = 0 if args.seed is None else args.seed
    table = compare_filters(model, configs, steps, seed)

    header = ["k"]
    for label in table.labels:
        header += _trajectory_columns(f"{label}_", model.n)
    _emit_csv(header, table.runs, args.out)
    if log.isEnabledFor(logging.INFO):
        for label in table.labels:
            log.info("rmse %s = %s", label, _fmt(table.rmse(label)))
    return 0


def _load_matrix(path: str) -> np.ndarray:
    data = _read_json(path, "matrix")
    try:
        arr = np.asarray(data, dtype=float)
    except (TypeError, ValueError) as exc:
        raise ModelIOError(f"matrix: {path} is not a rectangular numeric array") from exc
    if arr.ndim != 2 or arr.shape[0] != arr.shape[1]:
        raise ModelIOError(f"matrix: {path} must hold a square 2-D array, got shape {arr.shape}")
    return arr


def cmd_metric(P_file: str, Q_file: str) -> int:
    P = _load_matrix(P_file)
    Q = _load_matrix(Q_file)
    _write(_fmt(thompson_metric(P, Q)) + "\n", None)
    return 0


class _Parser(argparse.ArgumentParser):
    """argparse exits with 2 on usage errors; this CLI reserves 2 for
    input errors, so remap to 1. Help on stdout goes through ``_write``,
    where argparse would drop a failed write."""

    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"error: {message}", file=sys.stderr)
        raise SystemExit(1)

    def print_help(self, file=None):
        if file is None:
            _write(self.format_help(), None)
        else:
            super().print_help(file)


def _add_common(sub):
    sub.add_argument("--model", required=True, help="model JSON file")
    sub.add_argument("--out", dest="out", default=None, help="output file (default stdout)")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="robkf",
        description="Robust and risk-sensitive Kalman filters with convergence certificates.",
        epilog=_RNG_NOTE,
    )
    sub = parser.add_subparsers(dest="command", metavar="command")

    cert = sub.add_parser("certify", help="compute c_max / theta_max for a model",
                          epilog=_RNG_NOTE)
    _add_common(cert)
    cert.add_argument("--tau", type=float, required=True, help="divergence family parameter in [0, 1]")
    cert.add_argument("--q", type=int, default=40, help="Riccati burn-in length (default 40)")
    cert.add_argument("--N", type=int, default=None, help="lifted block length (default max(n, 50))")
    cert.add_argument("--mode", choices=("robust", "risk_sensitive"), default="robust")
    cert.set_defaults(func=cmd_certify)

    run = sub.add_parser("run", help="run one filter, write its trajectory as CSV",
                         epilog=_RNG_NOTE)
    _add_common(run)
    run.add_argument("--kind", choices=("standard", "robust", "risk_sensitive"), required=True)
    run.add_argument("--tau", type=float, default=None)
    run.add_argument("--c", type=float, default=None, help="divergence budget (robust kind)")
    run.add_argument("--theta", type=float, default=None, help="risk parameter (risk_sensitive kind)")
    run.add_argument("--steps", type=int, default=None, help="simulation length")
    run.add_argument("--seed", type=int, default=None, help="simulation seed (default 0)")
    run.add_argument("--obs", default=None,
                     help="CSV of observations (header y1..yp) instead of simulating")
    run.set_defaults(func=cmd_run)

    comp = sub.add_parser("compare", help="run several filters on one simulated trajectory",
                          epilog=_RNG_NOTE)
    _add_common(comp)
    comp.add_argument("--steps", type=int, default=None, help="simulation length (default 100)")
    comp.add_argument("--seed", type=int, default=None, help="simulation seed (default 0)")
    comp.add_argument("--q", type=int, default=None,
                      help="certification burn-in of the default panel (default 40)")
    comp.add_argument("--N", type=int, default=None,
                      help="certification block length of the default panel")
    comp.add_argument(
        "--filter", action="append", default=None, metavar="SPEC",
        help="filter spec 'standard', 'robust:tau=T,c=C', or 'risk_sensitive:tau=T,theta=H'; "
             "repeatable; default is the standard filter plus robust filters at "
             "tau in {0, 0.5, 1} with their certified c_max",
    )
    comp.set_defaults(func=cmd_compare)

    met = sub.add_parser("metric", help="Thompson distance between two SPD matrices")
    met.add_argument("P", help="JSON file holding a square matrix")
    met.add_argument("Q", help="JSON file holding a square matrix")
    met.set_defaults(func=lambda a: cmd_metric(a.P, a.Q))

    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    """Run one command and return its exit code. For the call only, the
    ``robkf`` logger takes its level from ROBKF_LOG (error, info or debug)
    and writes to stderr alone; no other logger changes."""
    pkg = logging.getLogger("robkf")
    saved = pkg.level, pkg.propagate
    handler = logging.StreamHandler(sys.stderr)
    handler.setFormatter(logging.Formatter("%(levelname)s %(name)s: %(message)s"))
    pkg.addHandler(handler)
    pkg.setLevel(_LOG_LEVELS.get(os.environ.get("ROBKF_LOG", "error").strip().lower(), logging.ERROR))
    pkg.propagate = False
    try:
        return _main(argv)
    finally:
        pkg.removeHandler(handler)
        pkg.setLevel(saved[0])
        pkg.propagate = saved[1]


def _main(argv: Optional[Sequence[str]]) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        if getattr(args, "func", None) is None:
            parser.print_usage(sys.stderr)
            return 1
        tau = getattr(args, "tau", None)
        if tau is not None and not 0.0 <= tau <= 1.0:
            raise ConfigError(f"tau must lie in [0, 1], got {tau}")
        if getattr(args, "out", None) is not None:
            _check_out_dir(args.out)
        log.info("arguments: %s", {k: v for k, v in vars(args).items() if k != "func"})
        return args.func(args)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else 1
    except RobkfError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2 if isinstance(exc, ModelError) else 3 if isinstance(exc, NumericError) else 1


def entry() -> int:
    """The process entry of ``python -m robkf.cli`` and the ``robkf``
    script: freeze the objects made by the imports, so that no full
    collection, the one at interpreter exit included, walks them, then
    run ``main``."""
    gc.freeze()
    return main()


if __name__ == "__main__":
    sys.exit(entry())
