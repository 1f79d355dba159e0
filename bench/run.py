"""robkf benchmark: fixed passes of operations, timed per operation.

    python3 bench/run.py --workload certify_models --seed 1 --seconds 20 --trace 0

Run from anywhere inside a checkout whose src/ holds robkf; the package
is imported from that src/ and nowhere else. Workloads (see README.md):
certify_models, filter_stream, cli_compare. One untimed warm-up pass is
checked for correctness against plain-numpy references; every timed
pass must then reproduce its outputs bit for bit. Passes repeat until
--seconds have elapsed.

With --trace 0 the last line of stdout is a JSON object with the
end-to-end metrics (pass_s, setup_s, peak_rss_mb); with --trace 1 it has
the per-layer metrics, from an untraced phase and a traced phase that
wraps robkf's public functions and the scipy.linalg kernels. Results,
spans and generated inputs go to .bench_out/ in the checkout.
"""
import os
import sys
import time

PROCESS_START = time.perf_counter()
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
# One BLAS thread, set before numpy loads and inherited by the CLI children:
# on a 2-CPU machine OpenBLAS threading alone changes certify by 6x.
for _var in BLAS_THREAD_VARS:
    os.environ[_var] = "1"

import argparse  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
from pathlib import Path  # noqa: E402

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".bench_out"

# Set-up is timed this many times per untraced run (this process and
# fresh children), and setup_s is the median.
SETUP_SAMPLES = 5
IMPORT_SAMPLES = 3
# CPU speed on a shared machine drifts by 20% and more within minutes. So
# a fixed calibration kernel is timed after every operation, and pass_s is
# the sum of the operations' median times scaled by
# CALIBRATION_REFERENCE_S / (the kernel's median time in the run): seconds
# at the speed where the kernel takes CALIBRATION_REFERENCE_S, its median
# on the 2-CPU machine the benchmark was written on. The kernel mixes the
# workloads' two kinds of work: 100 plain-numpy Kalman predictor steps on
# 2-wide matrices, then a solve and a Cholesky factorization 300 wide.
CALIBRATION_STEPS = 100
CALIBRATION_WIDTH = 300
CALIBRATION_REFERENCE_S = 0.013

END_TO_END = {"pass_s": "s", "setup_s": "s", "peak_rss_mb": "MB"}
# Per pass: .calls counts calls, .self_s sums self time; .us and .ms are
# self time per call. See README.md for what each should move.
PER_LAYER = {
    "divergence.solve_theta.calls": "calls/pass",
    "divergence.solve_theta.us": "us",
    "divergence.v_update.calls": "calls/pass",
    "divergence.v_update.us": "us",
    "divergence.gamma.calls": "calls/pass",
    "divergence.gamma.us": "us",
    "divergence.self_s": "s/pass",
    "riccati.gain.calls": "calls/pass",
    "riccati.gain.us": "us",
    "riccati.predict_covariance.calls": "calls/pass",
    "riccati.predict_covariance.us": "us",
    "riccati.standard_riccati.calls": "calls/pass",
    "riccati.standard_riccati.us": "us",
    "riccati.iterate_to_fixed_point.ms": "ms",
    "riccati.self_s": "s/pass",
    "contraction.build_downsampled.calls": "calls/pass",
    "contraction.build_downsampled.ms": "ms",
    "contraction.find_phi_N.calls": "calls/pass",
    "contraction.find_phi_N.ms": "ms",
    "contraction.certify_small.ms": "ms",
    "contraction.certify_wide.ms": "ms",
    "contraction.self_s": "s/pass",
    "model.normalize.calls": "calls/pass",
    "model.normalize.us": "us",
    "model.load_model.us": "us",
    "model.self_s": "s/pass",
    "filters.steps": "steps/pass",
    "filters.standard.step_us": "us",
    "filters.robust.step_us": "us",
    "filters.risk_sensitive.step_us": "us",
    "filters.self_s": "s/pass",
    "cli.import_s": "s",
    "cli.compare.s": "s",
    "cli.run.s": "s",
    "cli.certify.s": "s",
    "cli.self_s": "s/pass",
    "cli.output_bytes": "bytes/pass",
    "linalg.calls": "calls/pass",
    "linalg.cholesky.calls": "calls/pass",
    "linalg.cho_solve.calls": "calls/pass",
    "linalg.eigh.calls": "calls/pass",
    "linalg.eigvalsh.calls": "calls/pass",
    "linalg.solve.calls": "calls/pass",
    "linalg.self_s": "s/pass",
    "warmup_s": "s",
    "trace.overhead_s": "s",
}
LINALG_KERNELS = ("cholesky", "cho_solve", "eigh", "eigvalsh", "solve")


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true",
                        help="time set-up alone and print it (used for setup_s samples)")
    return parser.parse_args(argv)


def fail(message: str) -> int:
    print(f"bench/run.py: {message}", file=sys.stderr)
    return 2


def environment() -> dict:
    import numpy
    import scipy

    def blas(module):
        try:
            dep = module.__config__.CONFIG["Build Dependencies"]["blas"]
            return f"{dep['name']} {dep['version']}"
        except (AttributeError, KeyError):
            return "unknown"

    commit = None
    if (ROOT / ".git").exists():
        done = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                              capture_output=True, text=True)
        commit = done.stdout.strip() or None
    digest = hashlib.sha256()
    for path in sorted((SRC / "robkf").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "numpy_blas": blas(numpy),
        "scipy_blas": blas(scipy),
        "cpu_count": os.cpu_count(),
        "blas_threads": {var: os.environ.get(var) for var in BLAS_THREAD_VARS},
        "git_commit": commit,
        "src_sha256": digest.hexdigest(),
    }


class Runner:
    """Runs passes of one workload's operations and keeps their times."""

    def __init__(self, robkf, workloads, checks):
        self.robkf = robkf
        self.workloads = workloads
        self.checks = checks
        np = workloads.np
        self.calibration_y = np.zeros((CALIBRATION_STEPS, 1))
        F = np.random.default_rng(0).standard_normal((CALIBRATION_WIDTH, CALIBRATION_WIDTH))
        self.calibration_m = F @ F.T + CALIBRATION_WIDTH * np.eye(CALIBRATION_WIDTH)
        self.reference = None
        self.tracer = None
        self.errors = []

    def calibrate(self) -> float:
        """Seconds the calibration kernel takes now."""
        np = self.workloads.np
        start = time.perf_counter()
        self.checks.kalman_predictor(self.workloads.EXAMPLE, self.calibration_y)
        np.linalg.solve(self.calibration_m, self.calibration_m)
        np.linalg.cholesky(self.calibration_m)
        return time.perf_counter() - start

    def call(self, op):
        start = time.perf_counter()
        try:
            out = op.fn()
        except self.robkf.RobkfError as exc:
            out = exc
        return out, time.perf_counter() - start

    def one_pass(self, ops, samples=None):
        outputs, failed = {}, 0
        for op in ops:
            if self.tracer is None:
                out, seconds = self.call(op)
            else:
                with self.tracer.span(f"harness.{op.name}"):
                    out, seconds = self.call(op)
            if samples is not None:
                samples[op.name].append(seconds)
                self.calibration.append(self.calibrate())
            outputs[op.name] = out
            failed += isinstance(out, self.robkf.RobkfError) or getattr(out, "returncode", 0) != 0
            if self.reference is not None and not self.workloads.identical(
                    out, self.reference[op.name]):
                self.errors.append(f"{op.name}: output differs from the checked warm-up pass")
        return outputs, failed

    def timed(self, ops, seconds):
        """Whole passes until ``seconds`` have elapsed; at least one."""
        samples = {op.name: [] for op in ops}
        self.calibration = []
        attempted = failed = passes = 0
        deadline = time.perf_counter() + seconds
        while True:
            _, f = self.one_pass(ops, samples)
            attempted += len(ops)
            failed += f
            passes += 1
            if time.perf_counter() >= deadline:
                break
        self.samples = samples
        medians = {name: statistics.median(ts) for name, ts in samples.items()}
        return medians, attempted, failed, passes


def child_seconds(cmd, env=None) -> float:
    done = subprocess.run(cmd, env=env, capture_output=True, text=True, check=True)
    return float(json.loads(done.stdout.strip().splitlines()[-1])["seconds"])


def setup_samples(args, first: float) -> list:
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
           "--seed", str(args.seed), "--setup-only"]
    return [first] + [child_seconds(cmd) for _ in range(SETUP_SAMPLES - 1)]


def import_seconds(env) -> float:
    code = ("import json, time; t = time.perf_counter(); import robkf.cli; "
            "print(json.dumps({'seconds': time.perf_counter() - t}))")
    return statistics.median(
        child_seconds([sys.executable, "-c", code], env) for _ in range(IMPORT_SAMPLES))


def peak_rss_mb() -> float:
    kib = max(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
              resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)
    return kib / 1024.0


def layer_metrics(tracer, passes: int) -> dict:
    """Per-layer metrics from the spans of ``passes`` traced passes."""
    from spans import layer_of

    s = tracer.summary()
    calls, self_ns = s["calls"], s["self_ns"]
    kernels = {n: c for n, c in calls.items() if n.startswith("scipy.linalg.")}
    out = {
        "linalg.calls": sum(kernels.values()) / passes,
        "filters.steps": s["under"].get(
            ("filters.run_filter", "riccati.predict_covariance"), 0) / passes,
    }
    for kernel in LINALG_KERNELS:
        out[f"linalg.{kernel}.calls"] = kernels.get(f"scipy.linalg.{kernel}", 0) / passes
    for name in PER_LAYER:
        span, _, stat = name.rpartition(".")
        if name in out:
            continue
        if stat == "self_s":
            out[name] = sum(ns for n, ns in self_ns.items() if layer_of(n) == span) / passes / 1e9
        elif span in tracer.name_ids and stat == "calls":
            out[name] = calls.get(span, 0) / passes
        elif span in tracer.name_ids and stat in ("us", "ms"):
            n = calls.get(span, 0)
            out[name] = self_ns.get(span, 0) / n / (1e3 if stat == "us" else 1e6) if n else 0.0
    return out


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "robkf" / "__init__.py").is_file():
        return fail(f"no robkf package under {SRC}; run inside a robkf checkout")
    sys.path.insert(0, str(SRC))
    import robkf
    import robkf.cli  # noqa: F401  (part of set-up: every workload imports the CLI)

    if Path(robkf.__file__).resolve().parent != (SRC / "robkf").resolve():
        return fail(f"imported robkf from {robkf.__file__}, not from {SRC}")
    import workloads

    if args.workload not in workloads.WORKLOADS:
        return fail(f"unknown workload {args.workload!r}; one of {sorted(workloads.WORKLOADS)}")
    tag = f"probe-{os.getpid()}" if args.setup_only else (
        f"{args.workload}-seed{args.seed}-trace{args.trace}")
    workdir = OUT_DIR / tag
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)
    workload = workloads.WORKLOADS[args.workload]()
    workload.build(args.seed, workdir)
    setup_s = time.perf_counter() - PROCESS_START
    if args.setup_only:
        shutil.rmtree(workdir)
        print(json.dumps({"seconds": setup_s}))
        return 0

    import checks

    runner = Runner(robkf, workloads, checks)
    ops = workload.ops()
    start = time.perf_counter()
    reference, _ = runner.one_pass(ops)
    warmup_s = time.perf_counter() - start
    try:
        workload.check(reference)
    except checks.CheckFailed as exc:
        runner.errors.append(f"warm-up pass: {exc}")
    runner.reference = reference
    for name, out in reference.items():
        if isinstance(out, workloads.CliResult):
            (workdir / f"{name}.out").write_text(out.stdout)

    if args.trace == 0:
        medians, attempted, failed, passes = runner.timed(ops, args.seconds)
        calibration_s = statistics.median(runner.calibration)
        values = {
            "pass_s": sum(medians.values()) * CALIBRATION_REFERENCE_S / calibration_s,
            "setup_s": statistics.median(setup_samples(args, setup_s)),
            "peak_rss_mb": peak_rss_mb(),
        }
        units = END_TO_END
        extra = {"pass_wall_s": sum(medians.values()), "calibration_s": calibration_s,
                 "op_median_s": medians, "op_samples_s": runner.samples, "warmup_s": warmup_s}
    else:
        from spans import Tracer

        inline = args.workload == "cli_compare"
        phases = 3 if inline else 2
        medians, attempted, failed, passes = runner.timed(ops, args.seconds / phases)
        values = dict.fromkeys(PER_LAYER, 0.0)
        values.update(workload.untraced_layer_metrics(medians, reference))
        untraced = medians
        if inline:
            ops = workload.ops(in_process=True)
            runner.one_pass(ops)
            untraced, a, f, p = runner.timed(ops, args.seconds / phases)
            attempted, failed, passes = attempted + a, failed + f, passes + p
        tracer = Tracer()
        runner.tracer = tracer
        with tracer.installed():
            traced, a, f, p = runner.timed(ops, args.seconds / phases)
        attempted, failed, passes = attempted + a, failed + f, passes + p
        values.update(layer_metrics(tracer, p))
        values["cli.import_s"] = import_seconds(workloads.cli_env())
        values["warmup_s"] = warmup_s
        values["trace.overhead_s"] = sum(traced.values()) - sum(untraced.values())
        tracer.write(workdir / "spans.csv.gz")
        units = PER_LAYER
        extra = {"op_median_s": medians, "traced_op_median_s": traced, "traced_passes": p}

    result = {
        "correct": not runner.errors,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": values[name], "unit": unit} for name, unit in units.items()},
    }
    env = environment()
    record = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace, "passes": passes, "environment": env,
              "errors": runner.errors, **extra, **result}
    (workdir / "result.json").write_text(json.dumps(record, indent=1) + "\n")
    for error in runner.errors:
        print(f"check failed: {error}", file=sys.stderr)
    print("environment " + json.dumps(env))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
