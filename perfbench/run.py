"""boostvi benchmark: one workload, one seed, one process.

Run from the root of a source checkout:

    python3 perfbench/run.py --workload bimodal-corrective --seed 1 --seconds 30 --trace 0

Each fit is ``boostvi.cli.main(["run", "--config", CFG, "--seed", S, "--out", DIR])``,
the path a user runs.  A short warm-up fit comes first and is not timed.

``--trace 0`` repeats the workload's fit on the same seed while the time
budget allows (at least once) and reports the end-to-end metrics: run_s
(median fit time), setup_s (median over fresh interpreters of import plus
config, data and model construction, up to the first LMO call) and
peak_rss_mb.  Both times are scaled to a nominal host speed by probes taken
around and inside each fit or set-up (see hostspeed.py); their plain
wallclock is printed as run_wall_s and setup_wall_s.

``--trace 1`` reports the per-layer metrics: one untraced fit, kernel
microbenchmarks on the model that fit built, then one traced fit of the same
seed.  The difference of the two fits' scaled times is the tracing overhead.

Every fit's outputs are checked (see checks.py).  Human-readable lines with
every metric, its unit and the environment come first; the last line of
standard output is the JSON result.  Artifacts go to
``.perfbench/<workload>-seed<S>-trace<T>/`` under the checkout.
"""

from __future__ import annotations

import os
import sys

THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
BLAS_THREADS = "1"  # one thread: the arrays are tiny, and the box is shared
for _var in THREAD_VARS:
    os.environ[_var] = BLAS_THREADS  # before numpy is first imported

import argparse  # noqa: E402
import contextlib  # noqa: E402
import importlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import time  # noqa: E402
from dataclasses import dataclass, field  # noqa: E402

from hostspeed import HostSpeed, Timer, scale  # noqa: E402
from stats import describe, timing_summary  # noqa: E402
from workloads import (  # noqa: E402
    DEFAULT_SEED, KL_TARGET, WARMUP_OVERRIDES, WORKLOADS, Workload,
)

HERE = os.path.dirname(os.path.abspath(__file__))
SETUP_RUNS = 3
PER_CALL_SPANS = ("lmo.solve", "densities.mixture_log_prob", "densities.mixture_grad_log_prob",
                  "models.log_joint", "models.grad", "boosting.certificate_gap")
SETUP_TIMEOUT_S = 120
# a traced fit, less the tracer's estimated cost, may differ from the untraced
# fit by this share of the untraced fit's time: the host's noise.  Six traced
# runs (three workloads, seeds 1 and 3) missed by -11 % to +16 %.
TRACE_TOLERANCE = 0.5


def _fail(message: str) -> int:
    print(f"perfbench: {message}", file=sys.stderr)
    return 2


@dataclass
class Fit:
    exit_code: int
    run_s: float
    out_dir: str
    # run_s scaled to the nominal host speed
    scaled_s: float
    # (t, seconds since run_boosting started, kl_oracle) per iterate
    iterates: list = field(default_factory=list)
    errors: list = field(default_factory=list)
    quality: dict = field(default_factory=dict)
    trace: dict = field(default_factory=dict)


class Bench:
    def __init__(self, root: str, workload: Workload, seed: int, trace: bool):
        import boostvi.cli
        import boostvi.harness

        self.host = HostSpeed()
        self.timer = Timer(self.host)
        self.cli = boostvi.cli
        self.harness = boostvi.harness
        self.workload = workload
        self.seed = seed
        self.work_dir = os.path.join(
            root, ".perfbench", f"{workload.name}-seed{seed}-trace{int(trace)}")
        shutil.rmtree(self.work_dir, ignore_errors=True)
        os.makedirs(self.work_dir)
        self.config_path = self._write_config("config.json", workload.cli_config())
        self.warmup_path = self._write_config(
            "warmup.json", workload.cli_config(**WARMUP_OVERRIDES))
        self._iterates: list = []
        self._fits = 0
        self._hook_run_boosting()

    def _write_config(self, name: str, cfg: dict) -> str:
        path = os.path.join(self.work_dir, name)
        with open(path, "w") as fh:
            json.dump(cfg, fh, indent=2, sort_keys=True)
        return path

    def _hook_run_boosting(self) -> None:
        """Timestamp every iterate, from the start of the Frank-Wolfe loop,
        and probe the host's speed after each one."""
        original = self.harness.run_boosting
        iterates = self._iterates
        timer = self.timer

        def run_boosting(model, cfg, progress=None):
            start = timer.elapsed()

            def stamp(record):
                iterates.append((record.t, timer.elapsed() - start, record.kl_oracle))
                if progress is not None:
                    progress(record)
                timer.split()

            return original(model, cfg, progress=stamp)

        self.harness.run_boosting = run_boosting

    def argv(self, config_path: str, out_dir: str) -> list[str]:
        return ["run", "--config", config_path, "--seed", str(self.seed), "--out", out_dir]

    def fit(self, config_path: str, call=None, check: bool = True) -> Fit:
        """One CLI run; ``call`` wraps ``cli.main`` (the traced fit passes a span).

        Without ``check`` only the exit code is checked: the warm-up fit is too
        short for the quality-dependent checks to apply."""
        out_dir = os.path.join(self.work_dir, f"fit{self._fits}")
        self._fits += 1
        argv = self.argv(config_path, out_dir)
        self._iterates.clear()
        main = self.cli.main if call is None else (lambda a: call(self.cli.main, a))
        with contextlib.redirect_stdout(io.StringIO()):
            self.timer.start()
            code = main(argv)
            run_s, scaled_s = self.timer.stop()
        fit = Fit(code, run_s, out_dir, scaled_s, iterates=list(self._iterates))
        if code != 0:
            fit.errors.append(f"boostvi run exited with code {code}")
        elif check:
            self._check(fit)
        return fit

    def _check(self, fit: Fit) -> None:
        import checks

        try:
            errors, trace, summary = checks.check_run(
                fit.out_dir, self.workload.model, self.workload.config["delta"])
        except (OSError, ValueError, KeyError, IndexError, TypeError) as e:
            fit.errors.append(f"unreadable run artifacts: {e!r}")
            return
        fit.errors += errors
        fit.trace = trace
        metrics = summary["per_seed"][0]
        q = {}
        if self.workload.model == "bimodal":
            q["kl_final"] = metrics["kl_oracle"]
            reached = [s for t, s, kl in fit.iterates if kl is not None and kl < KL_TARGET]
            q["time_to_kl_s"] = reached[0] if reached else None
        else:
            q["test_ll"] = metrics["mean_log_likelihood"]
            if self.workload.model == "logistic":
                q["test_auroc"] = metrics["auroc"]
            else:
                q["test_mse"] = metrics["mse"]
        fit.quality = q

    def discard(self, fit: Fit) -> None:
        shutil.rmtree(fit.out_dir, ignore_errors=True)

    def setup_times(self, root: str) -> tuple[list[tuple[float, float]], list[str]]:
        """(wall, scaled) set-up seconds from fresh interpreters (see
        setup_probe.py), each scaled by host probes just before and after."""
        times, errors = [], []
        out_dir = os.path.join(self.work_dir, "setup")
        cmd = [sys.executable, os.path.join(HERE, "setup_probe.py"),
               os.path.join(root, "src"), "--", *self.argv(self.config_path, out_dir)]
        for _ in range(SETUP_RUNS):
            before = self.host.probe()
            try:
                res = subprocess.run(cmd, cwd=root, capture_output=True, text=True,
                                     timeout=SETUP_TIMEOUT_S)
            except subprocess.TimeoutExpired:
                errors.append(f"set-up run exceeded {SETUP_TIMEOUT_S} s")
                continue
            lines = res.stdout.strip().splitlines()
            if res.returncode != 0 or not lines:
                errors.append(f"set-up run failed ({res.returncode}): {res.stderr.strip()}")
                continue
            wall = float(lines[-1])
            times.append((wall, scale(wall, before, self.host.probe())))
        return times, errors


def _environment() -> dict:
    import numpy
    import scipy

    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "nproc": os.cpu_count(),
        "threads": {var: os.environ[var] for var in THREAD_VARS},
        "machine": platform.machine(),
    }


def _peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0  # KiB on Linux


def _quality_lines(fit: Fit) -> list[str]:
    units = {"kl_final": "nats", "test_ll": "nats/obs", "test_auroc": "1", "test_mse": "1"}
    lines = []
    for key, value in fit.quality.items():
        if key == "time_to_kl_s":
            lines.append(f"time_to_kl_s: {value:.6g} s (first iterate with KL < {KL_TARGET})"
                         if value is not None else
                         f"time_to_kl_s: not reached (no iterate with KL < {KL_TARGET})")
        else:
            lines.append(f"{key}: {value:.6g} {units[key]}")
    return lines


def _run_checks(bench: Bench, fits: list[Fit]) -> list[str]:
    """Checks across the fits of one run: determinism and the reference values."""
    import checks

    errors = []
    good = [f for f in fits if not f.errors]
    deterministic = {k: v for k, v in (good[0].quality if good else {}).items()
                     if k != "time_to_kl_s"}
    for f in good[1:]:
        other = {k: v for k, v in f.quality.items() if k != "time_to_kl_s"}
        if other != deterministic:
            errors.append(f"fits of one seed disagree: {deterministic} vs {other}")
    if bench.seed == DEFAULT_SEED and good:
        with open(os.path.join(HERE, "reference.json")) as fh:
            reference = json.load(fh).get(bench.workload.name)
        if reference is None:
            errors.append("reference.json has no values for this workload")
        else:
            errors += checks.check_reference(good[0].quality, reference)
        if bench.workload.model == "bimodal" and good[0].quality["time_to_kl_s"] is None:
            errors.append(f"default seed: KL target {KL_TARGET} not reached")
    return errors


def measure_end_to_end(bench: Bench, root: str, seconds: float):
    setup, probe_errors = bench.setup_times(root)
    fits = []
    t_start = time.perf_counter()
    while True:
        fits.append(bench.fit(bench.config_path))
        elapsed = time.perf_counter() - t_start
        if elapsed + fits[-1].run_s > seconds:
            break
    for f in fits:
        bench.discard(f)
    samples = {
        "run_s": [f.scaled_s for f in fits],
        "setup_s": [scaled for _, scaled in setup],
        "run_wall_s": [f.run_s for f in fits],
        "setup_wall_s": [wall for wall, _ in setup],
        "host_probe_ms": [1e3 * s for s in bench.host.samples],
    }
    metrics = {
        "run_s": (statistics.median(samples["run_s"]), "s"),
        # no set-up run succeeded: the run is incorrect, and JSON has no NaN
        "setup_s": (statistics.median(samples["setup_s"]) if setup else 0.0, "s"),
        "peak_rss_mb": (_peak_rss_mb(), "MB"),
    }
    units = {"run_s": "s", "setup_s": "s", "run_wall_s": "s", "setup_wall_s": "s",
             "host_probe_ms": "ms"}
    timings = {name: (timing_summary(v), units[name]) for name, v in samples.items() if v}
    return fits, metrics, samples, timings, probe_errors


@contextlib.contextmanager
def _recording(module, attr: str, into: list, keep=lambda result: result):
    """Append ``keep(result)`` of every call to ``module.attr`` to ``into``."""
    original = getattr(module, attr)

    def recorder(*args, **kwargs):
        result = original(*args, **kwargs)
        into.append(keep(result))
        return result

    setattr(module, attr, recorder)
    try:
        yield
    finally:
        setattr(module, attr, original)


def measure_layers(bench: Bench, seed: int):
    import boostvi.boosting

    import kernels
    from tracer import LAYERS, MODEL_BUILDERS, Tracer

    # the untraced fit records the model the harness builds, for the kernels,
    # and each LMO solve's steps and convergence
    models, solves = [], []
    with contextlib.ExitStack() as stack:
        for mod_name, attr in MODEL_BUILDERS:
            stack.enter_context(_recording(importlib.import_module(mod_name), attr, models))
        stack.enter_context(_recording(
            boostvi.boosting, "lmo_solve", solves,
            keep=lambda r: (r.steps_used, r.converged)))
        untraced = bench.fit(bench.config_path)
    if not models:
        return [untraced], {}, {}, ["the untraced fit built no model"]
    kernel_results = kernels.run_kernels(seed, models[0])
    span_cost = Tracer.span_cost_s()

    tracer = Tracer()
    tracer.install()
    # the host probes inside the fit get a span of their own, so their time
    # is in no layer's self time (the timer leaves it out of run_s too)
    bench.host.probe = tracer.wrap("hostspeed.probe", bench.host.probe)
    try:
        traced = bench.fit(bench.config_path, call=lambda main, argv: tracer.span(
            "cli.main", main, argv))
    finally:
        del bench.host.probe
        tracer.uninstall()
    artifact_bytes = sum(
        os.path.getsize(os.path.join(d, f))
        for d, _, files in os.walk(traced.out_dir) for f in files)
    tracer.write(os.path.join(bench.work_dir, "spans.npz"))
    s = tracer.summary(run_id=0)
    by_name, layer_self = s["by_name"], s["layer_self_s"]

    def secs(name):
        return by_name.get(name, {}).get("s", 0.0)

    def calls(name):
        return by_name.get(name, {}).get("calls", 0)

    steps = sum(n for n, _ in solves)
    overhead = traced.scaled_s - untraced.scaled_s
    # noise-free floor of the overhead: spans times the cost of one span
    overhead_est = s["spans"] * span_cost
    m = {f"{layer}.self_s": (layer_self[layer], "s") for layer in LAYERS}
    m.update({
        "densities.mixture_log_prob_s": (secs("densities.mixture_log_prob"), "s"),
        "densities.mixture_log_prob_calls": (calls("densities.mixture_log_prob"), "count"),
        "densities.mixture_grad_log_prob_s": (secs("densities.mixture_grad_log_prob"), "s"),
        "densities.mixture_grad_log_prob_calls":
            (calls("densities.mixture_grad_log_prob"), "count"),
        "densities.mixture_sample_s": (secs("densities.mixture_sample"), "s"),
        "densities.atom_constructs": (calls("densities.atom_construct"), "count"),
        "models.log_joint_s": (secs("models.log_joint"), "s"),
        "models.log_joint_calls": (calls("models.log_joint"), "count"),
        "models.grad_s": (secs("models.grad"), "s"),
        "models.grad_calls": (calls("models.grad"), "count"),
        "lmo.solve_s": (secs("lmo.solve"), "s"),
        "lmo.solve_calls": (calls("lmo.solve"), "count"),
        "lmo.steps": (steps, "count"),
        "lmo.step_us": (1e6 * secs("lmo.solve") / steps if steps else 0.0, "us"),
        "lmo.converged_frac":
            (sum(c for _, c in solves) / len(solves) if solves else 0.0, "fraction"),
        "boosting.certificate_gap_s": (secs("boosting.certificate_gap"), "s"),
        "boosting.certificate_gap_calls": (calls("boosting.certificate_gap"), "count"),
        "boosting.fully_corrective_weights_s":
            (secs("boosting.fully_corrective_weights"), "s"),
        "boosting.line_search_gamma_s": (secs("boosting.line_search_gamma"), "s"),
        "boosting.oracle_s": (secs("boosting.oracle"), "s"),
        "boosting.atoms_final": (
            len(traced.trace["traces"][0]["mixtures"][-1]["atoms"]) if traced.trace else 0,
            "count"),
        "harness.data_s": (secs("harness.data"), "s"),
        "harness.predictive_metrics_s": (secs("harness.predictive_metrics"), "s"),
        "harness.write_artifacts_s": (secs("harness.write_artifacts"), "s"),
        "harness.artifact_bytes": (artifact_bytes, "B"),
        "trace.run_s_untraced": (untraced.scaled_s, "s"),
        "trace.run_s_traced": (traced.scaled_s, "s"),
        "trace.overhead_s": (overhead, "s"),
        "trace.overhead_est_s": (overhead_est, "s"),
        "trace.span_cost_us": (1e6 * span_cost, "us"),
        "trace.spans": (s["spans"], "count"),
    })
    for name, summary in kernel_results.items():
        m[name] = (summary["median"], "us")
    timings = {name: (summary, "us") for name, summary in kernel_results.items()}
    # per-call timings of the hot spans inside the traced fit
    timings.update({
        f"{name}_us": (timing_summary(1e6 * tracer.durations(name, run_id=0)), "us per call")
        for name in PER_CALL_SPANS if calls(name)
    })

    # The layer self-times sum to the traced fit's wallclock by construction.
    # What can fail is the step from there to the untraced fit: the tracer
    # must cost what its spans predict, up to the host's noise.
    errors = []
    miss = overhead - overhead_est
    if abs(miss) > TRACE_TOLERANCE * untraced.scaled_s:
        errors.append(f"tracing overhead {overhead:.3f} s misses its estimate "
                      f"{overhead_est:.3f} s by more than {TRACE_TOLERANCE:.0%} "
                      f"of the untraced run_s {untraced.scaled_s:.3f} s")
    fits = [untraced, traced]
    for f in fits:
        bench.discard(f)
    return fits, m, timings, errors


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args(argv)

    root = os.getcwd()
    src = os.path.join(root, "src")
    if not os.path.isfile(os.path.join(src, "boostvi", "__init__.py")):
        return _fail(f"no boostvi sources under {src}; run from the root of a checkout")
    sys.path.insert(0, src)
    try:
        import boostvi
    except ImportError as e:
        return _fail(f"cannot import boostvi: {e}")
    if not os.path.abspath(boostvi.__file__).startswith(src + os.sep):
        return _fail(f"imported boostvi from {boostvi.__file__}, not from {src}")

    workload = WORKLOADS[args.workload]
    bench = Bench(root, workload, args.seed, bool(args.trace))
    env = _environment()
    warmup = bench.fit(bench.warmup_path, check=False)
    bench.discard(warmup)

    if args.trace:
        fits, metrics, timings, run_errors = measure_layers(bench, args.seed)
        samples = {}
    else:
        fits, metrics, samples, timings, run_errors = measure_end_to_end(
            bench, root, args.seconds)
    fits = [warmup] + fits
    run_errors += _run_checks(bench, fits[1:])
    failed = sum(1 for f in fits if f.errors)
    correct = failed == 0 and not run_errors

    print(f"workload {workload.name}, seed {args.seed}, trace {args.trace}")
    print("env: " + ", ".join(f"{k} {v}" for k, v in env.items()))
    for name, (value, unit) in metrics.items():
        if name in timings:
            print(describe(name, timings[name][0], unit))
        else:
            print(f"{name}: {value:.6g} {unit}")
    for name, (summary, unit) in timings.items():
        if name not in metrics:
            print(describe(name, summary, unit))
    measured = fits[-1]
    for line in _quality_lines(measured):
        print(line)
    print(f"fail_frac: {failed / len(fits):.6g} ({failed} failed / {len(fits)} attempted fits, "
          f"warm-up included)")
    for i, f in enumerate(fits):
        for err in f.errors:
            print(f"check failed (fit {i}): {err}")
    for err in run_errors:
        print(f"check failed: {err}")
    print("checks: " + ("all passed" if correct else "FAILED"))

    result = {
        "correct": correct,
        "attempted": len(fits),
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }
    record = dict(result, workload=workload.name, seed=args.seed, trace=args.trace,
                  env=env, quality=measured.quality,
                  samples=samples, timings={k: v[0] for k, v in timings.items()},
                  errors=[e for f in fits for e in f.errors] + run_errors)
    with open(os.path.join(bench.work_dir, "result.json"), "w") as fh:
        json.dump(record, fh, indent=2, sort_keys=True)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
