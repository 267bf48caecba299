"""Command-line entry point: ``boostvi run | probe | plotdata``.

Exit codes: 0 success, 1 bad configuration or input data, 2 runtime failure,
3 probe failure.
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import json
import os
import shutil
import sys
from typing import Optional

from .boosting import FwConfig, Variant
from .densities import DataError, Family, real_number, whole_number
from .harness import ExperimentConfig, run_experiment
from .lmo import LmoConfig
from .probes import (
    PROBE_GRID,
    curvature_probe,
    curvature_probe_suite,
    default_probe_suite,
    entropy_bound_probe,
    gap_bound_probe,
    gaussian_pair_grid,
)

EXIT_OK = 0
EXIT_CONFIG = 1
EXIT_RUNTIME = 2
EXIT_PROBE = 3

VARIANTS = {
    "fixed": Variant.FIXED_STEP,
    "linesearch": Variant.LINE_SEARCH,
    "fullycorrective": Variant.FULLY_CORRECTIVE,
}


class CliError(Exception):
    """Configuration error; maps to exit code 1, as does a ``DataError``."""


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise CliError(message)


def _parse_variant(key) -> Variant:
    if key not in VARIANTS:
        raise CliError(f"invalid variant {key!r}: expected one of {sorted(VARIANTS)}")
    return VARIANTS[key]


def _parse_lambda(text) -> Optional[float]:
    """``LmoConfig.entropy_weight`` of ``sqrt`` (None: 1/sqrt(t+1)) or ``const:<v>``."""
    if not isinstance(text, str):
        raise CliError("invalid lambda: expected a string like 'sqrt' or 'const:0.5'")
    if text == "sqrt":
        return None
    if text.startswith("const:"):
        try:
            return float(text.split(":", 1)[1])
        except ValueError as e:
            raise CliError(f"bad lambda value in {text!r}: {e}")
    raise CliError(f"invalid --lambda {text!r}: expected 'sqrt' or 'const:<v>'")


def number(text: str):
    """A numeric flag's text as the number a JSON config would give: an int
    when it spells one, else a float.  Its key's ``_SETTINGS`` conversion then
    reads it as it reads the config value."""
    try:
        return int(text)
    except ValueError:
        return float(text)


def _string(value) -> str:
    """A value given as a string; anything else raises a ValueError."""
    if not isinstance(value, str):
        raise ValueError(f"value must be a string, got {value!r}")
    return value


def _json_object(value) -> dict:
    """A value given as a JSON object; anything else raises a ValueError."""
    if not isinstance(value, dict):
        raise ValueError(f"value must be a JSON object, got {value!r}")
    return value


def _path(value) -> str:
    """A path given as a non-empty string; anything else, such as a number
    that ``open`` would read as a file descriptor, raises a ValueError."""
    if not isinstance(value, str) or not value:
        raise ValueError(f"expected a non-empty path string, got {value!r}")
    return value


def _out_dir(value) -> str:
    """An output directory path whose nearest existing ancestor, the path
    itself when it exists, is a writable directory; the directory itself is
    made only when the artifacts are written."""
    path = _path(value)
    ancestor = path
    while not os.path.lexists(ancestor):
        ancestor = os.path.dirname(ancestor) or os.curdir
    if not (os.path.isdir(ancestor) and os.access(ancestor, os.W_OK)):
        raise ValueError(f"{path!r}: {ancestor!r} exists and is not a writable directory")
    return path


# config key -> (config it sets, field, conversion of the given value); a key
# the user does not give keeps its dataclass default
_SETTINGS = {
    "model": ("experiment", "model", _string),
    "model_params": ("experiment", "model_params", _json_object),
    "data_path": ("experiment", "data_path", _path),
    "split_fraction": ("experiment", "split_fraction", real_number),
    "n_seeds": ("experiment", "n_seeds", whole_number),
    "out": ("experiment", "out_dir", _out_dir),
    "variant": ("fw", "variant", _parse_variant),
    "iters": ("fw", "max_iters", whole_number),
    "delta": ("fw", "delta", real_number),
    "gap_tol": ("fw", "gap_tolerance", real_number),
    "seed": ("fw", "seed", whole_number),
    "family": ("lmo", "family", Family),
    "mc_samples": ("lmo", "n_mc_samples", whole_number),
    "lmo_steps": ("lmo", "n_steps", whole_number),
    "lambda": ("lmo", "entropy_weight", _parse_lambda),
}


def build_parser() -> _Parser:
    parser = _Parser(prog="boostvi", description=__doc__)
    sub = parser.add_subparsers(dest="subcommand", required=True)

    run = sub.add_parser("run", help="run a boosting experiment")
    run.add_argument("--config", help="JSON config file; flags override its keys")
    run.add_argument("--model", help="bimodal | logistic | matrix_factorization")
    run.add_argument("--data", dest="data_path", help="CSV dataset path")
    run.add_argument("--variant", help="fixed | linesearch | fullycorrective")
    run.add_argument("--iters", type=number, help="number of boosting iterations")
    run.add_argument("--mc-samples", type=number, help="Monte-Carlo samples per LMO step")
    run.add_argument("--lmo-steps", type=number, help="gradient steps per LMO solve")
    run.add_argument("--lambda", help="sqrt | const:<v>")
    run.add_argument("--delta", type=number, help="assumed LMO accuracy in (0, 1]")
    run.add_argument("--gap-tol", type=number, help="duality-gap stopping tolerance")
    run.add_argument("--seed", type=number, help="base seed")
    run.add_argument("--n-seeds", type=number, help="number of seeds to aggregate")
    run.add_argument("--family", help="gaussian | laplace")
    run.add_argument("--out", help="output directory")

    probe = sub.add_parser("probe", help="run theory probes")
    probe.add_argument("--probe", default="all",
                       choices=["all", "entropy", "curvature", "gap"])
    probe.add_argument("--gamma", type=float, default=None,
                       help="single blend weight for the curvature probe")
    probe.add_argument("--seed", type=number,
                       help="seed of the gap probe's fit (default 0)")

    plot = sub.add_parser("plotdata", help="emit plottable CSVs from a run directory")
    plot.add_argument("--run", required=True, help="existing run directory")
    plot.add_argument("--out", help="output directory (defaults to the run directory)")
    return parser


@contextlib.contextmanager
def _json_file(path: str):
    """The JSON content of the file ``path``.  A file that cannot be read (a
    directory, not UTF-8) or is not JSON, or an entry the ``with`` body cannot
    find or use, raises a :class:`CliError` that names the file."""
    try:
        with open(path) as fh:
            yield json.load(fh)
    except KeyError as e:
        raise CliError(f"{path}: missing entry {e}")
    except (OSError, ValueError, LookupError, TypeError, AttributeError) as e:
        raise CliError(f"{path}: {e}")


def _experiment_config(args) -> ExperimentConfig:
    settings = {}
    if args.config:
        with _json_file(args.config) as settings:
            if not isinstance(settings, dict):
                raise CliError(f"{args.config}: a config file must hold a JSON object")
        unknown = set(settings) - set(_SETTINGS)
        if unknown:
            raise CliError(f"unknown config keys: {sorted(unknown)}")
    # flags are named after their config keys and override the file
    settings.update((key, val) for key, val in vars(args).items()
                    if key in _SETTINGS and val is not None)
    kwargs = {"experiment": {}, "fw": {}, "lmo": {}}
    try:
        for key, val in settings.items():
            config, name, convert = _SETTINGS[key]
            try:
                kwargs[config][name] = convert(val)
            except (TypeError, ValueError) as e:
                raise CliError(f"config key {key!r}: {e}")
        fw = FwConfig(lmo=LmoConfig(**kwargs["lmo"]), **kwargs["fw"])
        return ExperimentConfig(fw=fw, **kwargs["experiment"])
    except (TypeError, ValueError) as e:
        raise CliError(str(e))


def _progress_line(record):
    # iterate t's gap is only estimated in iteration t + 1, after this line
    print(f"t={record.t} gamma={record.gamma:.3f} train_ll={record.train_ll:.4f}")


def cmd_run(args) -> int:
    cfg = _experiment_config(args)
    if cfg.out_dir is None:
        raise CliError("missing required flag: --out")
    summary = run_experiment(cfg, progress=_progress_line)
    for key in sorted(summary.mean):
        print(f"{key}: {summary.mean[key]:.6f} +/- {summary.std[key]:.6f}")
    return EXIT_OK


def cmd_probe(args) -> int:
    if args.seed is not None and args.probe in ("entropy", "curvature"):
        raise CliError(f"--seed applies to --probe gap or all only, not --probe {args.probe}")
    seed = 0 if args.seed is None else whole_number(args.seed, "--seed")
    if args.gamma is not None:
        if args.probe != "curvature":
            raise CliError(f"--gamma applies to --probe curvature only, not --probe {args.probe}")
        # written to be False for NaN, so NaN is rejected
        if not 0.0 < args.gamma <= 1.0:
            raise CliError(f"--gamma must lie in (0, 1], got {args.gamma}")
        # endpoint inspection: print the probe values for one gamma
        for s, q in gaussian_pair_grid():
            (value,) = curvature_probe(s, q, [args.gamma], PROBE_GRID)
            print(
                f"s=N({s.loc[0]:+.1f},{s.scale[0]:.1f}) "
                f"q=N({q.locs[0, 0]:+.1f},{q.scales[0, 0]:.1f}) "
                f"(2/g^2)KL={value:.6f}"
            )
        return EXIT_OK
    try:
        if args.probe == "entropy":
            results = entropy_bound_probe()
        elif args.probe == "curvature":
            results = curvature_probe_suite()
        elif args.probe == "gap":
            results = gap_bound_probe(seed=seed)
        else:
            results = default_probe_suite(seed=seed)
    except ValueError as e:
        raise CliError(str(e))
    width = max(len(r.name) for r in results)
    ok = True
    for r in results:
        status = "PASS" if r.passed else "FAIL"
        ok = ok and r.passed
        print(f"{r.name:<{width}}  {status}  {r.detail}")
    return EXIT_OK if ok else EXIT_PROBE


def cmd_plotdata(args) -> int:
    """``plot_series.csv`` from the first seed's trace.json records, and the
    run's own density.csv as ``plot_density.csv`` when the run wrote one."""
    run_dir = args.run
    trace_path = os.path.join(run_dir, "trace.json")
    if not os.path.exists(trace_path):
        raise CliError(f"not a run directory (missing trace.json): {run_dir}")
    try:
        out_dir = run_dir if args.out is None else _out_dir(args.out)
    except ValueError as e:
        raise CliError(f"--out: {e}")
    # trace.json is read and checked before the first output is written
    with _json_file(trace_path) as payload:
        # csv writes None (a missing oracle or gap) as an empty cell
        rows = [[rec[k] for k in ("t", "gamma", "kl_oracle", "gap_estimate", "gap_stderr",
                                  "train_ll")] for rec in payload["traces"][0]["records"]]

    os.makedirs(out_dir, exist_ok=True)
    with open(os.path.join(out_dir, "plot_series.csv"), "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["t", "gamma", "kl", "gap", "gap_stderr", "train_ll"])
        writer.writerows(rows)
    density_path = os.path.join(run_dir, "density.csv")
    if os.path.exists(density_path):
        shutil.copyfile(density_path, os.path.join(out_dir, "plot_density.csv"))
    return EXIT_OK


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        if args.subcommand == "run":
            return cmd_run(args)
        if args.subcommand == "probe":
            return cmd_probe(args)
        return cmd_plotdata(args)
    except (CliError, DataError) as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_CONFIG
    except Exception as e:  # noqa: BLE001 - runtime failures map to exit 2
        print(f"runtime error: {e}", file=sys.stderr)
        return EXIT_RUNTIME


if __name__ == "__main__":
    sys.exit(main())
