"""Command-line entry point: ``boostvi run | probe | plotdata``.

Exit codes: 0 success, 1 bad configuration or input data, 2 runtime failure,
3 probe failure.
"""

from __future__ import annotations

import argparse
import csv
import json
import os
import sys
from typing import Optional

from .boosting import FwConfig, Variant, curvature_probe, mixture_from_dict
from .harness import ExperimentConfig, run_experiment, write_density_csv
from .models import DataError
from .lmo import LmoConfig
from .probes import (
    PROBE_GRID,
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


# config key -> (config it sets, field, conversion of the given value, None to
# pass it as is); a key the user does not give keeps its dataclass default
_SETTINGS = {
    "model": ("experiment", "model", None),
    "model_params": ("experiment", "model_params", None),
    "data_path": ("experiment", "data_path", None),
    "split_fraction": ("experiment", "split_fraction", float),
    "n_seeds": ("experiment", "n_seeds", int),
    "out": ("experiment", "out_dir", None),
    "variant": ("fw", "variant", _parse_variant),
    "iters": ("fw", "max_iters", int),
    "delta": ("fw", "delta", float),
    "gap_tol": ("fw", "gap_tolerance", float),
    "seed": ("fw", "seed", int),
    "family": ("lmo", "family", None),
    "mc_samples": ("lmo", "n_mc_samples", int),
    "lmo_steps": ("lmo", "n_steps", int),
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
    run.add_argument("--iters", type=int, help="number of boosting iterations")
    run.add_argument("--mc-samples", type=int, help="Monte-Carlo samples per LMO step")
    run.add_argument("--lmo-steps", type=int, help="gradient steps per LMO solve")
    run.add_argument("--lambda", help="sqrt | const:<v>")
    run.add_argument("--delta", type=float, help="assumed LMO accuracy in (0, 1]")
    run.add_argument("--gap-tol", type=float, help="duality-gap stopping tolerance")
    run.add_argument("--seed", type=int, help="base seed")
    run.add_argument("--n-seeds", type=int, help="number of seeds to aggregate")
    run.add_argument("--family", help="gaussian | laplace")
    run.add_argument("--out", help="output directory")

    probe = sub.add_parser("probe", help="run theory probes")
    probe.add_argument("--probe", default="all",
                       choices=["all", "entropy", "curvature", "gap"])
    probe.add_argument("--gamma", type=float, default=None,
                       help="single blend weight for the curvature probe")
    probe.add_argument("--seed", type=int, default=0)

    plot = sub.add_parser("plotdata", help="emit plottable CSVs from a run directory")
    plot.add_argument("--run", required=True, help="existing run directory")
    plot.add_argument("--out", help="output directory (defaults to the run directory)")
    return parser


def _experiment_config(args) -> ExperimentConfig:
    settings = {}
    if args.config:
        if not os.path.exists(args.config):
            raise CliError(f"config file not found: {args.config}")
        try:
            with open(args.config) as fh:
                settings = json.load(fh)
        except json.JSONDecodeError as e:
            raise CliError(f"config file is not valid JSON: {e}")
        if not isinstance(settings, dict):
            raise CliError("config file must hold a JSON object")
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
            kwargs[config][name] = val if convert is None else convert(val)
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
    if args.probe == "curvature" and args.gamma is not None:
        # endpoint inspection: print the probe values for one gamma
        for s, q in gaussian_pair_grid():
            (value,) = curvature_probe(s, q, [args.gamma], PROBE_GRID)
            print(
                f"s=N({s.loc[0]:+.1f},{s.scale[0]:.1f}) "
                f"q=N({q.atoms[0].loc[0]:+.1f},{q.atoms[0].scale[0]:.1f}) "
                f"(2/g^2)KL={value:.6f}"
            )
        return EXIT_OK
    try:
        if args.probe == "entropy":
            results = entropy_bound_probe()
        elif args.probe == "curvature":
            results = curvature_probe_suite()
        elif args.probe == "gap":
            results = gap_bound_probe(seed=args.seed)
        else:
            results = default_probe_suite(seed=args.seed)
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
    run_dir = args.run
    trace_path = os.path.join(run_dir, "trace.json")
    summary_path = os.path.join(run_dir, "summary.json")
    if not (os.path.isdir(run_dir) and os.path.exists(trace_path) and os.path.exists(summary_path)):
        raise CliError(f"not a run directory (missing trace.json/summary.json): {run_dir}")
    out_dir = args.out or run_dir
    os.makedirs(out_dir, exist_ok=True)
    with open(trace_path) as fh:
        traces = json.load(fh)["traces"]
    with open(summary_path) as fh:
        config = json.load(fh)["config"]

    trace = traces[0]
    series_path = os.path.join(out_dir, "plot_series.csv")
    with open(series_path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["t", "gamma", "kl", "gap", "gap_stderr", "train_ll"])
        # csv writes None (a missing oracle or gap) as an empty cell
        for rec in trace["records"]:
            writer.writerow([rec[k] for k in ("t", "gamma", "kl_oracle", "gap_estimate",
                                              "gap_stderr", "train_ll")])

    if config["model"] == "bimodal":
        write_density_csv(
            config.get("model_params", {}),
            [mixture_from_dict(m) for m in trace["mixtures"]],
            os.path.join(out_dir, "plot_density.csv"),
        )
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
