"""Config-driven experiment runner.

One JSON document describes one experiment; ``run`` executes it and writes
``<output_dir>/<experiment>.csv`` and/or ``.json``, ``validate`` reports
schema and cross-field problems without simulating. Exit codes: 0 success,
2 validation error or an output that cannot be written, 3 a failed step
(``DivergenceError``), 4 failed assertion under ``--assert``.
Float cells are serialized with 17 significant digits so identical runs
produce byte-identical tables; the only volatile field (wall time) lives in
the JSON metadata block.
"""

from __future__ import annotations

import argparse
import json
import platform
import sys
import time
from dataclasses import asdict, dataclass, field
from inspect import signature
from pathlib import Path
from typing import Callable, NamedTuple

import numpy as np

from . import __version__
from .errors import ConfigurationError, DivergenceError
from .model import REQUIRED, builtin_model, builtin_test_function, is_number
from .em_engine import small_noise_curve, small_noise_grid, strong_error_curve, strong_error_grid
from .mlmc_engine import (chaos_grid, chaos_study, cost_compare, cost_compare_grid,
                          coupled_variance_study, level_study_grid, mlmc_estimate, mlmc_grid,
                          second_moment_study)
from .stats import loglog_fit

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_DIVERGENCE = 3
EXIT_ASSERTION = 4


def _is_int(val) -> bool:
    return isinstance(val, int) and not isinstance(val, bool)


def _check(ok: Callable, problem: str) -> Callable:
    """A field check: None when ``ok(value)`` holds, else the problem."""
    return lambda val: None if ok(val) else problem


#: the output formats, in the order ``cmd_run`` writes them
_FORMATS = ("csv", "json")
#: the top-level fields every experiment shares, as (check, default); they are
#: no engine function's arguments, so no preflight checks them
_TOP = {"seed": (_check(lambda v: _is_int(v) and 0 <= v < 2**64,
                        "must be an integer in [0, 2**64)"), REQUIRED),
        "output_dir": (_check(lambda v: isinstance(v, str), "must be a string"), "."),
        "formats": (_check(lambda v: isinstance(v, list) and bool(v)
                           and all(f in _FORMATS for f in v),
                           f"must be a non-empty list of {' or '.join(map(repr, _FORMATS))}"),
                    list(_FORMATS))}
#: the targets key of each engine argument that is a target; every other
#: argument is the grid key of its own name
_TARGETS = {"target_delta": "delta", "delta_list": "delta_list", "epsilon_list": "epsilon_list"}
#: the structural keys besides the sections, as (section, key); "" is the top level
_KEYS = {("", "experiment"), ("", "model"), ("model", "name"), ("model", "params")}


def _none(*_) -> list:
    """No assertion failures."""
    return []


def _bounds(labelled: Callable, *keys: str) -> dict:
    """Assertion rules on each (label, value) of ``labelled(bundle)``: a key
    ending in ``_min`` is a lower bound, every other key an upper bound."""
    def rule(lower: bool) -> Callable:
        return lambda bound, checks, bundle: [
            f"{label} {value:.4g} {'<' if lower else '>'} {bound}"
            for label, value in labelled(bundle) if (value < bound if lower else value > bound)]
    return {key: rule(key.endswith("_min")) for key in keys}


#: assertions on every rate fit an experiment produces
_FIT = {**_bounds(lambda b: [(f"{f['name']}: slope", f["slope"]) for f in b.fits],
                  "slope_min", "slope_max"),
        **_bounds(lambda b: [(f"{f['name']}: r^2", f["r_squared"]) for f in b.fits], "r2_min")}


def _near_expected(expected, checks, bundle) -> list[str]:
    """The mlmc estimate lies within ``tolerance`` (default 0) of ``expected``."""
    est, tol = bundle.summary["estimate"], checks.get("tolerance", 0.0)
    return ([f"estimate {est:.6g} differs from {expected:.6g} by more than {tol:.3g}"]
            if abs(est - expected) > tol else [])


def _tolerance(bound, checks) -> list[str]:
    """``tolerance`` is a bound of at least 0 and needs ``expected``."""
    problems = [] if "expected" in checks else ["assertions.tolerance needs assertions.expected"]
    return problems + ([] if bound >= 0 else ["assertions.tolerance must be >= 0"])


#: the rule of an assertion value beyond being a number, by assertion key
_VALUE_RULES = {"tolerance": _tolerance}


def _levels(pair) -> range:
    """The levels lo to hi of a ``[lo, hi]`` pair of integers with lo <= hi; a
    range, so that a preflight reads it level by level and never builds it."""
    if not (isinstance(pair, list) and len(pair) == 2 and all(map(_is_int, pair))
            and pair[0] <= pair[1]):
        raise ConfigurationError(
            f"levels must be [lo, hi], two integers with lo <= hi, got {pair!r}", "levels")
    return range(pair[0], pair[1] + 1)


def _field(arg: str) -> str:
    """The config name of an argument of a preflight and engine function."""
    return f"targets.{_TARGETS[arg]}" if arg in _TARGETS else f"grid.{arg}"


def _args(exp: str, values: dict) -> dict:
    """The keyword arguments of ``exp``'s preflight and engine function: its
    grid and targets fields by key, with ``levels`` as a range."""
    args = {arg: values[_field(arg).rpartition(".")[2]] for arg in EXPERIMENTS[exp].args}
    if "levels" in args:
        args["levels"] = _levels(args["levels"])
    return args


def _safe_fit(name: str, points: list[tuple[float, float]]) -> list[dict]:
    """The log-log fit of the points with both coordinates positive, or no
    fit when fewer than two remain or the fit is degenerate."""
    points = [(x, y) for x, y in points if x > 0 and y > 0]
    try:
        fit = loglog_fit(points)
    except (ValueError, ArithmeticError):
        return []
    return [{"name": name, "slope": fit.slope, "intercept": fit.intercept,
             "r_squared": fit.r_squared, "points": [[float(x), float(y)] for x, y in points]}]


def _coupled_variance(rows, args):
    return ([{**asdict(r), "ci_lo": r.var_diff - r.ci_halfwidth,
              "ci_hi": r.var_diff + r.ci_halfwidth} for r in rows],
            _safe_fit("var_diff_vs_h_coarse", [(r.h_coarse, r.var_diff) for r in rows]),
            [], {"max_var_diff": max(r.var_diff for r in rows)})


def _second_moment(rows, args):
    moments = [r.second_moment for r in rows]
    ratios = [float(np.log2(a / b)) for a, b in zip(moments, moments[1:]) if a > 0 and b > 0]
    return (list(map(asdict, rows)),
            _safe_fit("second_moment_vs_h_coarse", [(r.h_coarse, r.second_moment) for r in rows]),
            [], {"log2_ratios": ratios})


def _strong_error(curve, args):
    return ([{"h": h, "mse": mse, "replications": args["replications"]} for h, mse in curve],
            _safe_fit("mse_vs_h", curve), [], {})


def _mlmc(report, args):
    return (list(map(asdict, report.per_level)), [], list(report.flags),
            {"estimate": report.estimate, "total_cost": report.total_cost,
             "target_delta": report.target_delta, "allocation": report.allocation})


def _cost_compare(rows, args):
    fits = []
    for eps in args["epsilon_list"]:
        fits += _safe_fit(f"mlmc_cost_vs_delta_eps_{eps}",
                          [(r.delta, float(r.mlmc_cost)) for r in rows if r.epsilon == eps])
    return list(map(asdict, rows)), fits, [], {}


def _chaos(rows, args):
    return (list(map(asdict, rows)),
            _safe_fit("mse_vs_m", [(float(r.m_particles), r.mse_vs_reference) for r in rows]),
            [], {})


def _small_noise(curve, args):
    return ([{"epsilon": eps, "mean_sup_sq": dev, "replications": args["replications"]}
             for eps, dev in curve], _safe_fit("deviation_vs_epsilon", curve), [], {})


class Experiment(NamedTuple):
    #: the engine function, ``engine(model, **args, seed=seed)``, plus ``test_fn``
    #: where it takes one (the top-level field ``psi``); it holds the fields' defaults
    engine: Callable
    #: the engine function's own preflight, ``preflight(model, **args)``: it checks
    #: the range and type of every argument and the limits of the run's grid; its
    #: arguments after ``model`` are the experiment's grid and targets fields
    preflight: Callable
    #: assertion key -> ``rule(bound, checks, bundle)``, the failures of its
    #: ``bound`` on ``bundle``; ``checks`` is the whole assertion block
    assertions: dict
    #: the CSV header: the order in which each record's cells are written
    columns: tuple[str, ...]
    #: ``tabulate(result, args)`` -> (records, fits, flags, summary), with ``args``
    #: from ``_args`` and each record mapping every column to its cell
    tabulate: Callable

    @property
    def args(self) -> list[str]:
        """The arguments of the preflight after ``model``, one field each."""
        return list(signature(self.preflight).parameters)[1:]

    @property
    def fields(self) -> dict:
        """``"section.key"`` -> the engine function's default, or REQUIRED."""
        params = signature(self.engine).parameters
        return {_field(arg): params[arg].default for arg in self.args}


EXPERIMENTS = {
    "strong-error": Experiment(strong_error_curve, strong_error_grid, _FIT,
                               ("h", "mse", "replications"), _strong_error),
    "coupled-variance": Experiment(
        coupled_variance_study, level_study_grid,
        {**_FIT, **_bounds(lambda b: [("max var_diff", b.summary["max_var_diff"])],
                           "max_var_diff")},
        ("level", "h_coarse", "var_diff", "ci_lo", "ci_hi", "rng_cost", "samples"),
        _coupled_variance),
    "second-moment": Experiment(
        second_moment_study, level_study_grid,
        {**_FIT, **_bounds(lambda b: [(f"log2 ratio[{i}]", r) for i, r in
                                      enumerate(b.summary["log2_ratios"])],
                           "ratio_min", "ratio_max")},
        ("level", "h_coarse", "second_moment", "rng_cost", "samples"), _second_moment),
    "mlmc": Experiment(
        mlmc_estimate, mlmc_grid,
        {"expected": _near_expected, "tolerance": _none},  # expected reads tolerance
        ("level", "samples", "mean_diff", "var_diff", "rng_cost"), _mlmc),
    "cost-compare": Experiment(cost_compare, cost_compare_grid, _FIT, (
        "delta", "epsilon", "mc_cost", "mlmc_cost", "mc_steps", "mlmc_levels"), _cost_compare),
    "chaos": Experiment(chaos_study, chaos_grid, _FIT,
                        ("m_particles", "mse_vs_reference", "replications"), _chaos),
    "small-noise-deviation": Experiment(small_noise_curve, small_noise_grid, _FIT,
                                        ("epsilon", "mean_sup_sq", "replications"), _small_noise),
}


@dataclass
class ReportBundle:
    metadata: dict
    columns: list[str]
    rows: list[list]
    fits: list[dict] = field(default_factory=list)
    flags: list[str] = field(default_factory=list)
    summary: dict = field(default_factory=dict)


def _object(pairs: list[tuple[str, object]]) -> dict:
    """A JSON object; a key given twice, at any depth, is refused, not last-wins."""
    keys = [key for key, _ in pairs]
    if repeated := [key for i, key in enumerate(keys) if key in keys[:i]]:
        raise ConfigurationError(f"config repeats the key {repeated[0]!r}")
    return dict(pairs)


def load_config(path: str | Path) -> dict:
    p = Path(path)
    if not p.exists():
        raise ConfigurationError(f"config file not found: {p}")
    try:
        cfg = json.loads(p.read_text(encoding="utf-8"), object_pairs_hook=_object)
    except json.JSONDecodeError as err:
        raise ConfigurationError(f"config is not valid JSON: {err}") from None
    except (OSError, UnicodeDecodeError) as err:
        raise ConfigurationError(f"cannot read config {p}: {err}") from None
    if not isinstance(cfg, dict):
        raise ConfigurationError("config must be a JSON object")
    return cfg


def _fields(exp: str, cfg: dict):
    """Yield (name, key, value) for each top-level field and each field of
    ``exp``; the value is the field's default where the config leaves it out."""
    top = {name: default for name, (_, default) in _TOP.items()}
    psi = {"psi": "identity"} if "test_fn" in signature(EXPERIMENTS[exp].engine).parameters else {}
    for name, default in {**psi, **top, **EXPERIMENTS[exp].fields}.items():
        section, _, key = name.rpartition(".")
        part = cfg.get(section) if section else cfg
        yield name, key, (part if isinstance(part, dict) else {}).get(key, default)


def _values(cfg: dict) -> dict:
    """A config's fields by key, with the defaults filled in."""
    return {key: val for _, key, val in _fields(cfg["experiment"], cfg)}


def validate_config(cfg: dict) -> list[str]:
    """Full schema and cross-field validation; returns diagnostics."""
    exp = cfg.get("experiment")
    if not isinstance(exp, str) or exp not in EXPERIMENTS:
        return [f"experiment must be one of {tuple(EXPERIMENTS)}, got {exp!r}"]

    diags: list[str] = []
    model = None
    model_cfg = cfg["model"] if isinstance(cfg.get("model"), dict) else {}
    if not isinstance(model_cfg.get("params"), dict):
        diags.append("model must be an object with 'name' and 'params'")
    else:
        try:
            model = builtin_model(model_cfg.get("name"), model_cfg["params"])
        except (ValueError, TypeError, ArithmeticError) as err:
            diags.append(f"model.{getattr(err, 'field', None) or 'params'}: {err}")

    sections = {}
    for section in ("grid", "targets", "assertions"):
        sections[section] = {} if cfg.get(section) is None else cfg[section]
        if not isinstance(sections[section], dict):
            diags.append(f"{section} must be an object")
            sections[section] = {}

    spec = EXPERIMENTS[exp]
    fields = list(_fields(exp, cfg))
    known = {*_KEYS, *(("", section) for section in sections),
             *(("assertions", key) for key in spec.assertions),
             *((name.rpartition(".")[0], key) for name, key, _ in fields)}
    for section, entries in {"": cfg, "model": model_cfg, **sections}.items():
        for key, val in entries.items():
            name = f"{section}.{key}" if section else key
            if (section, key) not in known:
                diags.append(f"{name} is not one of {exp}'s {section or 'top-level'} keys "
                             f"{sorted(k for s, k in known if s == section)}")
            elif section == "assertions":
                diags += (_VALUE_RULES.get(key, _none)(val, entries) if is_number(val)
                          else [f"{name} must be a number"])

    for name, key, val in fields:
        if val is REQUIRED:
            diags.append(f"missing required field '{name}' for {exp}")
        elif name == "psi":
            try:
                builtin_test_function(val)
            except ConfigurationError as err:
                diags.append(f"psi: {err}")
        elif name in _TOP and (problem := _TOP[name][0](val)):
            diags.append(f"{name} {problem}")
    if diags:
        return diags
    # the preflight's first problem, as the run meets it, under the config
    # name of the field it blames
    try:
        spec.preflight(model, **_args(exp, {key: val for _, key, val in fields}))
    except ConfigurationError as err:
        return [f"{_field(err.field)}: {err}"]
    return []


def run_experiment(cfg: dict) -> ReportBundle:
    spec = EXPERIMENTS[cfg["experiment"]]
    model = builtin_model(cfg["model"]["name"], cfg["model"].get("params", {}))
    values = _values(cfg)
    args = _args(cfg["experiment"], values)
    psi = {"test_fn": builtin_test_function(values["psi"])} if "psi" in values else {}
    t0 = time.perf_counter()
    result = spec.engine(model, **args, **psi, seed=values["seed"])
    records, fits, flags, summary = spec.tabulate(result, args)
    # the versions that produced the bits, kept out of the CSV like the wall time
    metadata = {"experiment": cfg["experiment"], "artifact_version": __version__,
                "seed": values["seed"], "config": cfg, "wall_time_s": time.perf_counter() - t0,
                "numpy": np.__version__, "python": platform.python_version()}
    rows = [[record[col] for col in spec.columns] for record in records]
    return ReportBundle(metadata, list(spec.columns), rows, fits, flags, summary)


def _fmt_cell(value, digits: int = 17) -> str:
    if isinstance(value, bool):
        return str(value)
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    if isinstance(value, (float, np.floating)):
        return f"{float(value):.{digits}g}"
    return str(value)


def write_csv(bundle: ReportBundle, path: Path):
    path.write_text("".join(",".join(map(_fmt_cell, row)) + "\n"
                            for row in [bundle.columns, *bundle.rows]))


def write_json(bundle: ReportBundle, path: Path):
    doc = {"metadata": bundle.metadata, "table": {"columns": bundle.columns, "rows": bundle.rows},
           "rate_fits": bundle.fits, "flags": bundle.flags, "summary": bundle.summary}
    path.write_text(json.dumps(doc, indent=2) + "\n")


def check_assertions(cfg: dict, bundle: ReportBundle) -> list[str]:
    """Evaluate a validated config's assertion block; returns failure messages.
    ``validate_config`` admits only the keys whose rules the experiment's
    entry holds."""
    checks = cfg.get("assertions") or {}
    rules = EXPERIMENTS[cfg["experiment"]].assertions
    failures: list[str] = []
    if checks.keys() & _FIT.keys() and not bundle.fits:
        failures.append("slope assertion configured but no rate fit was produced")
    for key, bound in checks.items():
        failures += rules[key](bound, checks, bundle)
    return failures


def _print_summary(bundle: ReportBundle):
    print(f"experiment: {bundle.metadata['experiment']}")
    widths = [max(len(c), 12) for c in bundle.columns]
    print("  ".join(c.ljust(w) for c, w in zip(bundle.columns, widths)))
    for row in bundle.rows:
        # 6 digits fit a float and its exponent in the 12-character column
        print("  ".join(_fmt_cell(v, 6).ljust(w) for v, w in zip(row, widths)))
    for fit in bundle.fits:
        print(f"fit {fit['name']}: slope={fit['slope']:.4f} r^2={fit['r_squared']:.4f}")
    for key, val in bundle.summary.items():
        print(f"{key}: {val}")
    for flag in bundle.flags:
        print(f"flag: {flag}")


def cmd_run(args) -> int:
    cfg = load_config(args.config)
    if args.seed is not None:
        cfg["seed"] = args.seed
    if args.out is not None:
        cfg["output_dir"] = args.out
    if diags := validate_config(cfg):
        print("\n".join(f"invalid config: {d}" for d in diags), file=sys.stderr)
        return EXIT_CONFIG
    values = _values(cfg)
    out_dir = Path(values["output_dir"])
    try:
        out_dir.mkdir(parents=True, exist_ok=True)
    except OSError as err:
        raise ConfigurationError(f"cannot create output directory {out_dir}: {err}") from None

    try:
        # an overflow shows as a non-finite state, which the divergence
        # checks report in one line; numpy's own warning would come first
        with np.errstate(over="ignore", invalid="ignore"):
            bundle = run_experiment(cfg)
    except DivergenceError as err:
        step = f" at step {err.step_index}" if err.step_index is not None else ""
        path = f" {err.path} path:" if err.path is not None else ""
        print(f"divergence{step}:{path} {err}", file=sys.stderr)
        return EXIT_DIVERGENCE

    for fmt, write in zip(_FORMATS, (write_csv, write_json)):
        if fmt in values["formats"]:
            try:
                write(bundle, out_dir / f"{cfg['experiment']}.{fmt}")
            except OSError as err:
                raise ConfigurationError(f"cannot write output: {err}") from None
    _print_summary(bundle)

    if args.assert_checks:
        if failures := check_assertions(cfg, bundle):
            print("\n".join(f"assertion failed: {f}" for f in failures), file=sys.stderr)
            return EXIT_ASSERTION
        print("assertions: all passed" if cfg.get("assertions") else
              "assertions: none configured")
    return EXIT_OK


def cmd_validate(args) -> int:
    diags = validate_config(load_config(args.config))
    print("\n".join(diags) or "config ok")
    return EXIT_CONFIG if diags else EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="mlmc-mvsde", description=(
        "Run multilevel particle-system experiments from a JSON config."))
    sub = parser.add_subparsers(dest="command", required=True)

    run_p = sub.add_parser("run", help="run the experiment described by a config file")
    run_p.add_argument("config", help="path to the JSON experiment config")
    run_p.add_argument("--assert", dest="assert_checks", action="store_true",
                       help="evaluate the config's assertion block; exit 4 on failure")
    run_p.add_argument("--seed", type=int, default=None, help="override the config seed")
    run_p.add_argument("--out", default=None, help="override the config output_dir")
    run_p.set_defaults(func=cmd_run)

    val_p = sub.add_parser("validate", help="validate a config without simulating")
    val_p.add_argument("config", help="path to the JSON experiment config")
    val_p.set_defaults(func=cmd_validate)
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except ConfigurationError as err:
        print(f"error: {err}", file=sys.stderr)
        return EXIT_CONFIG


if __name__ == "__main__":
    sys.exit(main())
