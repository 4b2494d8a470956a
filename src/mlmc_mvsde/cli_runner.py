"""Config-driven experiment runner.

One JSON document describes one experiment; ``run`` executes it and writes
``<output_dir>/<experiment>.csv`` and/or ``.json``, ``validate`` reports
schema and cross-field problems without simulating. Exit codes: 0 success,
2 validation error, 3 divergence or a non-finite coefficient, 4 failed
assertion under ``--assert``.
Float cells are serialized with 17 significant digits so identical runs
produce byte-identical tables; the only volatile field (wall time) lives in
the JSON metadata block.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, NamedTuple

import numpy as np

from . import __version__
from .errors import ConfigurationError, DivergenceError, NumericError
from .model import (BUILTIN_MODELS, BUILTIN_TEST_FUNCTIONS, REQUIRED, builtin_model,
                    builtin_test_function, is_number)
from .em_engine import (DEFAULT_REF_FACTOR, SimulationGrid, check_nested_steps,
                        small_noise_curve, strong_error_curve)
from .mlmc_engine import (
    DEFAULT_CHAOS_STEPS,
    DEFAULT_MAX_LEVEL,
    DEFAULT_PILOT_SAMPLES,
    chaos_study,
    cost_compare,
    coupled_variance_study,
    mlmc_estimate,
    second_moment_study,
)
from .stats import loglog_fit

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_DIVERGENCE = 3
EXIT_ASSERTION = 4


def _is_int(val) -> bool:
    return isinstance(val, int) and not isinstance(val, bool)


def _positive(val) -> bool:
    return is_number(val) and val > 0


def _check(ok: Callable, problem: str) -> Callable:
    """A field check: None when ``ok(value)`` holds, else the problem."""
    return lambda val: None if ok(val) else problem


def _integer(lo: int) -> Callable:
    """Check an integer (never a bool) of at least ``lo``."""
    return lambda val: ("must be an integer" if not _is_int(val)
                        else f"must be >= {lo}" if val < lo else None)


def _entries(ok: Callable, what: str) -> Callable:
    """Check a non-empty list whose every entry passes ``ok``."""
    return _check(lambda val: isinstance(val, list) and bool(val) and all(map(ok, val)),
                  f"must be a non-empty list of {what}")


_POSITIVE = _check(_positive, "must be a positive number")
_EPSILONS = _entries(lambda e: is_number(e) and 0 <= e <= 1, "numbers in [0, 1]")
_LEVELS = _check(lambda v: isinstance(v, list) and len(v) == 2 and all(map(_is_int, v))
                 and 1 <= v[0] <= v[1], "must be [lo, hi] with integers 1 <= lo <= hi")
_M = {"grid.m_particles": (_integer(1), REQUIRED)}
_LEVEL_STUDY = {"grid.refinement_n": (_integer(2), REQUIRED), "grid.levels": (_LEVELS, REQUIRED),
                **_M, "grid.replications": (_integer(1), REQUIRED)}
_ESTIMATOR = {"grid.refinement_n": (_integer(2), REQUIRED), **_M,
              "grid.pilot_samples": (_integer(2), DEFAULT_PILOT_SAMPLES),
              "grid.max_level": (_integer(1), DEFAULT_MAX_LEVEL)}
#: assertions on every rate fit an experiment produces
_FIT = ("slope_min", "slope_max", "r2_min")
#: every key a config may hold besides its experiment's fields and assertions,
#: as (section, key) with section "" at the top level
_KEYS = {("", key) for key in ("experiment", "model", "psi", "seed", "grid", "targets",
                               "assertions", "output_dir", "formats")}
_KEYS |= {("model", "name"), ("model", "params")}


class Experiment(NamedTuple):
    #: ``"section.key"`` -> (check, default or REQUIRED)
    fields: dict
    #: the assertion keys the experiment's results can evaluate
    assertions: tuple[str, ...]


EXPERIMENTS = {
    "strong-error": Experiment({
        "grid.h_list": (_entries(_positive, "positive numbers"), REQUIRED),
        "grid.ref_factor": (_integer(2), DEFAULT_REF_FACTOR), **_M,
        "grid.replications": (_integer(2), REQUIRED)}, _FIT),
    "coupled-variance": Experiment(_LEVEL_STUDY, _FIT + ("max_var_diff",)),
    "second-moment": Experiment(_LEVEL_STUDY, _FIT + ("ratio_min", "ratio_max")),
    "mlmc": Experiment({**_ESTIMATOR, "targets.delta": (_POSITIVE, REQUIRED)},
                       ("expected", "tolerance")),
    "cost-compare": Experiment({
        **_ESTIMATOR, "targets.delta_list": (_entries(_positive, "positive numbers"), REQUIRED),
        "targets.epsilon_list": (_EPSILONS, REQUIRED)}, _FIT),
    "chaos": Experiment({
        "grid.m_list": (_entries(lambda m: _is_int(m) and m > 0, "positive integers"), REQUIRED),
        "grid.reference_m": (_integer(1), REQUIRED),
        "grid.replications": (_integer(1), REQUIRED),
        "grid.steps": (_integer(1), DEFAULT_CHAOS_STEPS),
        "grid.pathwise": (_check(lambda v: isinstance(v, bool), "must be true or false"), False)},
        _FIT),
    "small-noise-deviation": Experiment({
        "grid.h": (_POSITIVE, REQUIRED), **_M, "grid.replications": (_integer(1), REQUIRED),
        "targets.epsilon_list": (_EPSILONS, REQUIRED)}, _FIT),
}


@dataclass
class ReportBundle:
    metadata: dict
    columns: list[str]
    rows: list[list]
    fits: list[dict] = field(default_factory=list)
    flags: list[str] = field(default_factory=list)
    summary: dict = field(default_factory=dict)


def load_config(path: str | Path) -> dict:
    p = Path(path)
    if not p.exists():
        raise ConfigurationError(f"config file not found: {p}")
    try:
        cfg = json.loads(p.read_text())
    except json.JSONDecodeError as err:
        raise ConfigurationError(f"config is not valid JSON: {err}") from None
    if not isinstance(cfg, dict):
        raise ConfigurationError("config must be a JSON object")
    return cfg


def _fields(exp: str, sections: dict):
    """Yield (name, key, check, value) for each field of ``exp``; the value is
    the table's default where the config leaves the field out."""
    for name, (check, default) in EXPERIMENTS[exp].fields.items():
        section, key = name.split(".")
        yield name, key, check, (sections.get(section) or {}).get(key, default)


def validate_config(cfg: dict) -> list[str]:
    """Full schema and cross-field validation; returns diagnostics."""
    diags: list[str] = []
    exp = cfg.get("experiment")
    if not isinstance(exp, str) or exp not in EXPERIMENTS:
        diags.append(f"experiment must be one of {tuple(EXPERIMENTS)}, got {exp!r}")
        return diags

    model = None
    model_cfg = cfg["model"] if isinstance(cfg.get("model"), dict) else {}
    if not isinstance(model_cfg.get("params"), dict):
        diags.append("model must be an object with 'name' and 'params'")
    elif model_cfg.get("name") not in BUILTIN_MODELS:
        diags.append(f"model.name must be one of {BUILTIN_MODELS}, got {model_cfg.get('name')!r}")
    else:
        try:
            model = builtin_model(model_cfg["name"], model_cfg["params"])
        except (ValueError, TypeError, ArithmeticError) as err:
            diags.append(f"model.params: {err}")

    psi = cfg.get("psi", "identity")
    if psi not in BUILTIN_TEST_FUNCTIONS:
        diags.append(f"psi must be one of {BUILTIN_TEST_FUNCTIONS}, got {psi!r}")

    if "seed" not in cfg:
        diags.append("missing required field 'seed'")
    elif not _is_int(cfg["seed"]):
        diags.append("seed must be an integer")

    sections = {}
    for section in ("grid", "targets", "assertions"):
        sections[section] = {} if cfg.get(section) is None else cfg[section]
        if not isinstance(sections[section], dict):
            diags.append(f"{section} must be an object")
            sections[section] = {}

    spec = EXPERIMENTS[exp]
    known = {*_KEYS, *(("assertions", key) for key in spec.assertions),
             *(tuple(name.split(".")) for name in spec.fields)}
    for section, entries in {"": cfg, "model": model_cfg, **sections}.items():
        for key, val in entries.items():
            name = f"{section}.{key}" if section else key
            if (section, key) not in known:
                diags.append(f"{name} is not one of {exp}'s {section or 'top-level'} keys "
                             f"{sorted(k for s, k in known if s == section)}")
            elif section == "assertions" and not is_number(val):
                diags.append(f"{name} must be a number")

    values = {}
    for name, key, check, val in _fields(exp, sections):
        if val is REQUIRED:
            diags.append(f"missing required field '{name}' for {exp}")
        elif problem := check(val):
            diags.append(f"{name} {problem}")
        else:
            values[key] = val

    if "h_list" in values:
        try:
            check_nested_steps(values["h_list"])
        except ConfigurationError as err:
            diags.append(f"grid.h_list: {err}")
    step_sizes = [("h", values["h"])] if "h" in values else []
    step_sizes += [("h_list", h) for h in values.get("h_list", [])]
    for key, h in step_sizes if model is not None else []:
        try:
            SimulationGrid.from_step_size(model.horizon, h)
        except ConfigurationError as err:
            diags.append(f"grid.{key}: {err}")
    if "reference_m" in values and values["reference_m"] <= max(values.get("m_list", [0])):
        diags.append("grid.reference_m must exceed every entry of grid.m_list")

    if "tolerance" in sections["assertions"] and "expected" not in sections["assertions"]:
        diags.append("assertions.tolerance needs assertions.expected")

    formats = cfg.get("formats", ["csv", "json"])
    if (not isinstance(formats, list) or not formats
            or any(f not in ("csv", "json") for f in formats)):
        diags.append("formats must be a non-empty subset of ['csv', 'json']")

    return diags


def _safe_fit(name: str, points: list[tuple[float, float]]) -> list[dict]:
    """The log-log fit of the points with both coordinates positive, or no
    fit when fewer than two remain or the fit is degenerate."""
    points = [(x, y) for x, y in points if x > 0 and y > 0]
    if len(points) < 2:
        return []
    try:
        fit = loglog_fit(points)
    except (ValueError, ArithmeticError):
        return []
    return [{"name": name, "slope": fit.slope, "intercept": fit.intercept,
             "r_squared": fit.r_squared, "points": [[float(x), float(y)] for x, y in points]}]


def run_experiment(cfg: dict) -> ReportBundle:
    exp = cfg["experiment"]
    model = builtin_model(cfg["model"]["name"], cfg["model"].get("params", {}))
    test_fn = builtin_test_function(cfg.get("psi", "identity"))
    v = {key: val for _, key, _, val in _fields(exp, cfg)}
    seed = int(cfg["seed"])
    t0 = time.perf_counter()

    fits: list[dict] = []
    flags: list[str] = []
    summary: dict = {}

    if exp == "coupled-variance":
        lo, hi = v["levels"]
        rows_data = coupled_variance_study(model, list(range(lo, hi + 1)), v["refinement_n"],
                                           v["m_particles"], v["replications"], test_fn, seed)
        columns = ["level", "h_coarse", "var_diff", "ci_lo", "ci_hi", "rng_cost", "samples"]
        rows = [[r.level, r.h_coarse, r.var_diff, r.var_diff - r.ci_halfwidth,
                 r.var_diff + r.ci_halfwidth, r.rng_cost, r.samples] for r in rows_data]
        fits += _safe_fit("var_diff_vs_h_coarse", [(r.h_coarse, r.var_diff) for r in rows_data])
        summary["max_var_diff"] = max(r.var_diff for r in rows_data)

    elif exp == "second-moment":
        lo, hi = v["levels"]
        rows_data = second_moment_study(model, list(range(lo, hi + 1)), v["refinement_n"],
                                        v["m_particles"], v["replications"], seed)
        columns = ["level", "h_coarse", "second_moment", "rng_cost", "samples"]
        rows = [[r.level, r.h_coarse, r.second_moment, r.rng_cost, r.samples]
                for r in rows_data]
        ratios = []
        for a, b in zip(rows_data, rows_data[1:]):
            if a.second_moment > 0 and b.second_moment > 0:
                ratios.append(float(np.log2(a.second_moment / b.second_moment)))
        summary["log2_ratios"] = ratios
        fits += _safe_fit("second_moment_vs_h_coarse",
                          [(r.h_coarse, r.second_moment) for r in rows_data])

    elif exp == "strong-error":
        curve = strong_error_curve(model, v["h_list"], v["m_particles"], v["replications"],
                                   seed, v["ref_factor"], test_fn)
        columns = ["h", "mse", "replications"]
        rows = [[h, mse, v["replications"]] for h, mse in curve]
        fits += _safe_fit("mse_vs_h", curve)

    elif exp == "mlmc":
        report = mlmc_estimate(model, test_fn, v["delta"], v["refinement_n"], v["m_particles"],
                               v["pilot_samples"], v["max_level"], seed)
        columns = ["level", "samples", "mean_diff", "var_diff", "rng_cost"]
        rows = [[r.level, r.samples, r.mean_diff, r.var_diff, r.rng_cost]
                for r in report.per_level]
        flags += report.flags
        summary = {
            "estimate": report.estimate,
            "total_cost": report.total_cost,
            "target_delta": report.target_delta,
            "allocation": report.allocation,
        }

    elif exp == "cost-compare":
        rows_data = cost_compare(model, test_fn, v["delta_list"], v["epsilon_list"],
                                 v["refinement_n"], v["m_particles"], v["pilot_samples"],
                                 v["max_level"], seed)
        columns = ["delta", "epsilon", "mc_cost", "mlmc_cost", "mc_steps", "mlmc_levels"]
        rows = [[r.delta, r.epsilon, r.mc_cost, r.mlmc_cost, r.mc_steps, r.mlmc_levels]
                for r in rows_data]
        for eps in v["epsilon_list"]:
            pts = [(r.delta, float(r.mlmc_cost)) for r in rows_data if r.epsilon == eps]
            fits += _safe_fit(f"mlmc_cost_vs_delta_eps_{eps}", pts)

    elif exp == "chaos":
        rows_data = chaos_study(model, v["m_list"], v["reference_m"], v["replications"], seed,
                                test_fn, v["steps"], v["pathwise"])
        columns = ["m_particles", "mse_vs_reference", "replications"]
        rows = [[r.m_particles, r.mse_vs_reference, r.replications] for r in rows_data]
        fits += _safe_fit("mse_vs_m", [(float(r.m_particles), r.mse_vs_reference)
                                       for r in rows_data])

    elif exp == "small-noise-deviation":
        sim_grid = SimulationGrid.from_step_size(model.horizon, v["h"])
        curve = small_noise_curve(model, v["epsilon_list"], sim_grid, v["m_particles"],
                                  v["replications"], seed)
        columns = ["epsilon", "mean_sup_sq", "replications"]
        rows = [[eps, dev, v["replications"]] for eps, dev in curve]
        fits += _safe_fit("deviation_vs_epsilon", curve)

    metadata = {
        "experiment": exp,
        "artifact_version": __version__,
        "seed": seed,
        "config": cfg,
        "wall_time_s": time.perf_counter() - t0,
    }
    return ReportBundle(metadata=metadata, columns=columns, rows=rows,
                        fits=fits, flags=flags, summary=summary)


def _fmt_cell(value, digits: int = 17) -> str:
    if isinstance(value, bool):
        return str(value)
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    if isinstance(value, (float, np.floating)):
        return f"{float(value):.{digits}g}"
    return str(value)


def write_csv(bundle: ReportBundle, path: Path):
    lines = [",".join(bundle.columns)]
    for row in bundle.rows:
        lines.append(",".join(_fmt_cell(v) for v in row))
    path.write_text("\n".join(lines) + "\n")


def write_json(bundle: ReportBundle, path: Path):
    doc = {
        "metadata": bundle.metadata,
        "table": {"columns": bundle.columns, "rows": bundle.rows},
        "rate_fits": bundle.fits,
        "flags": bundle.flags,
        "summary": bundle.summary,
    }
    path.write_text(json.dumps(doc, indent=2) + "\n")


def check_assertions(cfg: dict, bundle: ReportBundle) -> list[str]:
    """Evaluate a validated config's assertion block; returns failure messages.
    ``validate_config`` admits only the keys the experiment can evaluate. A
    ``*_min`` key is a lower bound on each value it names, every other
    bound key an upper bound."""
    checks = cfg.get("assertions") or {}
    failures: list[str] = []
    if checks.keys() & _FIT and not bundle.fits:
        failures.append("slope assertion configured but no rate fit was produced")

    slopes = [(f"{fit['name']}: slope", fit["slope"]) for fit in bundle.fits]
    ratios = [(f"log2 ratio[{i}]", r) for i, r in enumerate(bundle.summary.get("log2_ratios", []))]
    bounded = {"slope_min": slopes, "slope_max": slopes, "ratio_min": ratios, "ratio_max": ratios,
               "r2_min": [(f"{fit['name']}: r^2", fit["r_squared"]) for fit in bundle.fits],
               "max_var_diff": [("max var_diff", bundle.summary.get("max_var_diff"))]}
    for key, bound in checks.items():
        lower = key.endswith("_min")
        failures += [f"{label} {value:.4g} {'<' if lower else '>'} {bound}"
                     for label, value in bounded.get(key, [])
                     if (value < bound if lower else value > bound)]

    if "expected" in checks:
        est = bundle.summary["estimate"]
        tol = checks.get("tolerance", 0.0)
        if abs(est - checks["expected"]) > tol:
            failures.append(
                f"estimate {est:.6g} differs from {checks['expected']:.6g} by more than {tol:.3g}"
            )

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
    diags = validate_config(cfg)
    if diags:
        for d in diags:
            print(f"invalid config: {d}", file=sys.stderr)
        return EXIT_CONFIG

    try:
        bundle = run_experiment(cfg)
    except DivergenceError as err:
        step = f" at step {err.step_index}" if err.step_index is not None else ""
        path = f" {err.path} path:" if err.path is not None else ""
        print(f"divergence{step}:{path} {err}", file=sys.stderr)
        return EXIT_DIVERGENCE
    except NumericError as err:  # a coefficient left the floats
        print(f"divergence: {err}", file=sys.stderr)
        return EXIT_DIVERGENCE

    out_dir = Path(cfg.get("output_dir", "."))
    out_dir.mkdir(parents=True, exist_ok=True)
    formats = cfg.get("formats", ["csv", "json"])
    exp = cfg["experiment"]
    if "csv" in formats:
        write_csv(bundle, out_dir / f"{exp}.csv")
    if "json" in formats:
        write_json(bundle, out_dir / f"{exp}.json")
    _print_summary(bundle)

    if args.assert_checks:
        failures = check_assertions(cfg, bundle)
        if failures:
            for f in failures:
                print(f"assertion failed: {f}", file=sys.stderr)
            return EXIT_ASSERTION
        print("assertions: all passed" if cfg.get("assertions") else
              "assertions: none configured")
    return EXIT_OK


def cmd_validate(args) -> int:
    diags = validate_config(load_config(args.config))
    if not diags:
        print("config ok")
        return EXIT_OK
    for d in diags:
        print(d)
    return EXIT_CONFIG


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="mlmc-mvsde",
        description="Run multilevel particle-system experiments from a JSON config.",
    )
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
