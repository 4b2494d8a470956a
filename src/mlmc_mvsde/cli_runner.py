"""Config-driven experiment runner.

One JSON document describes one experiment; ``run`` executes it and writes
``<output_dir>/<experiment>.csv`` and/or ``.json``, ``validate`` reports
schema and cross-field problems without simulating. Exit codes: 0 success,
2 validation error, 3 divergence, 4 failed assertion under ``--assert``.
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

import numpy as np

from . import __version__
from .errors import ConfigurationError, DivergenceError
from .model import (
    BUILTIN_MODELS,
    BUILTIN_TEST_FUNCTIONS,
    ModelSpec,
    builtin_model,
    builtin_test_function,
)
from .em_engine import SimulationGrid, small_noise_curve, strong_error_curve, DEFAULT_REF_FACTOR
from .mlmc_engine import (
    DEFAULT_MAX_LEVEL,
    DEFAULT_PILOT_SAMPLES,
    chaos_study,
    cost_compare,
    coupled_variance_study,
    mlmc_estimate,
    second_moment_study,
)
from .stats import RateFit, loglog_fit

EXPERIMENTS = (
    "strong-error",
    "coupled-variance",
    "second-moment",
    "mlmc",
    "cost-compare",
    "chaos",
    "small-noise-deviation",
)

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_DIVERGENCE = 3
EXIT_ASSERTION = 4


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


def validate_config(cfg: dict) -> list[str]:
    """Full schema and cross-field validation; returns diagnostics."""
    diags: list[str] = []
    exp = cfg.get("experiment")
    if exp not in EXPERIMENTS:
        diags.append(f"experiment must be one of {EXPERIMENTS}, got {exp!r}")
        return diags

    model_cfg = cfg.get("model")
    if not isinstance(model_cfg, dict) or "name" not in model_cfg:
        diags.append("model must be an object with 'name' and 'params'")
    else:
        if model_cfg["name"] not in BUILTIN_MODELS:
            diags.append(f"model.name must be one of {BUILTIN_MODELS}, got {model_cfg['name']!r}")
        else:
            try:
                builtin_model(model_cfg["name"], model_cfg.get("params", {}))
            except (ConfigurationError, ValueError) as err:
                diags.append(f"model.params: {err}")

    psi = cfg.get("psi", "identity")
    if psi not in BUILTIN_TEST_FUNCTIONS:
        diags.append(f"psi must be one of {BUILTIN_TEST_FUNCTIONS}, got {psi!r}")

    if "seed" not in cfg:
        diags.append("missing required field 'seed'")
    elif not isinstance(cfg["seed"], int):
        diags.append("seed must be an integer")

    grid = cfg.get("grid", {})
    targets = cfg.get("targets", {})
    if not isinstance(grid, dict):
        diags.append("grid must be an object")
        grid = {}
    if not isinstance(targets, dict):
        diags.append("targets must be an object")
        targets = {}

    def need(section: dict, section_name: str, key: str, kind=(int, float), positive=True):
        if key not in section:
            diags.append(f"missing required field '{section_name}.{key}' for {exp}")
            return None
        val = section[key]
        if isinstance(kind, tuple) and not isinstance(val, kind):
            diags.append(f"{section_name}.{key} must be numeric")
            return None
        if positive and isinstance(val, (int, float)) and val <= 0:
            diags.append(f"{section_name}.{key} must be positive")
            return None
        return val

    if exp != "chaos":
        need(grid, "grid", "m_particles", int)

    if exp in ("coupled-variance", "second-moment", "mlmc", "cost-compare"):
        n_ref = grid.get("refinement_n")
        if n_ref is None:
            diags.append(f"missing required field 'grid.refinement_n' for {exp}")
        elif not isinstance(n_ref, int) or n_ref < 2:
            diags.append("refinement_n must be >= 2")

    if exp in ("coupled-variance", "second-moment"):
        levels = grid.get("levels")
        if (not isinstance(levels, list) or len(levels) != 2
                or not all(isinstance(v, int) for v in levels) or levels[0] > levels[1]):
            diags.append("grid.levels must be [lo, hi] with integer lo <= hi")
        elif levels[0] < 1:
            diags.append("grid.levels must start at level >= 1")
        need(grid, "grid", "replications", int)

    if exp == "strong-error":
        need(grid, "grid", "replications", int)
        h_list = grid.get("h_list")
        if not isinstance(h_list, list) or not h_list:
            diags.append("grid.h_list must be a non-empty list for strong-error")
        else:
            from .em_engine import check_nested_steps

            try:
                check_nested_steps(h_list)
            except ConfigurationError as err:
                diags.append(str(err))

    if exp == "mlmc":
        need(targets, "targets", "delta")

    if exp == "cost-compare":
        for key in ("delta_list", "epsilon_list"):
            vals = targets.get(key)
            if not isinstance(vals, list) or not vals:
                diags.append(f"targets.{key} must be a non-empty list for cost-compare")

    if exp == "chaos":
        m_list = grid.get("m_list")
        if not isinstance(m_list, list) or not m_list:
            diags.append("grid.m_list must be a non-empty list for chaos")
        ref_m = grid.get("reference_m")
        if not isinstance(ref_m, int):
            diags.append("missing required field 'grid.reference_m' for chaos")
        elif isinstance(m_list, list) and m_list and ref_m <= max(m_list):
            diags.append("grid.reference_m must exceed every entry of grid.m_list")
        need(grid, "grid", "replications", int)

    if exp == "small-noise-deviation":
        need(grid, "grid", "h")
        need(grid, "grid", "replications", int)
        eps_list = targets.get("epsilon_list")
        if not isinstance(eps_list, list) or not eps_list:
            diags.append("targets.epsilon_list must be a non-empty list for small-noise-deviation")

    formats = cfg.get("formats", ["csv", "json"])
    if (not isinstance(formats, list) or not formats
            or any(f not in ("csv", "json") for f in formats)):
        diags.append("formats must be a non-empty subset of ['csv', 'json']")

    return diags


def _build_model(cfg: dict) -> ModelSpec:
    mc = cfg["model"]
    return builtin_model(mc["name"], mc.get("params", {}))


def _fit_dict(name: str, fit: RateFit, points: list[tuple[float, float]]) -> dict:
    return {
        "name": name,
        "slope": fit.slope,
        "intercept": fit.intercept,
        "r_squared": fit.r_squared,
        "points": [[float(x), float(y)] for x, y in points],
    }


def _safe_fit(name: str, points: list[tuple[float, float]]) -> list[dict]:
    """The log-log fit of the points with both coordinates positive, or no
    fit when fewer than two remain or the fit is degenerate."""
    points = [(x, y) for x, y in points if x > 0 and y > 0]
    if len(points) < 2:
        return []
    try:
        return [_fit_dict(name, loglog_fit(points), points)]
    except (ValueError, ArithmeticError):
        return []


def run_experiment(cfg: dict) -> ReportBundle:
    exp = cfg["experiment"]
    model = _build_model(cfg)
    test_fn = builtin_test_function(cfg.get("psi", "identity"))
    grid = cfg.get("grid", {})
    targets = cfg.get("targets", {})
    seed = int(cfg["seed"])
    t0 = time.perf_counter()

    fits: list[dict] = []
    flags: list[str] = []
    summary: dict = {}

    if exp == "coupled-variance":
        lo, hi = grid["levels"]
        rows_data = coupled_variance_study(model, list(range(lo, hi + 1)),
                                           grid["refinement_n"], grid["m_particles"],
                                           grid["replications"], test_fn, seed)
        columns = ["level", "h_coarse", "var_diff", "ci_lo", "ci_hi", "rng_cost", "samples"]
        rows = [[r.level, r.h_coarse, r.var_diff, r.var_diff - r.ci_halfwidth,
                 r.var_diff + r.ci_halfwidth, r.rng_cost, r.samples] for r in rows_data]
        fits += _safe_fit("var_diff_vs_h_coarse", [(r.h_coarse, r.var_diff) for r in rows_data])
        summary["max_var_diff"] = max(r.var_diff for r in rows_data)

    elif exp == "second-moment":
        lo, hi = grid["levels"]
        rows_data = second_moment_study(model, list(range(lo, hi + 1)),
                                        grid["refinement_n"], grid["m_particles"],
                                        grid["replications"], seed)
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
        curve = strong_error_curve(model, grid["h_list"], grid["m_particles"],
                                   grid["replications"], seed,
                                   grid.get("ref_factor", DEFAULT_REF_FACTOR), test_fn)
        columns = ["h", "mse", "replications"]
        rows = [[h, mse, grid["replications"]] for h, mse in curve]
        fits += _safe_fit("mse_vs_h", curve)

    elif exp == "mlmc":
        report = mlmc_estimate(model, test_fn, targets["delta"], grid["refinement_n"],
                               grid["m_particles"],
                               grid.get("pilot_samples", DEFAULT_PILOT_SAMPLES),
                               grid.get("max_level", DEFAULT_MAX_LEVEL), seed)
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
        rows_data = cost_compare(model, test_fn, targets["delta_list"],
                                 targets["epsilon_list"], grid["refinement_n"],
                                 grid["m_particles"],
                                 grid.get("pilot_samples", DEFAULT_PILOT_SAMPLES),
                                 grid.get("max_level", DEFAULT_MAX_LEVEL), seed)
        columns = ["delta", "epsilon", "mc_cost", "mlmc_cost", "mc_steps", "mlmc_levels"]
        rows = [[r.delta, r.epsilon, r.mc_cost, r.mlmc_cost, r.mc_steps, r.mlmc_levels]
                for r in rows_data]
        for eps in targets["epsilon_list"]:
            pts = [(r.delta, float(r.mlmc_cost)) for r in rows_data if r.epsilon == eps]
            fits += _safe_fit(f"mlmc_cost_vs_delta_eps_{eps}", pts)

    elif exp == "chaos":
        rows_data = chaos_study(model, grid["m_list"], grid["reference_m"],
                                grid["replications"], seed, test_fn,
                                grid.get("steps", 64), grid.get("pathwise", False))
        columns = ["m_particles", "mse_vs_reference", "replications"]
        rows = [[r.m_particles, r.mse_vs_reference, r.replications] for r in rows_data]
        fits += _safe_fit("mse_vs_m", [(float(r.m_particles), r.mse_vs_reference)
                                       for r in rows_data])

    elif exp == "small-noise-deviation":
        sim_grid = SimulationGrid.from_step_size(model.horizon, grid["h"])
        curve = small_noise_curve(model, targets["epsilon_list"], sim_grid,
                                  grid["m_particles"], grid["replications"], seed)
        columns = ["epsilon", "mean_sup_sq", "replications"]
        rows = [[eps, dev, grid["replications"]] for eps, dev in curve]
        fits += _safe_fit("deviation_vs_epsilon", curve)

    else:
        raise ConfigurationError(f"unknown experiment '{exp}'")

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
    path.write_text(json.dumps(doc, indent=2, default=_json_default) + "\n")


def _json_default(obj):
    if isinstance(obj, (np.integer,)):
        return int(obj)
    if isinstance(obj, (np.floating,)):
        return float(obj)
    if isinstance(obj, np.ndarray):
        return obj.tolist()
    raise TypeError(f"not JSON serializable: {type(obj)}")


def check_assertions(cfg: dict, bundle: ReportBundle) -> list[str]:
    """Evaluate the config's assertion block; returns failure messages."""
    checks = cfg.get("assertions") or {}
    failures: list[str] = []
    slope_fits = bundle.fits

    if "slope_min" in checks or "slope_max" in checks or "r2_min" in checks:
        if not slope_fits:
            failures.append("slope assertion configured but no rate fit was produced")
        for fit in slope_fits:
            if "slope_min" in checks and fit["slope"] < checks["slope_min"]:
                failures.append(f"{fit['name']}: slope {fit['slope']:.4f} < {checks['slope_min']}")
            if "slope_max" in checks and fit["slope"] > checks["slope_max"]:
                failures.append(f"{fit['name']}: slope {fit['slope']:.4f} > {checks['slope_max']}")
            if "r2_min" in checks and fit["r_squared"] < checks["r2_min"]:
                failures.append(f"{fit['name']}: r^2 {fit['r_squared']:.4f} < {checks['r2_min']}")

    if "max_var_diff" in checks:
        worst = bundle.summary.get("max_var_diff")
        if worst is None:
            failures.append("max_var_diff assertion needs the coupled-variance experiment")
        elif worst > checks["max_var_diff"]:
            failures.append(f"max var_diff {worst:.3e} > {checks['max_var_diff']}")

    if "ratio_min" in checks or "ratio_max" in checks:
        ratios = bundle.summary.get("log2_ratios")
        if ratios is None:
            failures.append("ratio assertions need the second-moment experiment")
        else:
            for i, r in enumerate(ratios):
                if "ratio_min" in checks and r < checks["ratio_min"]:
                    failures.append(f"log2 ratio[{i}] {r:.3f} < {checks['ratio_min']}")
                if "ratio_max" in checks and r > checks["ratio_max"]:
                    failures.append(f"log2 ratio[{i}] {r:.3f} > {checks['ratio_max']}")

    if "expected" in checks:
        est = bundle.summary.get("estimate")
        tol = checks.get("tolerance", 0.0)
        if est is None:
            failures.append("expected/tolerance assertions need the mlmc experiment")
        elif abs(est - checks["expected"]) > tol:
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
    try:
        cfg = load_config(args.config)
    except ConfigurationError as err:
        print(f"error: {err}", file=sys.stderr)
        return EXIT_CONFIG
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
    except ConfigurationError as err:
        print(f"error: {err}", file=sys.stderr)
        return EXIT_CONFIG
    except DivergenceError as err:
        step = f" at step {err.step_index}" if err.step_index is not None else ""
        print(f"divergence{step}: {err}", file=sys.stderr)
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
    try:
        cfg = load_config(args.config)
    except ConfigurationError as err:
        print(f"error: {err}", file=sys.stderr)
        return EXIT_CONFIG
    diags = validate_config(cfg)
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
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
