import hashlib
import importlib.util
import json
import math
import os
import platform
import re
import subprocess
import sys
from inspect import Parameter, signature
from pathlib import Path

import numpy as np
import pytest

from mlmc_mvsde import (ConfigurationError, builtin_model, chaos_study, cost_compare,
                        coupled_variance_study, mlmc_estimate, second_moment_study,
                        small_noise_curve, strong_error_curve)
from mlmc_mvsde import cli_runner
from mlmc_mvsde.cli_runner import (EXPERIMENTS, ReportBundle, _print_summary, main,
                                   load_config, validate_config)
from mlmc_mvsde.model import REQUIRED

from helpers import IDENT


CONFIGS = Path(__file__).resolve().parent.parent / "configs"


def _benchmark_workloads():
    """``perfbench/workloads.py``, loaded from its file: the benchmark's checksum
    sweep refuses any CSV that differs from its table, so that table is the one copy."""
    spec = importlib.util.spec_from_file_location(
        "perfbench_workloads", CONFIGS.parent / "perfbench" / "workloads.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


#: SHA-256 of the CSV each shipped config writes at its own seed
SHIPPED_CSV_SHA256 = _benchmark_workloads().SHIPPED_CSV_SHA256


def write_config(tmp_path: Path, name: str, cfg: dict) -> Path:
    path = tmp_path / name
    path.write_text(json.dumps(cfg))
    return path


def zero_cv_config(out_dir: str) -> dict:
    return {
        "experiment": "coupled-variance",
        "model": {"name": "zero", "params": {"x0": 1.0, "T": 1.0, "epsilon": 0.1}},
        "grid": {"refinement_n": 2, "levels": [1, 3], "m_particles": 8, "replications": 12},
        "seed": 7,
        "output_dir": out_dir,
        "formats": ["csv", "json"],
    }


def test_validate_accepts_good_config(tmp_path):
    cfg = write_config(tmp_path, "ok.json", zero_cv_config(str(tmp_path)))
    assert main(["validate", str(cfg)]) == 0


def test_validate_flags_missing_m_particles(tmp_path, capsys):
    bad = zero_cv_config(str(tmp_path))
    del bad["grid"]["m_particles"]
    cfg = write_config(tmp_path, "bad.json", bad)
    assert main(["validate", str(cfg)]) == 2
    assert "m_particles" in capsys.readouterr().out


def test_validate_flags_refinement_n(tmp_path, capsys):
    bad = zero_cv_config(str(tmp_path))
    bad["grid"]["refinement_n"] = 1
    cfg = write_config(tmp_path, "bad.json", bad)
    assert main(["validate", str(cfg)]) == 2
    assert "grid.refinement_n: refinement_n must be an integer >= 2, got 1" in \
        capsys.readouterr().out


def test_validate_flags_non_nested_h_list(tmp_path, capsys):
    cfg = {
        "experiment": "strong-error",
        "model": {"name": "meanfield_ou",
                  "params": {"a": 1, "b": 0.5, "sigma": 1, "x0": 1, "T": 1, "epsilon": 0.1}},
        "grid": {"h_list": [0.25, 0.2], "ref_factor": 8,
                 "m_particles": 8, "replications": 4},
        "seed": 1,
    }
    path = write_config(tmp_path, "se.json", cfg)
    assert main(["validate", str(path)]) == 2
    out = capsys.readouterr().out
    assert "not nested" in out and "0.2" in out


def test_validate_rejects_bad_json(tmp_path, capsys):
    path = tmp_path / "broken.json"
    path.write_text("{not json")
    assert main(["validate", str(path)]) == 2


def test_run_zero_model_writes_zero_variances(tmp_path):
    out = tmp_path / "out"
    cfg = write_config(tmp_path, "cv.json", zero_cv_config(str(out)))
    assert main(["run", str(cfg)]) == 0
    lines = (out / "coupled-variance.csv").read_text().strip().splitlines()
    assert lines[0] == "level,h_coarse,var_diff,ci_lo,ci_hi,rng_cost,samples"
    for line in lines[1:]:
        assert line.split(",")[2] == "0"
    doc = json.loads((out / "coupled-variance.json").read_text())
    assert doc["summary"]["max_var_diff"] == 0.0


def test_run_missing_field_exits_2(tmp_path, capsys):
    bad = zero_cv_config(str(tmp_path))
    del bad["grid"]["m_particles"]
    cfg = write_config(tmp_path, "bad.json", bad)
    assert main(["run", str(cfg)]) == 2
    assert "m_particles" in capsys.readouterr().err


def test_run_divergence_exits_3(tmp_path, capsys):
    cfg = zero_cv_config(str(tmp_path / "out"))
    cfg["model"] = {"name": "meanfield_ou",
                    "params": {"a": -60.0, "b": 0.0, "sigma": 0.0,
                               "x0": 1e11, "T": 1.0, "epsilon": 0.0}}
    path = write_config(tmp_path, "div.json", cfg)
    assert main(["run", str(path)]) == 3
    assert "divergence" in capsys.readouterr().err


def run_overflow_probe(tmp_path, *python_flags) -> subprocess.CompletedProcess:
    """``run`` in a fresh interpreter on an mlmc config whose first level-0
    step overflows: x0 + h a x0 with x0 = 1e12 at the edge of the trust
    region, a = -1e150 and h = T = 1e300."""
    cfg = {"experiment": "mlmc", "seed": 0, "output_dir": str(tmp_path / "out"),
           "model": {"name": "measure_diffusion",
                     "params": {"a": -1e150, "sigma": 1.0, "x0": 1e12, "T": 1e300,
                                "epsilon": 0.1}},
           "grid": {"refinement_n": 2, "m_particles": 4}, "targets": {"delta": 0.1}}
    path = write_config(tmp_path, "overflow.json", cfg)
    src = Path(__file__).resolve().parent.parent / "src"
    return subprocess.run(
        [sys.executable, *python_flags, "-m", "mlmc_mvsde.cli_runner", "run", str(path)],
        capture_output=True, text=True, env={**os.environ, "PYTHONPATH": str(src)})


def test_run_under_warnings_as_errors_exits_3(tmp_path):
    # numpy's overflow warning is an exception here
    proc = run_overflow_probe(tmp_path, "-W", "error::RuntimeWarning")
    assert proc.returncode == 3, proc.stderr
    assert proc.stderr.splitlines() == [
        "divergence at step 0: fine path: particle state left the finite trust region"]


def test_run_reports_an_overflow_in_one_line(tmp_path):
    # with warnings at their defaults, numpy prints none before the report
    proc = run_overflow_probe(tmp_path)
    assert proc.returncode == 3, proc.stderr
    assert proc.stderr.splitlines() == [
        "divergence at step 0: fine path: particle state left the finite trust region"]


def test_summary_prints_float_exponents(capsys):
    # 2.5e-05 is 2.5000000000000001e-05 at 17 digits, whose first 12 characters
    # drop the exponent
    bundle = ReportBundle(metadata={"experiment": "mlmc"}, columns=["level", "var_diff"],
                          rows=[[4, 2.5e-05]])
    _print_summary(bundle)
    assert capsys.readouterr().out.splitlines()[2].split() == ["4", "2.5e-05"]


def test_rerun_is_byte_identical(tmp_path):
    out_a, out_b = tmp_path / "a", tmp_path / "b"
    cfg = zero_cv_config(str(out_a))
    cfg["model"] = {"name": "meanfield_ou",
                    "params": {"a": 1, "b": 0.5, "sigma": 1, "x0": 1, "T": 1, "epsilon": 0.3}}
    path = write_config(tmp_path, "cv.json", cfg)
    assert main(["run", str(path)]) == 0
    assert main(["run", str(path), "--out", str(out_b)]) == 0
    csv_a = (out_a / "coupled-variance.csv").read_bytes()
    csv_b = (out_b / "coupled-variance.csv").read_bytes()
    assert csv_a == csv_b
    # every asserted slope ships its fit together with the raw points used
    doc = json.loads((out_a / "coupled-variance.json").read_text())
    assert doc["rate_fits"], "expected a rate fit for the variance decay"
    fit = doc["rate_fits"][0]
    assert {"name", "slope", "intercept", "r_squared", "points"} <= set(fit)
    assert len(fit["points"]) == 3 and all(len(p) == 2 for p in fit["points"])


def test_seed_override_changes_tables(tmp_path):
    out_a, out_b = tmp_path / "a", tmp_path / "b"
    cfg = zero_cv_config(str(out_a))
    cfg["model"] = {"name": "meanfield_ou",
                    "params": {"a": 1, "b": 0.5, "sigma": 1, "x0": 1, "T": 1, "epsilon": 0.3}}
    path = write_config(tmp_path, "cv.json", cfg)
    assert main(["run", str(path)]) == 0
    assert main(["run", str(path), "--seed", "99", "--out", str(out_b)]) == 0
    assert (out_a / "coupled-variance.csv").read_bytes() != \
        (out_b / "coupled-variance.csv").read_bytes()


def test_run_mlmc_reports_estimate_near_oracle(tmp_path):
    out = tmp_path / "out"
    cfg = {
        "experiment": "mlmc",
        "model": {"name": "meanfield_ou",
                  "params": {"a": 1, "b": 0.5, "sigma": 1, "x0": 1, "T": 1, "epsilon": 0.25}},
        "grid": {"refinement_n": 2, "m_particles": 64, "pilot_samples": 32, "max_level": 8},
        "targets": {"delta": 5e-3},
        "seed": 11,
        "output_dir": str(out),
        "formats": ["json"],
    }
    path = write_config(tmp_path, "mlmc.json", cfg)
    assert main(["run", str(path)]) == 0
    doc = json.loads((out / "mlmc.json").read_text())
    assert abs(doc["summary"]["estimate"] - math.exp(-1)) <= 3 * 5e-3
    assert doc["summary"]["total_cost"] == sum(row[4] for row in doc["table"]["rows"])


def test_assert_flag_pass_and_fail(tmp_path):
    out = tmp_path / "out"
    cfg = zero_cv_config(str(out))
    cfg["assertions"] = {"max_var_diff": 1e-25}
    path = write_config(tmp_path, "cv.json", cfg)
    assert main(["run", str(path), "--assert"]) == 0

    cfg["model"] = {"name": "meanfield_ou",
                    "params": {"a": 1, "b": 0.5, "sigma": 1, "x0": 1, "T": 1, "epsilon": 0.3}}
    path = write_config(tmp_path, "cv2.json", cfg)
    assert main(["run", str(path), "--assert"]) == 4
    # without --assert the same run succeeds
    assert main(["run", str(path)]) == 0


ZERO = {"name": "zero", "params": {"x0": 1.0, "T": 1.0, "epsilon": 0.1}}
OU_MODEL = {"name": "meanfield_ou",
            "params": {"a": 1, "b": 0.5, "sigma": 1, "x0": 1, "T": 1, "epsilon": 0.3}}

#: small runs whose results the assertion tests below bound: second-moment
#: makes one fit and three log2 ratios, cost-compare one fit per epsilon,
#: and the zero model's mlmc estimate is exactly its x0 = 1
ASSERTED = {
    "second-moment": {"model": OU_MODEL, "grid": {"refinement_n": 2, "levels": [1, 4],
                                                  "m_particles": 4, "replications": 8}},
    "cost-compare": {"model": OU_MODEL,
                     "grid": {"refinement_n": 2, "m_particles": 2, "pilot_samples": 4,
                              "max_level": 3},
                     "targets": {"delta_list": [0.1, 0.05], "epsilon_list": [0.1, 0.3]}},
    "mlmc": {"model": ZERO, "grid": {"refinement_n": 2, "m_particles": 2,
                                     "pilot_samples": 2, "max_level": 2},
             "targets": {"delta": 0.5}},
    "coupled-variance": {"model": ZERO, "grid": {"refinement_n": 2, "levels": [1, 2],
                                                 "m_particles": 2, "replications": 2}},
}


def run_asserted(tmp_path, capsys, exp: str, checks: dict) -> tuple[int, list[str]]:
    """Exit code and failure lines of ``run --assert`` on ``ASSERTED[exp]``."""
    cfg = {"experiment": exp, "seed": 0, "output_dir": str(tmp_path / "out"),
           **ASSERTED[exp], "assertions": checks}
    code = main(["run", str(write_config(tmp_path, "asserted.json", cfg)), "--assert"])
    prefix = "assertion failed: "
    return code, [line[len(prefix):] for line in capsys.readouterr().err.splitlines()
                  if line.startswith(prefix)]


#: (experiment, key, a bound every value meets, a bound every value breaks,
#: the label of each value it then names)
BOUNDS = [
    ("second-moment", "slope_min", -100, 100, ["second_moment_vs_h_coarse: slope"]),
    ("second-moment", "slope_max", 100, -100, ["second_moment_vs_h_coarse: slope"]),
    ("second-moment", "r2_min", -1, 2, ["second_moment_vs_h_coarse: r^2"]),
    ("second-moment", "ratio_min", -100, 100, [f"log2 ratio[{i}]" for i in range(3)]),
    ("second-moment", "ratio_max", 100, -100, [f"log2 ratio[{i}]" for i in range(3)]),
    ("cost-compare", "slope_min", -100, 100,
     [f"mlmc_cost_vs_delta_eps_{eps}: slope" for eps in (0.1, 0.3)]),
    ("coupled-variance", "max_var_diff", 1, -1, ["max var_diff"]),
]


@pytest.mark.parametrize("exp,key,holds,breaks,labels", BOUNDS,
                         ids=[f"{exp}-{key}" for exp, key, *_ in BOUNDS])
def test_assert_names_every_value_outside_a_bound(tmp_path, capsys, exp, key, holds, breaks,
                                                  labels):
    assert run_asserted(tmp_path, capsys, exp, {key: holds}) == (0, [])
    code, failed = run_asserted(tmp_path, capsys, exp, {key: breaks})
    assert code == 4 and len(failed) == len(labels)
    op = "<" if key.endswith("_min") else ">"
    for line, label in zip(sorted(failed), labels):
        assert re.fullmatch(rf"{re.escape(label)} \S+ {op} {breaks}", line), line


@pytest.mark.parametrize("checks,ok", [({"expected": 1.0}, True), ({"expected": 2.0}, False),
                                       ({"expected": 1.5, "tolerance": 0.6}, True),
                                       ({"expected": 1.5, "tolerance": 0.4}, False)])
def test_assert_bounds_the_mlmc_estimate(tmp_path, capsys, checks, ok):
    code, failed = run_asserted(tmp_path, capsys, "mlmc", checks)
    assert (code, len(failed)) == ((0, 0) if ok else (4, 1))
    assert all(line.startswith("estimate 1 differs from ") for line in failed)


def test_assert_reports_a_missing_rate_fit(tmp_path, capsys):
    # the zero model's variances are all 0, so no positive point is left to fit
    assert run_asserted(tmp_path, capsys, "coupled-variance", {"slope_min": 1.0}) == (
        4, ["slope assertion configured but no rate fit was produced"])


def test_validate_config_catches_model_param_errors():
    diags = validate_config({
        "experiment": "mlmc",
        "model": {"name": "meanfield_ou", "params": {"b": 0.5, "x0": 1, "T": 1, "epsilon": 0.1}},
        "grid": {"refinement_n": 2, "m_particles": 8},
        "targets": {"delta": 1e-3},
        "seed": 0,
    })
    assert any("'a'" in d for d in diags)


#: a small valid config per experiment whose integer and bool fields are probed below
TYPED_BASES = {
    "coupled-variance": {"grid": {"refinement_n": 2, "levels": [1, 1], "m_particles": 2,
                                  "replications": 2}},
    "second-moment": {"grid": {"refinement_n": 2, "levels": [1, 1], "m_particles": 2,
                               "replications": 2}},
    "mlmc": {"grid": {"refinement_n": 2, "m_particles": 2, "pilot_samples": 2, "max_level": 2},
             "targets": {"delta": 0.5}},
    "strong-error": {"grid": {"h_list": [0.5], "ref_factor": 2, "m_particles": 2,
                              "replications": 2}},
    "chaos": {"grid": {"m_list": [2], "reference_m": 4, "replications": 2, "steps": 2,
                       "pathwise": False}},
    "cost-compare": {"grid": {"refinement_n": 2, "m_particles": 2, "pilot_samples": 2,
                              "max_level": 2},
                     "targets": {"delta_list": [0.5], "epsilon_list": [0.1]}},
    "small-noise-deviation": {"grid": {"h": 0.5, "m_particles": 2, "replications": 2},
                              "targets": {"epsilon_list": [0.1]}},
}

TYPED_FIELDS = [
    ("coupled-variance", "m_particles"),
    ("coupled-variance", "replications"),
    ("chaos", "reference_m"),
    ("chaos", "steps"),
    ("mlmc", "pilot_samples"),
    ("mlmc", "max_level"),
    ("strong-error", "ref_factor"),
]


def typed_config(exp: str, out_dir: str) -> dict:
    return json.loads(json.dumps({"experiment": exp, "model": ZERO, "seed": 0,
                                  "output_dir": out_dir, **TYPED_BASES[exp]}))


@pytest.mark.parametrize("exp", sorted(TYPED_BASES))
def test_typed_bases_run(tmp_path, exp):
    path = write_config(tmp_path, "ok.json", typed_config(exp, str(tmp_path / "out")))
    assert main(["run", str(path)]) == 0


#: the engine function each experiment's run calls
ENGINES = {"strong-error": strong_error_curve, "coupled-variance": coupled_variance_study,
           "second-moment": second_moment_study, "mlmc": mlmc_estimate,
           "cost-compare": cost_compare, "chaos": chaos_study,
           "small-noise-deviation": small_noise_curve}


@pytest.mark.parametrize("exp", sorted(EXPERIMENTS))
def test_every_field_binds_to_an_argument_of_the_preflight_and_the_engine(tmp_path, exp):
    # a field added without its argument, or an argument renamed, fails here
    cfg = typed_config(exp, str(tmp_path / "out"))
    args = set(cli_runner._args(exp, cli_runner._values(cfg)))
    assert args == set(signature(EXPERIMENTS[exp].preflight).parameters) - {"model"}
    assert args <= set(signature(ENGINES[exp]).parameters)


@pytest.mark.parametrize("exp", sorted(EXPERIMENTS))
def test_every_field_defaults_to_its_engine_argument_default(exp):
    params = signature(ENGINES[exp]).parameters
    for name, default in EXPERIMENTS[exp].fields.items():
        key = name.rpartition(".")[2]
        engine_default = params[{"delta": "target_delta"}.get(key, key)].default
        assert default == (REQUIRED if engine_default is Parameter.empty else engine_default)


#: the fields a config of each experiment must give; every other field has a default
REQUIRED_FIELDS = {
    "strong-error": ["grid.h_list", "grid.m_particles", "grid.replications"],
    "coupled-variance": ["grid.refinement_n", "grid.levels", "grid.m_particles",
                         "grid.replications"],
    "second-moment": ["grid.refinement_n", "grid.levels", "grid.m_particles",
                      "grid.replications"],
    "mlmc": ["grid.refinement_n", "grid.m_particles", "targets.delta"],
    "cost-compare": ["grid.refinement_n", "grid.m_particles", "targets.delta_list",
                     "targets.epsilon_list"],
    "chaos": ["grid.m_list", "grid.reference_m", "grid.replications"],
    "small-noise-deviation": ["grid.h", "grid.m_particles", "grid.replications",
                              "targets.epsilon_list"],
}


@pytest.mark.parametrize("exp", sorted(EXPERIMENTS))
def test_a_config_without_its_required_fields_is_told_each_one(exp):
    diags = validate_config({"experiment": exp, "model": ZERO})
    assert sorted(diags) == sorted(f"missing required field '{name}' for {exp}"
                                   for name in ["seed", *REQUIRED_FIELDS[exp]])


@pytest.mark.parametrize("exp", sorted(EXPERIMENTS))
def test_psi_is_a_field_exactly_where_the_engine_takes_a_test_function(tmp_path, exp):
    # second-moment and small-noise-deviation accepted psi and ran without it
    cfg = typed_config(exp, str(tmp_path / "out"))
    names = {name for name, _, _ in cli_runner._fields(exp, cfg)}
    assert ("psi" in names) == ("test_fn" in signature(ENGINES[exp]).parameters)


@pytest.mark.parametrize("value", [2.5, "8", True])
@pytest.mark.parametrize("exp,key", TYPED_FIELDS)
def test_run_rejects_a_non_integer_field(tmp_path, capsys, exp, key, value):
    cfg = typed_config(exp, str(tmp_path / "out"))
    cfg["grid"][key] = value
    path = write_config(tmp_path, "bad.json", cfg)
    assert main(["run", str(path)]) == 2
    err = capsys.readouterr().err
    assert f"grid.{key}: {key} must be an integer " in err and f"got {value!r}" in err


@pytest.mark.parametrize("value", [2.5, "8", True, 0])
def test_run_rejects_a_non_integer_m_list_entry(tmp_path, capsys, value):
    cfg = typed_config("chaos", str(tmp_path / "out"))
    cfg["grid"]["m_list"] = [2, value]
    path = write_config(tmp_path, "bad.json", cfg)
    assert main(["run", str(path)]) == 2
    assert (f"grid.m_list: an m_list entry must be an integer >= 1, got {value!r}"
            in capsys.readouterr().err)


@pytest.mark.parametrize("value", ["no", 0, 1, None])
def test_run_rejects_a_non_bool_pathwise(tmp_path, capsys, value):
    cfg = typed_config("chaos", str(tmp_path / "out"))
    cfg["grid"]["pathwise"] = value
    path = write_config(tmp_path, "bad.json", cfg)
    assert main(["run", str(path)]) == 2
    assert f"grid.pathwise: pathwise must be a bool, got {value!r}" in capsys.readouterr().err


def test_validate_config_unknown_experiment():
    diags = validate_config({"experiment": "nope"})
    assert diags and "experiment" in diags[0]


@pytest.mark.parametrize("name", sorted(SHIPPED_CSV_SHA256))
def test_shipped_config_csv_is_bit_exact(tmp_path, name):
    assert main(["run", str(CONFIGS / f"{name}.json"), "--out", str(tmp_path)]) == 0
    (csv,) = tmp_path.glob("*.csv")
    assert hashlib.sha256(csv.read_bytes()).hexdigest() == SHIPPED_CSV_SHA256[name], (
        f"{name}.csv differs from its recorded bits under numpy {np.__version__}, "
        f"Python {platform.python_version()}")


def test_the_json_metadata_records_the_numpy_and_python_versions(tmp_path):
    path = write_config(tmp_path, "cv.json", zero_cv_config(str(tmp_path)))
    assert main(["run", str(path)]) == 0
    metadata = json.loads((tmp_path / "coupled-variance.json").read_text())["metadata"]
    assert (metadata["numpy"], metadata["python"]) == (np.__version__,
                                                       platform.python_version())
    # like the wall time, they stay out of the CSV
    assert np.__version__ not in (tmp_path / "coupled-variance.csv").read_text()


#: (experiment, section, key, value) that ``validate`` crashed on or passed
#: and ``run`` then rejected, crashed on or misread, or that no test reached;
#: section None sets a top-level key
REJECTED = [
    ("mlmc", None, "model", "zero"),
    ("mlmc", "model", "name", "nope"),
    ("mlmc", None, "psi", "sin"),
    ("mlmc", None, "psi", ["cos"]),
    # their engine functions take no test function, so their runs ignored it
    ("second-moment", None, "psi", "identity"),
    ("small-noise-deviation", None, "psi", "cos"),
    ("mlmc", None, "seed", 1.5),
    *[("mlmc", None, section, [1]) for section in ("grid", "targets", "assertions")],
    ("chaos", "grid", "reference_m", 2),
    *[("mlmc", None, "formats", formats) for formats in ("csv", [], ["csv", "xml"])],
    ("mlmc", "targets", "delta_list", [0.5]),
    ("mlmc", "model", "description", "OU"),
    *[("strong-error", "grid", "h_list", h)
      for h in ([0.25, "a"], [0.25, 0], ["a"], [-0.25], [0.3])],
    # strong_error_curve summed a repeated step's MSE once per repeat
    ("strong-error", "grid", "h_list", [0.5, 0.5]),
    ("strong-error", "grid", "ref_factor", 1),
    ("strong-error", "grid", "replications", 1),
    ("mlmc", "grid", "pilot_samples", 1),
    *[("cost-compare", "targets", key, value)
      for key, value in (("delta_list", ["x"]), ("delta_list", [-0.1]),
                         ("epsilon_list", ["x"]), ("epsilon_list", [2.0]))],
    *[("small-noise-deviation", "targets", "epsilon_list", e) for e in (["x"], [2.0], [True])],
    ("small-noise-deviation", "grid", "h", 0.3),
    ("small-noise-deviation", "grid", "h", math.inf),
    ("mlmc", "assertions", "expected", math.nan),
    ("strong-error", "assertions", "slope_mn", 99),
    ("strong-error", "assertions", "slope_min", "x"),
    ("strong-error", "assertions", "max_var_diff", 1e-9),
    ("mlmc", "assertions", "slope_min", 1.0),
    ("mlmc", "assertions", "tolerance", 0.1),
    # run crashed on a non-string output_dir with a TypeError
    *[("mlmc", None, "output_dir", out) for out in (5, ["a"])],
    # rng keys a seed modulo 2**64, so -1 drew the bits of 2**64 - 1 and 2**64 those of 0
    *[("mlmc", None, "seed", seed) for seed in (-1, 2**64)],
    # run --assert failed on every estimate
    ("mlmc", None, "assertions", {"expected": 0.37, "tolerance": -1}),
    # run failed in numpy on a path of more than MAX_STEPS steps: 2**60 fine
    # steps, 1e300 steps, a 28.4 PiB noise array
    ("coupled-variance", "grid", "levels", [60, 60]),
    ("small-noise-deviation", "grid", "h", 1e-300),
    ("chaos", "grid", "steps", 10**15),
    # a reference grid of 2 * 2**24 steps, and a variance pilot of 65**4
    ("strong-error", "grid", "ref_factor", 2**24),
    ("cost-compare", "grid", "refinement_n", 65),
    # noise blocks past MAX_NOISE_FLOATS; run failed in numpy on the first, 2 * 10**12 floats
    ("small-noise-deviation", "grid", "m_particles", 10**12),
    *[(exp, "grid", "m_particles", 10**9) for exp in ("strong-error", "coupled-variance",
                                                        "cost-compare")],
    ("chaos", "grid", "reference_m", 10**9),
    # the library's preflights own these ranges now; targets.* names come from them too
    *[("coupled-variance", "grid", "levels", levels) for levels in ([1], [2, 1], [0, 1])],
    # a span of 10**18 levels, refused at the first level past MAX_STEPS, never built
    ("coupled-variance", "grid", "levels", [1, 10**18]),
    ("mlmc", "targets", "delta", 0),
    ("mlmc", "grid", "m_particles", 0),
    ("cost-compare", "targets", "delta_list", []),
]


@pytest.mark.parametrize("exp,section,key,value", REJECTED,
                         ids=[f"{exp}-{key}={json.dumps(v, separators=(',', ':'))}"
                              for exp, _, key, v in REJECTED])
def test_validate_and_run_reject_the_same_config(tmp_path, capsys, exp, section, key, value):
    cfg = typed_config(exp, str(tmp_path / "out"))
    (cfg.setdefault(section, {}) if section else cfg)[key] = value
    assert_rejected(tmp_path, capsys, cfg, f"{section}.{key}" if section else key)


@pytest.mark.parametrize("levels", [[2, 1], [3, 1]], ids=str)
def test_a_reversed_level_pair_is_reported_as_written(tmp_path, capsys, levels):
    # validate reported the empty range(3, 2) it had made of [3, 1]
    cfg = typed_config("coupled-variance", str(tmp_path / "out"))
    cfg["grid"]["levels"] = levels
    assert_rejected(tmp_path, capsys, cfg, "grid.levels: levels must be [lo, hi], two integers "
                    f"with lo <= hi, got {levels}")


#: (experiment, grid key, value) past one limit of the experiment's grid
#: preflight, and the engine call its run makes on the config's values
PREFLIGHT_LIMITS = [
    # validate blamed the variance pilot's noise block, the run the reference grid's
    ("cost-compare", "m_particles", 10**9, lambda model, v: cost_compare(
        model, IDENT, v["delta_list"], v["epsilon_list"], v["refinement_n"], v["m_particles"],
        v["pilot_samples"], v["max_level"])),
    # validate and the run worded these two limits differently
    ("cost-compare", "refinement_n", 65, lambda model, v: cost_compare(
        model, IDENT, v["delta_list"], v["epsilon_list"], v["refinement_n"], v["m_particles"],
        v["pilot_samples"], v["max_level"])),
    ("chaos", "steps", 2**24 + 1, lambda model, v: chaos_study(
        model, v["m_list"], v["reference_m"], v["replications"], 0, steps=v["steps"])),
    ("strong-error", "ref_factor", 2**24, lambda model, v: strong_error_curve(
        model, v["h_list"], v["m_particles"], v["replications"], 0, v["ref_factor"])),
    ("coupled-variance", "levels", [60, 60], lambda model, v: coupled_variance_study(
        model, list(range(v["levels"][0], v["levels"][1] + 1)), v["refinement_n"],
        v["m_particles"], v["replications"], IDENT, 0)),
    ("small-noise-deviation", "h", 0.3, lambda model, v: small_noise_curve(
        model, v["epsilon_list"], v["h"], v["m_particles"], v["replications"], 0)),
    # validate passed a level-1 path past MAX_STEPS, which every mlmc run reaches
    ("mlmc", "refinement_n", 2**24 + 1, lambda model, v: mlmc_estimate(
        model, IDENT, v["delta"], v["refinement_n"], v["m_particles"], v["pilot_samples"],
        v["max_level"])),
    ("mlmc", "pilot_samples", 1, lambda model, v: mlmc_estimate(
        model, IDENT, v["delta"], v["refinement_n"], v["m_particles"], v["pilot_samples"],
        v["max_level"])),
]


@pytest.mark.parametrize("exp,key,value,engine", PREFLIGHT_LIMITS,
                         ids=[f"{exp}-{key}={json.dumps(v, separators=(',', ':'))}"
                              for exp, key, v, _ in PREFLIGHT_LIMITS])
def test_validate_reports_the_error_the_engine_function_raises(tmp_path, exp, key, value, engine):
    cfg = typed_config(exp, str(tmp_path / "out"))
    cfg["grid"][key] = value
    model = builtin_model(cfg["model"]["name"], cfg["model"]["params"])
    with pytest.raises(ConfigurationError) as err:
        engine(model, {**cfg["grid"], **cfg.get("targets", {})})
    assert validate_config(cfg) == [f"grid.{key}: {err.value}"]


def test_an_mlmc_level_past_the_noise_bound_is_refused_once_the_run_reaches_it(tmp_path, capsys):
    # the levels an mlmc run reaches depend on its samples, so validate passes it
    cfg = typed_config("mlmc", str(tmp_path / "out"))
    cfg["grid"]["m_particles"] = 10**12
    path = write_config(tmp_path, "big.json", cfg)
    assert main(["validate", str(path)]) == 0
    capsys.readouterr()
    assert main(["run", str(path)]) == 2
    assert "the noise block of a level-0 sample" in capsys.readouterr().err


@pytest.mark.parametrize("seed", ["-1", str(2**64)])
def test_run_refuses_a_seed_override_outside_the_stream_keys(tmp_path, capsys, seed):
    path = write_config(tmp_path, "ok.json", typed_config("mlmc", str(tmp_path / "out")))
    assert main(["run", str(path), "--seed", seed]) == 2
    assert "seed must be an integer in [0, 2**64)" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


#: meanfield_ou parameters that ``validate`` passed: ``run`` read the first
#: three with float(), crashed on NaN with exit 1, and let σ win over sigma
BAD_PARAMS = [{"a": "1.5"}, {"T": True}, {"x0": [True]}, {"a": math.nan},
              {"sigma": 2.0, "σ": 1.0}]


@pytest.mark.parametrize("params", BAD_PARAMS,
                         ids=lambda p: json.dumps(p, ensure_ascii=False, separators=(",", ":")))
def test_validate_and_run_reject_the_same_model_parameter(tmp_path, capsys, params):
    cfg = typed_config("mlmc", str(tmp_path / "out"))
    cfg["model"] = {"name": "meanfield_ou", "params": {**OU_MODEL["params"], **params}}
    assert_rejected(tmp_path, capsys, cfg, "model.params", f"'{list(params)[-1]}'")


#: finite parameters whose derived constants overflow a float
OVERFLOWING = [("meanfield_ou", {"a": -1000, "b": 0}, "x0 exp(-a T)"),
               ("meanfield_ou", {"a": -700, "b": 0, "x0": 1e300}, "x0 exp(-a T)"),
               ("meanfield_ou", {"a": 1e300, "b": 0.5}, "(a + b)^2"),
               ("kuramoto", {"kappa": 1e200}, "2 kappa^2"),
               ("measure_diffusion", {"sigma": 1e200}, "2 sigma^2"),
               # K is finite, the growth constant beta is not
               ("constant_drift", {"c": 1.5e308}, "2 max(1, c^2 d, sigma^2 d)"),
               ("kuramoto", {"sigma": 1.3e154}, "2 max(1, kappa^2, sigma^2)"),
               ("meanfield_ou", {"a": 1e154, "b": 0}, "2 max(1, (a + b)^2 + b^2, sigma^2 d)"),
               ("measure_diffusion", {"sigma": 9.4e153}, "2 max(1, a^2, 2 sigma^2, sigma^2 d)")]


@pytest.mark.parametrize("name,params,formula", OVERFLOWING,
                         ids=[f"{name}-{json.dumps(params, separators=(',', ':'))}"
                              for name, params, _ in OVERFLOWING])
def test_validate_and_run_reject_an_overflowing_model_parameter(tmp_path, capsys, name, params,
                                                                 formula):
    cfg = typed_config("mlmc", str(tmp_path / "out"))
    cfg["model"] = {"name": name, "params": {"x0": 1, "T": 1, "epsilon": 0.1, **params}}
    assert_rejected(tmp_path, capsys, cfg, "model.params", f"{name} parameters overflow {formula}")


#: starts outside the trust region, at M = 4: the particle mean of the first
#: overflows before any state is checked, and so does the drift -a x0 of the second
OUTSIDE = [("mlmc", {"name": "measure_diffusion",
                     "params": {"a": -1.0, "sigma": 1.0, "x0": 1.5e308, "T": 1.0,
                                "epsilon": 0.1}}),
           ("strong-error", {"name": "meanfield_ou",
                             "params": {"a": 1e150, "b": 0.5, "x0": 1e300, "T": 1.0,
                                        "epsilon": 0.1}})]


@pytest.mark.parametrize("exp,model", OUTSIDE, ids=[model["name"] for _, model in OUTSIDE])
def test_validate_and_run_refuse_a_start_outside_the_trust_region(tmp_path, capsys, exp, model):
    cfg = typed_config(exp, str(tmp_path / "out"))
    cfg["model"] = model
    cfg["grid"]["m_particles"] = 4
    assert_rejected(tmp_path, capsys, cfg, "model.params", "x0", "1e+12")


def assert_rejected(tmp_path, capsys, cfg, *names):
    """``validate`` and ``run`` both exit 2 on ``cfg`` with a message holding
    every one of ``names`` and no Python ``range``, and nothing is written."""
    path = write_config(tmp_path, "bad.json", cfg)
    assert main(["validate", str(path)]) == 2
    out = capsys.readouterr().out
    assert all(name in out for name in names) and "range(" not in out, out
    assert main(["run", str(path)]) == 2
    err = capsys.readouterr().err
    assert all(name in err for name in names) and "range(" not in err, err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("case", ["missing file", "top level not an object", "no seed"])
def test_validate_and_run_reject_a_malformed_document(tmp_path, capsys, case):
    cfg = typed_config("mlmc", str(tmp_path / "out"))
    del cfg["seed"]
    doc, name = {"missing file": (None, "bad.json"),
                 "top level not an object": ([cfg], "JSON object"),
                 "no seed": (cfg, "'seed'")}[case]
    path = tmp_path / "bad.json"
    if doc is not None:
        write_config(tmp_path, path.name, doc)
    for command in ("validate", "run"):
        assert main([command, str(path)]) == 2
        assert name in "".join(capsys.readouterr())
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("command", ["validate", "run"])
@pytest.mark.parametrize("case", ["directory", "not utf-8"])
def test_an_unreadable_config_exits_2_in_one_line(tmp_path, capsys, command, case):
    if case == "directory":
        path = tmp_path / "configs"
        path.mkdir()
    else:
        path = tmp_path / "bad.json"
        path.write_bytes(b'\xff\xfe{"seed": 0}')
    assert main([command, str(path)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: cannot read config ")
    assert captured.err.count("\n") == 1 and str(path) in captured.err


#: (key, its value in ``zero_cv_config``, a second value under the same key),
#: at the top level, in a section and in the model parameters
REPEATS = [("seed", 7, 8), ("replications", 12, 3), ("epsilon", 0.1, 0.5)]


@pytest.mark.parametrize("command", ["validate", "run"])
def test_a_repeated_key_is_refused_at_any_depth(tmp_path, capsys, command):
    # the last of the two values was taken silently
    text = json.dumps(zero_cv_config(str(tmp_path / "out")))
    for key, value, again in REPEATS:
        first = f'"{key}": {value}'
        path = tmp_path / "repeat.json"
        path.write_text(text.replace(first, f'{first}, "{key}": {again}'))
        assert main([command, str(path)]) == 2
        assert capsys.readouterr().err == f"error: config repeats the key '{key}'\n"
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("case", ["directory is a file", "directory under a file",
                                  "csv is a directory"])
def test_run_exits_2_in_one_line_on_an_output_it_cannot_write(tmp_path, capsys, monkeypatch,
                                                              case):
    # run simulated in full, then crashed with FileExistsError or NotADirectoryError
    (tmp_path / "taken").write_text("")
    out = {"directory is a file": tmp_path / "taken",
           "directory under a file": tmp_path / "taken" / "out",
           "csv is a directory": tmp_path / "out"}[case]
    if case == "csv is a directory":
        (out / "coupled-variance.csv").mkdir(parents=True)
    runs = []
    monkeypatch.setattr(cli_runner, "run_experiment",
                        lambda cfg, run=cli_runner.run_experiment: runs.append(cfg) or run(cfg))
    path = write_config(tmp_path, "cv.json", zero_cv_config(str(out)))
    assert main(["run", str(path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: cannot ") and err.count("\n") == 1, err
    # the directory is made before anything is simulated
    assert len(runs) == (case == "csv is a directory")


#: (shipped config, section path, key, its misspelling) that ran as if the
#: misspelt key were absent
TYPOS = [("strong_error", ("grid",), "ref_factor", "ref_facter"),
         ("coupled_variance", (), "assertions", "asertions"),
         ("coupled_variance", ("model", "params"), "sigma", "sigam")]


@pytest.mark.parametrize("config,section,key,typo", TYPOS, ids=[t[3] for t in TYPOS])
def test_a_misspelt_key_is_rejected_before_simulating(tmp_path, capsys, config, section, key,
                                                       typo):
    cfg = load_config(CONFIGS / f"{config}.json")
    cfg["output_dir"] = str(tmp_path / "out")
    target = cfg
    for part in section:
        target = target[part]
    target[typo] = target.pop(key)
    path = write_config(tmp_path, "typo.json", cfg)
    for command in ("validate", "run"):
        assert main([command, str(path)]) == 2
        assert typo in "".join(capsys.readouterr())
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("path", sorted(CONFIGS.glob("*.json")), ids=lambda p: p.stem)
def test_shipped_config_validates_clean(path):
    assert validate_config(load_config(path)) == []


def test_readme_documents_every_experiment_field_and_assertion():
    # the schema table has 4 cells per experiment, the CSV columns table 2
    readme = (CONFIGS.parent / "README.md").read_text()
    documented, columns, defaults = {}, {}, {}
    for line in readme.splitlines():
        cells = line.split("|")[1:-1]
        if not (cells and (exp := cells[0].strip().strip("`")) in EXPERIMENTS):
            continue
        if len(cells) == 4:
            names = [set(re.findall(r"`(\w+)`", cell)) for cell in cells[1:]]
            documented[exp] = ({f"grid.{key}" for key in names[0]}
                               | {f"targets.{key}" for key in names[1]}, names[2])
            # a `key` (default X) cell documents X, read as JSON
            defaults[exp] = {f"{section}.{key}": json.loads(x) if x else REQUIRED
                             for section, cell in zip(("grid", "targets"), cells[1:3])
                             for key, x in re.findall(r"`(\w+)`(?: \(default ([^)]*)\))?", cell)}
        elif len(cells) == 2:
            columns[exp] = tuple(cells[1].strip().strip("`").split(", "))
    assert documented == {exp: (set(spec.fields), set(spec.assertions))
                          for exp, spec in EXPERIMENTS.items()}
    assert columns == {exp: spec.columns for exp, spec in EXPERIMENTS.items()}
    assert defaults == {exp: spec.fields for exp, spec in EXPERIMENTS.items()}
