import hashlib
import json
import math
from pathlib import Path

import pytest

from mlmc_mvsde.cli_runner import ReportBundle, _print_summary, main, validate_config


CONFIGS = Path(__file__).resolve().parent.parent / "configs"

#: SHA-256 of the CSV each shipped config writes at its own seed
SHIPPED_CSV_SHA256 = {
    "chaos": "edeb9879054612816ec3425f4b57fcfae26bbb39016173e58e30d6e037b1c02e",
    "coupled_variance": "498f4b539d3767711f38cd2022a7234b6f5beaed5fdbaf146fd14ddcf0b16df4",
    "mlmc": "0e319e2c24b900730a74f592ffad88db2de1b37490a952ca51f7466c4cbf9456",
    "second_moment": "c85952be3c75ada33544bd983930d3dd7b4723cb104682f3a676ceb02929af41",
    "small_noise": "91b1eeb2c03b365d7deacfb6ceeb4570273d5039630a49c6fa730bd8d28ccbda",
    "strong_error": "7d207b2a75f2a4feb51f42d6a68eff4091b1667d739d4fa3de1d8a914844bbf7",
}


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
    assert "refinement_n must be >= 2" in capsys.readouterr().out


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


def test_validate_config_catches_model_param_errors():
    diags = validate_config({
        "experiment": "mlmc",
        "model": {"name": "meanfield_ou", "params": {"b": 0.5, "x0": 1, "T": 1, "epsilon": 0.1}},
        "grid": {"refinement_n": 2, "m_particles": 8},
        "targets": {"delta": 1e-3},
        "seed": 0,
    })
    assert any("'a'" in d for d in diags)


def test_validate_config_unknown_experiment():
    diags = validate_config({"experiment": "nope"})
    assert diags and "experiment" in diags[0]


@pytest.mark.parametrize("name", sorted(SHIPPED_CSV_SHA256))
def test_shipped_config_csv_is_bit_exact(tmp_path, name):
    assert main(["run", str(CONFIGS / f"{name}.json"), "--out", str(tmp_path)]) == 0
    (csv,) = tmp_path.glob("*.csv")
    assert hashlib.sha256(csv.read_bytes()).hexdigest() == SHIPPED_CSV_SHA256[name]
