"""Checks of the benchmark itself: declared names, rationale, count identities, checks."""

import json
import re
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(HERE.parent / "src"))

import run  # noqa: E402
import workloads  # noqa: E402
from tracing import Tracer  # noqa: E402

BENCHMARK = json.loads((HERE.parent / "BENCHMARK.json").read_text())
NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")


def test_metric_and_workload_names_use_the_allowed_characters():
    names = [m["name"] for m in BENCHMARK["end_to_end"] + BENCHMARK["per_layer"]]
    names += [w["name"] for w in BENCHMARK["workloads"]]
    assert len(names) == len(set(names))
    for name in names:
        assert NAME.fullmatch(name), name


def test_an_untraced_run_yields_every_declared_end_to_end_metric():
    cfg = workloads.WORKLOADS["level_pair_m128"]["configs"](5)[0]
    report = {"table": {"columns": ["level", "rng_cost"], "rows": [[1, 10], [2, 20]]},
              "summary": {}}
    runs = [{"config": 0, "phase": "plain", "rc": 0, "csv_sha256": "a" * 64, "report": report,
             "wall_s": wall, "cpu_s": wall} for wall in (2.0, 1.0, 3.0)]
    attempted, failed, problems, notes, metrics = run.evaluate(
        "level_pair_m128", 5, [cfg], {"runs": runs, "peak_rss_mb": 40.0}, False)
    assert (attempted, failed, problems) == (3, 0, [])
    # setup_s is measured in separate processes and added by main()
    assert set(metrics) | {"setup_s"} == set(run.declared_metrics(False))
    assert metrics["wall_s"] == 2.0 and metrics["draws"] == 30 and metrics["draws_per_s"] == 15.0


def test_every_workload_states_why_and_is_documented():
    readme = (HERE / "README.md").read_text()
    declared = {w["name"]: w["why"] for w in BENCHMARK["workloads"]}
    assert declared == {name: w["why"] for name, w in workloads.WORKLOADS.items()}
    for name, why in declared.items():
        assert why.strip() and "\n" not in why and len(why) <= 200
        assert f"| `{name}` |" in readme and f"- `{name}` is" in readme


def small(cfg: dict) -> dict:
    """The same experiment on a grid small enough for a unit test."""
    cfg = json.loads(json.dumps(cfg))
    cfg.pop("assertions")
    grid = cfg["grid"]
    if cfg["experiment"] == "mlmc":
        cfg["targets"]["delta"] = 0.05
        grid["max_level"] = 3
    elif cfg["experiment"] == "coupled-variance":
        grid.update(levels=[1, 3], replications=6, m_particles=8)
    else:
        grid.update(replications=2, m_particles=16)
    return cfg


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_count_identities_hold_on_the_traced_worker(name, tmp_path):
    configs = [small(cfg) for cfg in workloads.WORKLOADS[name]["configs"](3)[:2]]
    spec = run.write_spec(tmp_path, configs, 0, True)
    run.worker("loop", str(spec), str(tmp_path / "result.json"), timeout=120)
    result = json.loads((tmp_path / "result.json").read_text())

    attempted, failed, problems, notes, metrics = run.evaluate(name, 3, configs, result, True)
    assert (attempted, failed, problems) == (2 * len(configs), 0, [])
    for record in result["runs"]:
        if record["phase"] == "traced":
            cfg, layers = configs[record["config"]], record["layers"]
            assert layers["rng.fill.draws"] == workloads.draw_count(cfg, record["report"])
            assert layers["em_engine.em_step.calls"] == workloads.em_step_count(cfg, record["report"])
            assert layers["em_engine.em_step.particle_steps"] == (
                layers["em_engine.em_step.calls"] * cfg["grid"]["m_particles"])
    assert set(run.declared_metrics(True)) <= set(metrics)


def test_a_deleted_function_is_reported_absent(monkeypatch):
    from mlmc_mvsde import cli_runner, em_engine, mlmc_engine  # noqa: F401 (loads every module)

    monkeypatch.delattr(em_engine, "em_step")
    monkeypatch.delattr(mlmc_engine, "em_step")
    tracer = Tracer()
    tracer.install()
    try:
        assert tracer.absent == ["em_engine.em_step"]
        assert "em_engine.em_step.calls" not in tracer.layer_table()
    finally:
        tracer.uninstall()


def test_changed_bytes_and_wrong_counts_are_failures():
    cfg = workloads.WORKLOADS["level_pair_m128"]["configs"](0)[0]
    report = {"table": {"columns": ["level", "rng_cost"], "rows": [[1, 10], [2, 20]]},
              "summary": {}}
    good = {"phase": "plain", "rc": 0, "csv_sha256": workloads.RECORDED_CSV_SHA256[
        "level_pair_m128"][0], "report": report}
    assert run.run_problems("level_pair_m128", 0, cfg, 0, good, None, []) == []
    changed = {**good, "csv_sha256": "0" * 64}
    assert len(run.run_problems("level_pair_m128", 0, cfg, 0, changed, None, [])) == 1
    assert len(run.run_problems("level_pair_m128", 5, cfg, 0, changed, good["csv_sha256"], [])) == 1
    traced = {**good, "layers": {"rng.fill.draws": 31, "em_engine.em_step.calls": 63000}}
    assert len(run.run_problems("level_pair_m128", 0, cfg, 0, traced, None, [])) == 1
    assert len(run.run_problems("level_pair_m128", 0, cfg, 0, {**good, "rc": 4}, None, [])) == 1


def test_kuramoto_rounding_change_is_a_note_and_a_real_error_a_failure():
    name = "strong_error_kuramoto_m256"
    cfg = workloads.WORKLOADS[name]["configs"](0)[0]
    rows = workloads.RECORDED_ROWS[name][0]
    nudged = [[h, mse * (1 + 1e-12), k] for h, mse, k in rows]
    wrong = [[h, mse * 1.01, k] for h, mse, k in rows]
    for table, problems, changed in ((nudged, 0, 1), (wrong, 1, 0)):
        record = {"phase": "plain", "rc": 0, "csv_sha256": "f" * 64,
                  "report": {"table": {"rows": table}, "summary": {}}}
        notes = []
        assert len(run.run_problems(name, 0, cfg, 0, record, None, notes)) == problems
        assert len(notes) == changed


def test_written_bytes_may_vary_between_identical_runs_but_counts_may_not():
    cfg = workloads.WORKLOADS["level_pair_m128"]["configs"](5)[0]
    report = {"table": {"columns": ["level", "rng_cost"], "rows": [[1, 10], [2, 20]]},
              "summary": {}}

    def traced(written, calls):
        layers = {"cli_runner.write.bytes": written, "em_engine.em_step.calls": calls,
                  "em_engine.em_step.self_s": 0.5}
        return {"config": 0, "phase": "traced", "wall_s": 1.0, "layers": layers}

    plain = {"config": 0, "phase": "plain", "wall_s": 0.9}
    runs = [plain, traced(2154, 7), traced(2153, 7), traced(2154, 7)]
    metrics, problems = run.layer_metrics(runs, [cfg], {0: report})
    assert problems == []
    assert metrics["cli_runner.write.bytes"] == 2154 and metrics["em_engine.em_step.calls"] == 7
    runs.append(traced(2154, 8))
    assert len(run.layer_metrics(runs, [cfg], {0: report})[1]) == 1
