"""The mlmc-mvsde benchmark: one workload, one closed loop, one JSON result line.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from a source checkout. The workload seed goes into the generated CLI
configs and nowhere else. A worker process runs them through
``cli_runner.main(["run", config, "--out", dir, "--assert"])``, one
experiment at a time, until ``S`` seconds have passed, with every thread
count pinned to 1. ``--trace 0`` reports the end-to-end metrics; ``--trace 1``
runs the loop for half the time plain and half traced and reports the
per-layer table. Set-up time is measured in separate fresh processes. Every
run checks the outputs and, once per source digest, every shipped config's
CSV checksum. The last line printed is the result object.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import workloads  # noqa: E402

ROOT = HERE.parent
BUILD = ROOT / ".bench_build" / "perfbench"

#: thread pins for every child process; numpy reads them when imported
THREAD_ENV = {
    "MLMC_MVSDE_THREADS": "1",
    "OMP_NUM_THREADS": "1",
    "OPENBLAS_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
    "NUMEXPR_NUM_THREADS": "1",
    "VECLIB_MAXIMUM_THREADS": "1",
}

#: fresh processes whose median is the reported set-up time
SETUP_PROCESSES = 10

#: counts that may differ between identical runs, reported as medians: the
#: JSON report holds the run's wall time, whose printed length varies
VOLATILE_COUNTS = {"cli_runner.write.bytes"}


def child_env() -> dict:
    return {**os.environ, **THREAD_ENV, "PYTHONPATH": str(ROOT / "src"), "PYTHONHASHSEED": "0"}


def worker(*args: str, timeout: float) -> str:
    done = subprocess.run([sys.executable, str(HERE / "worker.py"), *args], env=child_env(),
                          cwd=ROOT, stdout=subprocess.PIPE, timeout=timeout, check=True, text=True)
    return done.stdout


def declared_metrics(trace: bool) -> dict[str, str]:
    """Metric -> unit, as BENCHMARK.json declares them for ``--trace 0`` or ``--trace 1``."""
    doc = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in doc["per_layer" if trace else "end_to_end"]}


def write_spec(work: Path, configs: list[dict], seconds: float, trace: bool) -> Path:
    """Write the configs ``config<i>.json`` and the worker's loop spec into ``work``."""
    paths = []
    for i, cfg in enumerate(configs):
        paths.append(work / f"config{i}.json")
        paths[-1].write_text(json.dumps(cfg, indent=1))
    spec = work / "spec.json"
    spec.write_text(json.dumps({"configs": [str(p) for p in paths], "seconds": seconds,
                                "trace": trace, "work": str(work)}))
    return spec


def source_digest() -> str:
    """Digest of the program and configs whose outputs the checksum sweep records."""
    h = hashlib.sha256()
    files = [*(ROOT / "src").rglob("*.py"), *(ROOT / "configs").glob("*.json")]
    for path in sorted(files):
        h.update(str(path.relative_to(ROOT)).encode() + b"\0" + path.read_bytes())
    return h.hexdigest()[:16]


def checksum_sweep() -> tuple[list[str], str]:
    """Run every shipped config (cached per source digest); return problems and a summary."""
    digest = source_digest()
    cache = BUILD / f"sweep-{digest}.json"
    if not cache.exists():
        work = BUILD / "sweep"
        shutil.rmtree(work, ignore_errors=True)
        work.mkdir(parents=True)
        worker("sweep", str(ROOT / "configs"), str(work), str(work / "result.json"), timeout=800)
        (work / "result.json").replace(cache)
    found = json.loads(cache.read_text())
    problems = []
    for stem, sha in workloads.SHIPPED_CSV_SHA256.items():
        entry = found.get(stem)
        if entry is None:
            problems.append(f"sweep: configs/{stem}.json is missing")
        elif entry["rc"] != 0:
            problems.append(f"sweep: configs/{stem}.json exited with {entry['rc']}")
        elif entry["csv_sha256"] != sha:
            problems.append(f"sweep: configs/{stem}.json CSV sha256 {entry['csv_sha256']} != {sha}")
    unrecorded = sorted(set(found) - set(workloads.SHIPPED_CSV_SHA256))
    summary = (f"sweep {digest}: {len(workloads.SHIPPED_CSV_SHA256) - len(problems)}/"
               f"{len(workloads.SHIPPED_CSV_SHA256)} shipped CSV checksums match"
               + (f"; unrecorded configs {unrecorded}" if unrecorded else ""))
    return problems, summary


def run_problems(name: str, seed: int, cfg: dict, index: int, run: dict,
                 first_sha: str | None, notes: list[str]) -> list[str]:
    """Why one experiment of workload ``name`` is wrong; empty when it is right."""
    where = f"config {index} ({run['phase']})"
    if run["rc"] != 0:
        return [f"{where}: exit {run['rc']}"]
    if "csv_sha256" not in run:
        return [f"{where}: no CSV/JSON written"]
    problems = []
    sha = run["csv_sha256"]
    if first_sha is not None and sha != first_sha:
        problems.append(f"{where}: CSV bytes differ from this invocation's first run")
    if seed == workloads.RECORDED_SEED:
        recorded = workloads.RECORDED_CSV_SHA256[name][index]
        if name in workloads.RECORDED_ROWS:
            rows = run["report"]["table"]["rows"]
            if not rows_close(rows, workloads.RECORDED_ROWS[name][index], workloads.RECORDED_RTOL):
                problems.append(f"{where}: values outside rtol {workloads.RECORDED_RTOL} "
                                "of the recorded ones")
            elif sha != recorded:
                notes.append(f"{where}: CSV bits changed, values within rtol "
                             f"{workloads.RECORDED_RTOL} of the recorded ones")
        elif sha != recorded:
            problems.append(f"{where}: CSV sha256 {sha} != recorded {recorded}")
    layers = run.get("layers")
    if layers is not None:
        draws = workloads.draw_count(cfg, run["report"])
        if "rng.fill.draws" in layers and layers["rng.fill.draws"] != draws:
            problems.append(f"{where}: rng.fill.draws {layers['rng.fill.draws']} != draws {draws}")
        if "em_engine.em_step.calls" in layers:
            calls = layers["em_engine.em_step.calls"]
            expected = workloads.em_step_count(cfg, run["report"])
            if seed == workloads.RECORDED_SEED and index == 0:
                expected = workloads.RECORDED_EM_STEP_CALLS.get(name, expected)
            if calls != expected:
                problems.append(f"{where}: em_engine.em_step.calls {calls} != {expected}")
    return problems


def rows_close(rows: list[list], recorded: list[list], rtol: float) -> bool:
    if len(rows) != len(recorded):
        return False
    return all(len(a) == len(b) and all(abs(x - y) <= rtol * abs(y) for x, y in zip(a, b))
               for a, b in zip(rows, recorded))


def median_by_config(runs: list[dict], phase: str, key: str) -> dict[int, float]:
    values: dict[int, list[float]] = {}
    for run in runs:
        if run["phase"] == phase:
            values.setdefault(run["config"], []).append(run[key])
    return {i: statistics.median(v) for i, v in values.items()}


def layer_metrics(runs: list[dict], configs: list[dict],
                  reports: dict[int, dict]) -> tuple[dict[str, float], list[str]]:
    """Per-layer metrics of one pass over the configs, from the traced runs."""
    problems = []
    per_config: dict[int, list[dict]] = {}
    for run in runs:
        if run["phase"] == "traced" and "layers" in run:
            per_config.setdefault(run["config"], []).append(run["layers"])
    total: dict[str, float] = {}
    for i, tables in sorted(per_config.items()):
        for key in tables[0]:
            values = [t[key] for t in tables]
            if key.endswith(".self_s") or key in VOLATILE_COUNTS:
                value = statistics.median(values)
            elif key == "mlmc_engine.levels":
                value = values[0]
                total[key] = max(total.get(key, 0), value)
                continue
            else:
                value = values[0]
                if any(v != value for v in values):
                    problems.append(f"config {i}: {key} differs between identical runs: {values}")
            total[key] = total.get(key, 0) + value
    floor = draws = 0.0
    for i, cfg in enumerate(configs):
        n = workloads.draw_count(cfg, reports[i])
        floor += workloads.pilot_floor_share(cfg, reports[i]) * n
        draws += n
    total["mlmc_engine.pilot_floor_share"] = floor / draws
    traced = median_by_config(runs, "traced", "wall_s")
    plain = median_by_config(runs, "plain", "wall_s")
    total["trace.overhead_s"] = sum(traced.values()) - sum(plain.values())
    return total, problems


def evaluate(name: str, seed: int, configs: list[dict], result: dict, trace: bool):
    """Checks and metrics of one invocation: (attempted, failed, problems, notes, metrics)."""
    runs = result["runs"]
    problems: list[str] = []
    notes: list[str] = []
    failed = 0
    first_sha: dict[int, str] = {}
    for run in runs:
        i = run["config"]
        found = run_problems(name, seed, configs[i], i, run, first_sha.get(i), notes)
        first_sha.setdefault(i, run.get("csv_sha256"))
        failed += bool(found)
        problems += found
    if failed:
        return len(runs), failed, problems, notes, {}
    reports = {run["config"]: run["report"] for run in runs}
    draws = sum(workloads.draw_count(cfg, reports[i]) for i, cfg in enumerate(configs))
    if trace:
        metrics, layer_problems = layer_metrics(runs, configs, reports)
        problems += layer_problems
    else:
        wall = sum(median_by_config(runs, "plain", "wall_s").values())
        metrics = {
            "wall_s": wall,
            "cpu_s": sum(median_by_config(runs, "plain", "cpu_s").values()),
            "draws_per_s": draws / wall,
            "draws": draws,
            "peak_rss_mb": result["peak_rss_mb"],
        }
    return len(runs), failed, problems, notes, metrics


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "mlmc_mvsde" / "__init__.py").is_file() or not (ROOT / "configs").is_dir():
        print(f"error: {ROOT} holds no mlmc_mvsde source tree (src/mlmc_mvsde, configs/)",
              file=sys.stderr)
        return 2

    work = BUILD / args.workload
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    configs = workloads.WORKLOADS[args.workload]["configs"](args.seed)
    spec = write_spec(work, configs, args.seconds, bool(args.trace))

    problems, sweep_summary = checksum_sweep()

    def setup_times(count: int) -> list[float]:
        return [] if args.trace else [
            json.loads(worker("setup", str(work / "config0.json"), timeout=60))["setup_s"]
            for _ in range(count)]

    # set-up is timed on both sides of the loop, so that one burst of host
    # slowness does not decide the median
    setups = setup_times(SETUP_PROCESSES // 2)
    worker("loop", str(spec), str(work / "result.json"), timeout=170)
    setups += setup_times(SETUP_PROCESSES - SETUP_PROCESSES // 2)
    result = json.loads((work / "result.json").read_text())
    if not Path(result["library"]).resolve().is_relative_to(ROOT / "src"):
        problems.append(f"measured {result['library']}, not this checkout's source")

    attempted, failed, run_problems_found, notes, metrics = evaluate(
        args.workload, args.seed, configs, result, bool(args.trace))
    problems += run_problems_found
    if setups and metrics:
        metrics["setup_s"] = statistics.median(setups)

    env = {
        "python": platform.python_version(),
        "numpy": result["numpy"],
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "threads": THREAD_ENV,
        "host_probe_s": result["host_probe_s"],
    }
    samples = sum(r["phase"] == "plain" for r in result["runs"])
    print(f"perfbench workload={args.workload} seed={args.seed} seconds={args.seconds:g} "
          f"trace={args.trace} configs={len(configs)} plain_runs={samples}")
    print("env " + json.dumps(env))
    print(sweep_summary)
    print(f"fail_ratio {failed}/{attempted} = {failed / attempted:.4f} (ratio)")
    if setups:
        print(f"setup_s runs {[round(t, 4) for t in setups]}")
    out = {}
    for key, unit in declared_metrics(bool(args.trace)).items():
        if key in metrics:
            out[key] = {"value": metrics[key], "unit": unit}
            shown = metrics[key] if isinstance(metrics[key], int) else f"{metrics[key]:.6g}"
            print(f"  {key:<44} {shown:>16} {unit}")
        else:
            print(f"  {key:<44} {'absent':>16}")
    for note in notes:
        print(f"note: {note}")
    for problem in problems:
        print(f"problem: {problem}")
    print(json.dumps({"correct": not problems, "attempted": attempted, "failed": failed,
                      "metrics": out}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
