"""Child processes of the benchmark; run.py starts them with a pinned environment.

    worker.py setup CONFIG           time import, validation and model build
    worker.py loop SPEC RESULT       closed loop over a workload's configs
    worker.py sweep CONFIG_DIR WORK RESULT   every shipped config once, untimed

Only the standard library is imported before ``setup`` starts its clock.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import itertools
import json
import sys
import time
import traceback
from pathlib import Path


def setup(config: str):
    start = time.perf_counter()
    from mlmc_mvsde import cli_runner
    from mlmc_mvsde.model import builtin_model

    cfg = cli_runner.load_config(config)
    diags = cli_runner.validate_config(cfg)
    if diags:
        raise SystemExit(f"invalid benchmark config: {diags}")
    builtin_model(cfg["model"]["name"], cfg["model"].get("params", {}))
    print(json.dumps({"setup_s": time.perf_counter() - start}))


def run_experiment(cli_runner, config: Path, out: Path) -> dict:
    """One CLI run of ``config`` into ``out``: timings, exit code and outputs."""
    exp = json.loads(config.read_text())["experiment"]
    csv_path, json_path = out / f"{exp}.csv", out / f"{exp}.json"
    out.mkdir(parents=True, exist_ok=True)
    for stale in (csv_path, json_path):
        stale.unlink(missing_ok=True)
    captured = io.StringIO()
    start, cpu_start = time.perf_counter(), time.process_time()
    try:
        with contextlib.redirect_stdout(captured):
            rc = cli_runner.main(["run", str(config), "--out", str(out), "--assert"])
    except Exception as err:  # a raising run is recorded as failed; the loop goes on
        traceback.print_exc()
        rc = f"{type(err).__name__}: {err}"
    record = {"wall_s": time.perf_counter() - start,
              "cpu_s": time.process_time() - cpu_start, "rc": rc}
    if csv_path.exists() and json_path.exists():
        doc = json.loads(json_path.read_text())
        record["csv_sha256"] = hashlib.sha256(csv_path.read_bytes()).hexdigest()
        record["report"] = {"table": doc["table"], "summary": doc["summary"]}
    return record


def host_probe() -> dict[str, float]:
    """Seconds for fixed interpreter-bound and numpy-bound work: the host's speed now."""
    import numpy as np

    x = np.linspace(0.0, 1.0, 256)

    def interpreter():
        acc = 0
        for i in range(1_000_000):
            acc += i * i

    def arithmetic():
        for _ in range(20):
            np.sort(np.sin(x[:, None] - x[None, :]), axis=0)

    probe = {}
    for name, work in (("python", interpreter), ("numpy", arithmetic)):
        times = []
        for _ in range(3):
            start = time.perf_counter()
            work()
            times.append(time.perf_counter() - start)
        probe[name] = sorted(times)[1]
    return probe


def loop(spec_path: str, result_path: str):
    import resource

    import numpy as np
    from mlmc_mvsde import cli_runner

    from tracing import Tracer

    spec = json.loads(Path(spec_path).read_text())
    configs = [Path(p) for p in spec["configs"]]
    work = Path(spec["work"])
    runs: list[dict] = []
    probes = [host_probe()]

    def closed_loop(seconds: float, phase: str, tracer: Tracer | None):
        # one full pass, then stop at the first experiment boundary past
        # ``seconds``, so a long pass does not run far over time
        start = time.perf_counter()
        for n in itertools.count():
            i = n % len(configs)
            if n >= len(configs) and time.perf_counter() - start >= seconds:
                return
            if tracer is not None:
                tracer.reset()
            record = run_experiment(cli_runner, configs[i], work / f"out{i}")
            if tracer is not None:
                record["layers"] = tracer.layer_table()
            runs.append({"config": i, "phase": phase, **record})

    if spec["trace"]:
        closed_loop(spec["seconds"] / 2, "plain", None)
        tracer = Tracer()
        tracer.install()
        try:
            closed_loop(spec["seconds"] / 2, "traced", tracer)
        finally:
            tracer.uninstall()
        tracer.write_spans(work / "spans.npz")
    else:
        closed_loop(spec["seconds"], "plain", None)
        if len(runs) == len(configs):
            # one pass only: run its quickest config again, untimed, so that
            # every invocation checks that its output bytes repeat
            i = min(runs, key=lambda r: r["wall_s"])["config"]
            record = run_experiment(cli_runner, configs[i], work / f"out{i}")
            runs.append({"config": i, "phase": "repeat", **record})
    probes.append(host_probe())
    result = {
        "runs": runs,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "host_probe_s": {key: [p[key] for p in probes] for key in probes[0]},
        "numpy": np.__version__,
        "library": cli_runner.__file__,
    }
    Path(result_path).write_text(json.dumps(result))


def sweep(config_dir: str, work: str, result_path: str):
    from mlmc_mvsde import cli_runner

    result = {}
    for config in sorted(Path(config_dir).glob("*.json")):
        record = run_experiment(cli_runner, config, Path(work) / config.stem)
        result[config.stem] = {"rc": record["rc"], "csv_sha256": record.get("csv_sha256")}
    Path(result_path).write_text(json.dumps(result, indent=1))


if __name__ == "__main__":
    command, *rest = sys.argv[1:]
    {"setup": setup, "loop": loop, "sweep": sweep}[command](*rest)
