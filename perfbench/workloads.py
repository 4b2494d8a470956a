"""Benchmark workloads: the configs each one generates and the values recorded for them.

Every workload is a list of CLI configs built from the workload seed. The
program under test sees only those configs. Recorded values are the outputs
of the program at ``RECORDED_SEED``; a later change that alters results on
purpose updates them here and says why.
"""

from __future__ import annotations

import math

RECORDED_SEED = 0

#: meanfield_ou parameters shared by the shipped configs (epsilon set per workload)
_OU = {"a": 1.0, "b": 0.5, "sigma": 1.0, "x0": 1.0, "T": 1.0}

#: independent estimates per mlmc_m2 run. The cost of one estimate has a
#: seed-to-seed coefficient of variation of about 0.12, so a run sums this
#: many to keep its spread across workload seeds well inside the bound
MLMC_SEEDS_PER_RUN = 4


def _mlmc_m2(seed: int) -> list[dict]:
    return [{
        "experiment": "mlmc",
        "model": {"name": "meanfield_ou", "params": {**_OU, "epsilon": 0.25}},
        "psi": "identity",
        "grid": {"refinement_n": 2, "m_particles": 2, "pilot_samples": 32, "max_level": 8},
        "targets": {"delta": 0.002},
        "seed": seed * MLMC_SEEDS_PER_RUN + j,
        "formats": ["csv", "json"],
        # exact mean x0 e^{-aT}; tolerance 5 delta, so a correct estimator
        # fails it with probability below 1e-5 at any seed
        "assertions": {"expected": math.exp(-1.0), "tolerance": 0.01},
    } for j in range(MLMC_SEEDS_PER_RUN)]


def _level_pair_m128(seed: int) -> list[dict]:
    # the geometry and assertions of configs/coupled_variance.json
    return [{
        "experiment": "coupled-variance",
        "model": {"name": "meanfield_ou", "params": {**_OU, "epsilon": 0.1}},
        "psi": "identity",
        "grid": {"refinement_n": 2, "levels": [1, 6], "m_particles": 128, "replications": 500},
        "seed": seed,
        "formats": ["csv", "json"],
        "assertions": {"slope_min": 1.0, "slope_max": 2.4, "r2_min": 0.9},
    }]


def _strong_error_kuramoto_m256(seed: int) -> list[dict]:
    # h_list and ref_factor of configs/strong_error.json; T = 0.5 gives a
    # reference grid of 256 steps, so one replication draws 256 x 256 variates
    return [{
        "experiment": "strong-error",
        "model": {"name": "kuramoto",
                  "params": {"kappa": 1.0, "sigma": 1.0, "x0": 0.5, "T": 0.5, "epsilon": 0.25}},
        "psi": "identity",
        "grid": {"h_list": [0.25, 0.125, 0.0625, 0.03125, 0.015625],
                 "ref_factor": 8, "m_particles": 256, "replications": 4},
        "seed": seed,
        "formats": ["csv", "json"],
        "assertions": {"slope_min": 1.6, "slope_max": 2.3},
    }]


WORKLOADS = {
    "mlmc_m2": {
        "configs": _mlmc_m2,
        "why": "time to a stated accuracy: adaptive MLMC on tiny M=2 systems, where per-sample "
               "stream construction and per-step dispatch dominate",
    },
    "level_pair_m128": {
        "configs": _level_pair_m128,
        "why": "fixed coupled fine/coarse level pairs at M=128, levels 1-6: coupled stepping "
               "dominates, no adaptivity, stream construction under 2%",
    },
    "strong_error_kuramoto_m256": {
        "configs": _strong_error_kuramoto_m256,
        "why": "O(M^2) kuramoto drift at M=256 through the reference-grid strong-error loop: "
               "arithmetic and sorted reductions dominate, dispatch is small",
    },
}

#: SHA-256 of the CSV of each config a workload generates at RECORDED_SEED
RECORDED_CSV_SHA256 = {
    "mlmc_m2": ["b3db81596d0df2e933f297dbcad2b58ae7eb5d4bd88d5a79ac5f4e33a64af28c",
                "bb106bb5b90bbe4b8b3bdc98b44ef4085c2aac4d9fffaa8da841a659a9156256",
                "627a17f9934e32f141362f0c08a56f0791b749c363c825c29d644fc7aa773942",
                "7e6165c2fd00a513f17ef06a7746cf1e3e70524ea4398510a2bbb09c712773fd"],
    # equal to configs/coupled_variance.json's checksum: same config
    "level_pair_m128": ["498f4b539d3767711f38cd2022a7234b6f5beaed5fdbaf146fd14ddcf0b16df4"],
    "strong_error_kuramoto_m256": [
        "8f364031bc878ce32491a286ef34e5ef456b684c3305db613ed0c776e1f021d1"],
}

#: workloads checked against recorded values within ``RECORDED_RTOL`` instead
#: of by checksum, with their CSV rows at RECORDED_SEED per config
RECORDED_ROWS = {
    "strong_error_kuramoto_m256": [[
        [0.25, 0.00035993126885855946, 4],
        [0.125, 7.766774946623091e-05, 4],
        [0.0625, 1.787602311967021e-05, 4],
        [0.03125, 4.024336424584824e-06, 4],
        [0.015625, 9.410773092860781e-07, 4],
    ]],
}

#: rounding changes such as a reordered O(M) kuramoto drift stay far inside
#: this relative tolerance; a wrong result does not
RECORDED_RTOL = 1e-6

#: em_step calls of the first config at RECORDED_SEED, known independently
RECORDED_EM_STEP_CALLS = {"mlmc_m2": 45995, "level_pair_m128": 63000}

#: SHA-256 of the CSV of each shipped configs/*.json at its own seed
SHIPPED_CSV_SHA256 = {
    "chaos": "edeb9879054612816ec3425f4b57fcfae26bbb39016173e58e30d6e037b1c02e",
    "cost_compare": "091486e7ec040283f1149ec178c364eb1aa1c5e808d62261a8ccec018c262d16",
    "coupled_variance": "498f4b539d3767711f38cd2022a7234b6f5beaed5fdbaf146fd14ddcf0b16df4",
    "mlmc": "0e319e2c24b900730a74f592ffad88db2de1b37490a952ca51f7466c4cbf9456",
    "second_moment": "c85952be3c75ada33544bd983930d3dd7b4723cb104682f3a676ceb02929af41",
    "small_noise": "91b1eeb2c03b365d7deacfb6ceeb4570273d5039630a49c6fa730bd8d28ccbda",
    "strong_error": "7d207b2a75f2a4feb51f42d6a68eff4091b1667d739d4fa3de1d8a914844bbf7",
}


def draw_count(cfg: dict, doc: dict) -> int:
    """Exact scalar Gaussian draws of one run, from the program's own accounting.

    ``doc`` is the run's JSON report. The strong-error report carries no
    cost, so its count is the closed form replications * M * d * T / h_ref.
    """
    exp = cfg["experiment"]
    if exp == "mlmc":
        return int(doc["summary"]["total_cost"])
    if exp == "coupled-variance":
        col = doc["table"]["columns"].index("rng_cost")
        return sum(int(row[col]) for row in doc["table"]["rows"])
    if exp == "strong-error":
        grid = cfg["grid"]
        x0 = cfg["model"]["params"]["x0"]
        d = len(x0) if isinstance(x0, list) else 1
        return grid["replications"] * grid["m_particles"] * d * _ref_steps(cfg)
    raise ValueError(f"no draw count for experiment {exp!r}")


def em_step_count(cfg: dict, doc: dict) -> int:
    """Explicit Euler steps of one run, in closed form from its config and report."""
    exp = cfg["experiment"]
    grid = cfg["grid"]
    if exp == "mlmc":
        n = grid["refinement_n"]
        return sum(int(row[1]) * n ** int(row[0]) for row in doc["table"]["rows"])
    if exp == "coupled-variance":
        lo, hi = grid["levels"]
        n = grid["refinement_n"]
        return grid["replications"] * sum(n**level for level in range(lo, hi + 1))
    if exp == "strong-error":
        horizon = cfg["model"]["params"]["T"]
        coarse = sum(round(horizon / h) for h in grid["h_list"])
        return grid["replications"] * (_ref_steps(cfg) + coarse)
    raise ValueError(f"no step count for experiment {exp!r}")


def pilot_floor_share(cfg: dict, doc: dict) -> float:
    """Share of an mlmc run's draws spent at levels held at the pilot sample floor."""
    if cfg["experiment"] != "mlmc":
        return 0.0
    pilot = cfg["grid"]["pilot_samples"]
    rows = doc["table"]["rows"]
    cost_col = doc["table"]["columns"].index("rng_cost")
    floor = sum(int(r[cost_col]) for r, k in zip(rows, doc["summary"]["allocation"]) if k == pilot)
    return floor / int(doc["summary"]["total_cost"])


def _ref_steps(cfg: dict) -> int:
    grid = cfg["grid"]
    h_ref = min(grid["h_list"]) / grid["ref_factor"]
    return round(cfg["model"]["params"]["T"] / h_ref)
