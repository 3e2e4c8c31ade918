"""Generated inputs for the three workloads.

Nothing here imports swedge: inputs are built by the benchmark alone, so a
change to the program cannot change what it is fed.  The small design-file
pool and the case lists are fixed, because the golden reference covers
exactly them; the workload seed chooses the order of the cases, the output
format of each sweep, and the layouts of the large screening designs.
"""

from __future__ import annotations

import json
import random

CATALOG_IDS = (
    "fig1", "fig2a-trt1", "fig2a-trt2", "fig2b", "fig2c", "fig5a", "fig5b",
    "fig8-design1", "fig8-design2", "fig8-design3", "fig8-design4",
)

# Seed of the fixed design-file pool used by cli-oneshot.  Changing it
# invalidates golden.json.
POOL_SEED = 2010

# Condition codes of the design-file format.
C, T1, T2, BOTH = 0, 1, 2, 3

_PATHS = ("trt1", "trt2", "both", "trt1_both", "trt2_both")


def _path_row(rng: random.Random, periods: int, path: str) -> list[int]:
    """One cluster's monotone condition path; period 1 is always control."""
    if path in ("trt1", "trt2", "both"):
        start = rng.randint(1, periods - 1)
        code = {"trt1": T1, "trt2": T2, "both": BOTH}[path]
        return [C] * start + [code] * (periods - start)
    start = rng.randint(1, periods - 2)
    switch = rng.randint(start + 1, periods - 1)
    code = T1 if path == "trt1_both" else T2
    return [C] * start + [code] * (switch - start) + [BOTH] * (periods - switch)


def random_layout(rng: random.Random, clusters: int, periods: int) -> list[list[int]]:
    """Transition-valid two-treatment layout that uses every condition."""
    rows = [_path_row(rng, periods, _PATHS[k % len(_PATHS)]) for k in range(clusters)]
    rng.shuffle(rows)
    return rows


def standard_layout(sequences: int, clusters_per_sequence: int) -> list[list[int]]:
    """The layout of ``generate_standard_swd(sequences, clusters_per_sequence)``."""
    periods = sequences + 1
    return [[C] * s + [T1] * (periods - s)
            for s in range(1, sequences + 1) for _ in range(clusters_per_sequence)]


def design_text(label: str, rows: list[list[int]], fmt: str) -> str:
    """Design-file text in the CSV or JSON form the CLI reads."""
    if fmt == "json":
        return json.dumps({"label": label, "cells": rows}) + "\n"
    lines = [f"# swedge-design v1 label={label}"]
    lines.extend(",".join(str(c) for c in row) for row in rows)
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# cli-oneshot
# ---------------------------------------------------------------------------

def design_files() -> dict[str, str]:
    """File name -> text of the fixed design-file pool."""
    rng = random.Random(POOL_SEED)
    files = {}
    for k, (clusters, periods, fmt) in enumerate(
            [(10, 5, "csv"), (12, 6, "json"), (8, 5, "json")], start=1):
        files[f"gen{k}.{fmt}"] = design_text(f"gen{k}", random_layout(rng, clusters, periods), fmt)
    # Designs with disallowed transitions (back to control, between single
    # treatments, out of the combined condition).
    bad1 = [[C, T1, T1, C], [C, C, T2, T2], [C, T1, BOTH, BOTH], [C, C, T1, T1],
            [C, T2, T2, T2], [C, C, C, BOTH]]
    bad2 = [[C, T1, T2, T2], [C, C, T1, T1], [C, T2, BOTH, T2], [C, C, T2, T2],
            [C, T1, BOTH, BOTH], [C, C, BOTH, BOTH], [C, T2, T2, BOTH]]
    files["bad1.csv"] = design_text("bad1", bad1, "csv")
    files["bad2.json"] = design_text("bad2", bad2, "json")
    return files


_N = ["--n", "15", "--delta", "0.4"]
_POINT = {
    "cs": ["--model", "cs", "--rho-w", "0.05"],
    "cohort": ["--model", "cohort", "--rho-w", "0.05", "--pi", "0.5"],
    "nested": ["--model", "nested", "--rho-w", "0.05", "--rho-a", "0.02"],
}
_SHORT_GRID = ["--rho-min", "0.01", "--rho-max", "0.2", "--rho-step", "0.01"]
_SHORT_POINTS = 20
_GRID_MODELS = {
    "cs": ["--model", "cs"],
    "cohort": ["--model", "cohort", "--pi", "0.5"],
    "nested-cac": ["--model", "nested", "--cac", "0.5"],
    "nested-rhoa": ["--model", "nested", "--rho-a", "0.05"],
}


def cli_cases() -> list[dict]:
    """Every CLI invocation of cli-oneshot: one pass, sized so that one
    invocation each fits in a run.

    The pass covers every subcommand, all three models, every output
    format, design files in both formats and both expected failures.  Each
    case is ``{"argv", "points", "designs"}``: ``points`` counts the
    (design, parameter point) evaluations asked for, ``designs`` the
    designs evaluated.
    """
    cases = []

    def add(argv, points=0, designs=0):
        cases.append({"argv": argv, "points": points, "designs": designs})

    add(["power", "--design", "fig2b", *_POINT["cs"], *_N, "--format", "csv"], 1, 1)
    add(["power", "--design", "fig8-design2", *_POINT["nested"], *_N, "--format", "json"], 1, 1)
    add(["power", "--design", "gen1.csv", *_POINT["cohort"], *_N], 1, 1)
    add(["power", "--design", "fig5a", *_POINT["nested"], *_N, "--additive"], 1, 1)
    # Expected failures: the interaction of fig5a is confounded with the last
    # period (exit 3); a strict policy rejects a contaminated file (exit 2).
    add(["power", "--design", "fig5a", *_POINT["cs"], *_N], 1, 1)
    add(["power", "--design", "bad1.csv", *_POINT["cs"], *_N])
    add(["power", "--design", "bad2.json", *_POINT["cohort"], *_N, "--policy", "permissive",
         "--format", "csv"], 1, 1)
    # Fixed rho_a = 0.05: the four grid points below it are error rows.
    add(["sweep", "--design", "fig5b", *_GRID_MODELS["nested-rhoa"], *_N, *_SHORT_GRID,
         "--format", "csv"], _SHORT_POINTS, 1)
    add(["sweep", "--design", "gen2.json", *_GRID_MODELS["cohort"], *_N, *_SHORT_GRID,
         "--format", "json"], _SHORT_POINTS, 1)
    add(["compare", "--design", "fig8-design1", "--design", "fig8-design2", "--design",
         "gen3.json", *_GRID_MODELS["nested-cac"], *_N, *_SHORT_GRID], 3 * _SHORT_POINTS, 3)
    add(["catalog", "fig8-design2", "--json"])
    add(["validate", "--design", "bad1.csv"])
    return cases


def case_key(argv: list[str]) -> str:
    return " ".join(argv)


def cli_sequence(seed: int) -> list[dict]:
    cases = cli_cases()
    random.Random(seed).shuffle(cases)
    return cases


# ---------------------------------------------------------------------------
# sweep-dense
# ---------------------------------------------------------------------------

DEFAULT_GRID_POINTS = 300

# One compare of three designs per model variant; the triples share at
# least one estimable effect.
_COMPARE_TRIPLES = {
    "cs": ("fig8-design1", "fig8-design2", "fig8-design3"),
    "cohort": ("fig1", "fig2a-trt1", "fig2b"),
    "nested-cac": ("fig2b", "fig2c", "fig5b"),
    "nested-rhoa": ("fig8-design2", "fig8-design3", "fig8-design4"),
}


def sweep_cases() -> list[dict]:
    """One pass of sweep-dense, without the output format.

    Every catalog design is swept on the default 300-point grid under each
    model variant; fig5a is analysed as additive because its interaction is
    not estimable.
    """
    cases = []
    for variant, model_args in _GRID_MODELS.items():
        for design in CATALOG_IDS:
            extra = ["--additive"] if design == "fig5a" else []
            cases.append({"argv": ["sweep", "--design", design, *model_args, *_N, *extra],
                          "points": DEFAULT_GRID_POINTS, "designs": 1})
        triple = _COMPARE_TRIPLES[variant]
        flags = [a for d in triple for a in ("--design", d)]
        cases.append({"argv": ["compare", *flags, *model_args, *_N],
                      "points": DEFAULT_GRID_POINTS * len(triple), "designs": len(triple)})
    return cases


def sweep_sequence(seed: int) -> list[dict]:
    """The pass in seed order, each call with a seed-chosen csv/json format."""
    rng = random.Random(seed)
    cases = sweep_cases()
    rng.shuffle(cases)
    return [{**case, "format": rng.choice(("csv", "json"))} for case in cases]


# ---------------------------------------------------------------------------
# design-screen
# ---------------------------------------------------------------------------

# (clusters, periods) of the generated two-treatment designs.  The list is
# fixed so that throughput does not depend on the seed; only layouts do.
# With the standard design a pass has an odd number of designs, so the
# median operation is one design's time, not the gap between two sizes.
SCREEN_SIZES = ((50, 6), (80, 8), (100, 10), (120, 11), (150, 12), (200, 15), (250, 18),
                (300, 21))
# Each design is powered at one parameter point per covariance model.
SCREEN_POINTS = 3


def screen_designs(seed: int) -> list[dict]:
    """Design-file texts of one design-screen pass, alternating CSV and JSON."""
    rng = random.Random(seed)
    designs = []
    for k, (clusters, periods) in enumerate(SCREEN_SIZES):
        designs.append({"label": f"screen{k}", "rows": random_layout(rng, clusters, periods),
                        "interaction": True})
    designs.append({"label": "standard-20x10", "rows": standard_layout(20, 10),
                    "interaction": False})
    for k, design in enumerate(designs):
        design["text"] = design_text(design["label"], design["rows"], ("csv", "json")[k % 2])
        design["points"], design["designs"] = SCREEN_POINTS, 1
    return designs
