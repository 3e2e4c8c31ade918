"""The numpy-free surface gives the same bits under every Python version present.

One script makes one-point ``design_power`` calls over every catalog design,
all three covariance models, full and additive analyses, and contrasts with
and without an explicit effect size.  It hashes the ``float.hex`` of each
effect size, standard error and power, and the text of each error.  The
script runs under ``python3.10``, ``python3.12`` and ``python3.13`` where
they are on the path and start, and its hash must equal the one the running
interpreter gives.  The full analyses of fig5a are left out: their rank
diagnosis needs numpy, which the script must not load.  The script also
reads every catalog design back from its CSV, JSON and compact JSON texts,
which take both design-file readers, and hashes the cells it gets.
"""

import shutil
import subprocess
import sys
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src"

SCRIPT = """
import hashlib, sys
sys.path.insert(0, sys.argv[1])
from swedge import (EFFECT_LABELS, ContrastSpec, CorrelationSpec, CovarianceModel, EffectSpec,
                    RawComponents, active_effects, catalog_design, catalog_ids, design_power)

SECOND = {"cs": ({}, {}), "cohort": ({"pi": 0.4}, {"sigma_psi_sq": 0.2}),
          "nested": ({"rho_a": 0.01}, {"sigma_nu_sq": 0.2})}
digest, records = hashlib.sha256(), 0
for design_id in catalog_ids():
    grid = catalog_design(design_id)
    for additive in (False, True):
        if design_id == "fig5a" and not additive:
            continue  # the diagnosis of its confounded interaction loads numpy
        labels = active_effects(grid, additive)
        sizes = {f"delta{k + 1}": (0.1, 0.2, 0.3)[k]
                 for k, label in enumerate(EFFECT_LABELS) if label in labels}
        contrasts = (ContrastSpec("sum", (1.0,) * len(labels)),
                     ContrastSpec("diff", (1.0, -1.0, 0.5)[:len(labels)], effect=0.25))
        effects = [lambda: EffectSpec(**sizes, contrasts=contrasts, additive=additive),
                   lambda: EffectSpec(0.1, 0.2, 0.3, alpha=0.01, additive=additive)]
        for model, (iccs, extra) in SECOND.items():
            specs = [lambda n=n, rho=rho: CorrelationSpec(CovarianceModel(model), n, rho, **iccs)
                     for n in (1, 15, 1000) for rho in (0.02, 0.1, 0.5, 0.999)]
            specs.append(lambda: CorrelationSpec(
                CovarianceModel(model), 10, raw=RawComponents(0.1, 1.0, **extra)))
            for spec in specs:
                for effect in effects:
                    try:
                        rows = design_power(grid, spec(), effect()).rows
                        text = [(r.label, r.effect.hex(), r.se.hex(), r.power.hex()) for r in rows]
                    except ValueError as exc:
                        text = f"{type(exc).__name__}: {exc}"
                    digest.update(repr((design_id, additive, model, text)).encode())
                    records += 1
import json
from swedge import parse_design, serialize_design
parsed = 0
for design_id in catalog_ids():
    grid = catalog_design(design_id)
    text = serialize_design(grid, "json")
    compact = json.dumps(json.loads(text), separators=(",", ":"))
    for form in (serialize_design(grid), text, compact):
        again = parse_design(form)
        digest.update(repr((design_id, again.cells, again.n_periods, again.label,
                            again.reconstructed)).encode())
        parsed += 1
assert "numpy" not in sys.modules, "the script loaded numpy"
print(records, parsed, digest.hexdigest())
"""


def _run(python: str) -> subprocess.CompletedProcess:
    # -I keeps the environment's paths out, -B writes no bytecode
    return subprocess.run([python, "-I", "-B", "-c", SCRIPT, str(SRC)],
                          capture_output=True, text=True, timeout=600)


@pytest.fixture(scope="module")
def reference() -> str:
    result = _run(sys.executable)
    assert result.returncode == 0, result.stderr
    return result.stdout


def test_the_script_covers_the_catalog(reference):
    # 21 analyses, 3 models, 13 points, 2 effect specs; 11 designs, 3 texts each
    assert reference.split()[:2] == [str(21 * 3 * 13 * 2), str(11 * 3)]


@pytest.mark.parametrize("version", ["3.10", "3.12", "3.13"])
def test_every_python_version_gives_the_same_bits(version, reference):
    python = shutil.which(f"python{version}")
    if python is None:
        pytest.skip(f"python{version} is not on the path")
    # an inactive pyenv shim is on the path but exits 127
    probe = subprocess.run([python, "-c", "pass"], capture_output=True, text=True, timeout=120)
    if probe.returncode != 0:
        pytest.skip(f"python{version} does not start: {probe.stderr.strip()[:200]}")
    result = _run(python)
    assert result.returncode == 0, result.stderr
    assert result.stdout == reference
