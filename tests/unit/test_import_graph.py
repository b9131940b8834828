"""Serving and the CLI import only what they run.

``repro serve`` restores a persisted model and answers requests; it never
mines, covers, prunes or evaluates.  These tests pin that in the import
graph: a fresh interpreter that imports :mod:`repro.serve` or
:mod:`repro.cli` must not load the mining, pruning or evaluation modules,
the numpy-backed generators, or scipy (pulled in by
:mod:`repro.core.pessimistic`).  They assert on module presence, not on
timings, so they hold on any machine.
"""

from __future__ import annotations

import importlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import repro.core

SRC = Path(__file__).resolve().parents[2] / "src"

OFF_SERVING_PATH = (
    "scipy",
    "repro.core.pessimistic",
    "repro.core.pruning",
    "repro.core.miner",
    "repro.core.mining",
    "repro.core.covering",
    "repro.eval",
    "repro.data.datasets",
)


def _loaded_after(statement: str) -> set[str]:
    """Modules of ``OFF_SERVING_PATH`` loaded by ``statement`` in a fresh interpreter."""
    probe = (
        f"import sys, json\n{statement}\n"
        f"print(json.dumps([m for m in {list(OFF_SERVING_PATH)!r} "
        "if m in sys.modules]))"
    )
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(SRC), env.get("PYTHONPATH")])
    )
    result = subprocess.run(
        [sys.executable, "-c", probe],
        capture_output=True,
        text=True,
        env=env,
        check=True,
    )
    return set(json.loads(result.stdout.strip().splitlines()[-1]))


@pytest.mark.parametrize("module", ["repro.serve", "repro.cli"])
def test_entry_point_skips_mining_pruning_and_eval(module):
    assert _loaded_after(f"import {module}") == set()


def test_probe_sees_the_mining_stack():
    """The probe itself can see what it looks for (guards a vacuous pass)."""
    loaded = _loaded_after("import repro.core.miner")
    assert {"scipy", "repro.core.pruning", "repro.core.miner"} <= loaded


@pytest.mark.parametrize("name", repro.core.__all__)
def test_core_lazy_export_is_the_defining_object(name):
    module = importlib.import_module(repro.core._EXPORTS[name])
    assert getattr(repro.core, name) is getattr(module, name)


def test_core_dir_lists_every_export():
    assert set(repro.core.__all__) <= set(dir(repro.core))
    assert set(repro.core.__all__) == set(repro.core._EXPORTS)


def test_core_unknown_attribute_raises():
    with pytest.raises(AttributeError, match="no_such_name"):
        repro.core.no_such_name  # noqa: B018 - the access is the test
