"""Tests of the benchmark itself:  python3 -m pytest dmbench

They import dmajor from src/ of this checkout and run short fixed lists.
"""

from __future__ import annotations

import json
import pickle
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import checks
import run
import speed
import workloads as W

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))


@pytest.mark.parametrize("seed", [3, 11])
@pytest.mark.parametrize("workload", W.WORKLOADS)
def test_same_seed_gives_identical_list(workload, seed):
    first = pickle.dumps(W.build(workload, seed, 2))
    assert pickle.dumps(W.build(workload, seed, 2)) == first
    assert pickle.dumps(W.build(workload, seed + 1, 2)) != first
    # pass k does not depend on how many passes are built
    assert pickle.dumps(W.build(workload, seed, 1)[0]) == \
        pickle.dumps(W.build(workload, seed, 2)[0])
    ops = W.run_list(workload, seed)
    assert [op["id"] for op in ops] == list(range(len(ops)))


def test_pass_composition_does_not_depend_on_seed():
    for workload in W.WORKLOADS:
        shapes = {tuple((op["kind"], op["n"], op["scale"], op["expect"].get("item"))
                        for op in ops) for seed in (1, 2) for ops in W.build(workload, seed, 2)}
        assert len(shapes) == 1, workload


@pytest.mark.parametrize("seed", [5, 17])
def test_same_seed_gives_same_pass_ratio(monkeypatch, seed):
    monkeypatch.setattr(run, "SETUP_REPEATS", 1)
    monkeypatch.setitem(W.LIST, "certify", W.ListShape(1, 1.0, 2, 1))
    outcomes = []
    for _ in range(2):
        record, result = run.bench(ROOT, "certify", seed, 0.1, trace=False)
        outcomes.append((result["metrics"]["pass_ratio"]["value"], result["attempted"],
                         result["failed"], record["failures"]))
    assert outcomes[0] == outcomes[1]
    assert outcomes[0][1] == 2 * len(W.build("certify", seed)[0])


def test_speed_factors_use_the_samples_next_to_each_op():
    # samples before ops 0, 2 and 4 and after the last op (5)
    positions, samples = [0, 2, 4, 5], [1.0, 1.0, 4.0, 4.0]
    factors = speed.factors(positions, samples, 5, window=1)
    assert factors == [speed.REF_SAMPLE_S / s for s in (1.0, 1.0, 2.5, 2.5, 4.0)]


def _dmajor_namespaces():
    import dmajor.cli  # noqa: F401  (the tracer also rebinds inside the CLI module)
    return {name: dict(vars(mod)) for name, mod in sys.modules.items()
            if mod is not None and (name == "dmajor" or name.startswith("dmajor."))}


def test_tracer_uninstall_restores_every_binding():
    import dmajor
    from tracer import Tracer

    before = _dmajor_namespaces()
    original_expm = dmajor.linalg.expm
    original_phase1 = dmajor._simplex.phase1_feasible
    tracer = Tracer()
    tracer.install()
    try:
        # copies made by `from .linalg import expm` and `from ._simplex import
        # phase1_feasible` are rebound too
        assert dmajor.reach.expm is not original_expm
        assert dmajor.dissipation.expm is dmajor.reach.expm is dmajor.linalg.expm
        assert dmajor.majorize.phase1_feasible is not original_phase1
        assert dmajor.majorize.phase1_feasible is dmajor._simplex.phase1_feasible
        gen = dmajor.b0_from_rates(dmajor.zero_temperature_rates(3))
        dmajor.synthesize(gen, [0.2, 0.3, 0.5], [0.5, 0.3, 0.2], 1e-6)
        d, y = np.array([0.5, 0.3, 0.2]), np.array([0.1, 0.2, 0.7])
        dmajor.d_stochastic_transfer(0.5 * y + 0.5 * d, y, d)
    finally:
        tracer.uninstall()
    names = {s["name"] for s in tracer.rows()}
    assert {"reach.synthesize", "linalg.expm", "reach._first_face_hit",
            "_simplex.phase1_feasible", "majorize.d_stochastic_transfer"} <= names
    after = _dmajor_namespaces()
    assert before.keys() == after.keys()
    for name, attrs in before.items():
        for attr, value in attrs.items():
            assert after[name][attr] is value, f"{name}.{attr} not restored"


def test_metric_names_match_benchmark_json():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == list(run.END_TO_END)
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == list(run.PER_LAYER)
    assert [w["name"] for w in spec["workloads"]] == list(W.WORKLOADS)


def test_checks_reject_corrupted_outputs():
    import dmajor

    op = next(o for o in W.build("certify", 2)[0] if o["expect"].get("item") == "positive"
              and o["scale"] == 1.0)
    x, y, d = (op["args"][k] for k in "xyd")
    cert = dmajor.d_stochastic_transfer(x, y, d).matrix
    good = {"verdicts": dict.fromkeys(("norm", "positive_part", "curve", "contains"), True),
            "certificate": cert}
    assert checks.check(op, good) is None
    assert checks.check(op, {**good, "certificate": cert[:, ::-1]}) is not None
    assert checks.check(op, {**good, "verdicts": {**good["verdicts"], "contains": False}}) \
        == "verdict routes disagree"

    op = W.build("polytope", 2)[0][0]
    vs = dmajor.vertices(op["args"]["y"], op["args"]["d"])
    out = {"points": vs.points, "perms": vs.perms,
           "max_corner": dmajor.max_corner(op["args"]["y"], op["args"]["d"]),
           "hausdorff": dmajor.hausdorff(vs.points, op["args"]["ref"])}
    assert checks.check(op, out) is None
    assert checks.check(op, {**out, "perms": vs.perms[1:], "points": vs.points[1:]}) is not None
    assert checks.check(op, {"error": "OpTimeout: operation exceeded 20 s"}) is not None


def test_refuses_to_run_without_the_package(tmp_path):
    shutil.copytree(ROOT / "dmbench", tmp_path / "dmbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run([sys.executable, "dmbench/run.py", "--workload", "steer", "--seed", "1",
                           "--seconds", "1", "--trace", "0"], cwd=tmp_path,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
