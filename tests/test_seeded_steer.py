"""The seeded steer record: on seeded zero-temperature steering problems,
the schedules of synthesize and synthesize_from_ground at n = 2..8 and of
synthesize_local at 2^3, 3^3, 4^3 and 2^6, and one majorization_envelope per
n = 2..8, against tests/data/seeded_steer.json.  Permutations, segment counts
and the envelope's verdicts and counts match exactly; durations within
DURATION_TOL * max(1, the schedule's total duration) of the recorded ones,
and the envelope vertex within ULPS units in the last place.

The duration bound covers a BLAS that sums a product in another order: that
moves a backward state by an ulp, a face-hit time by up to its 2e-15 * tau
stop, and the closed-form last step after it; merged local schedules take
differences of event times, so the bound scales with the total.

The record holds its inputs, so the test draws nothing.  A change that means
to move these outputs regenerates it, from the root of the checkout, with

    PYTHONPATH=src python tests/test_seeded_steer.py > tests/data/seeded_steer.json

and lists the largest change per kind in CHANGES.md.
"""

import json
from pathlib import Path

import numpy as np

from dmajor.dissipation import b0_from_rates, zero_temperature_rates
from dmajor.reach import (majorization_envelope, synthesize, synthesize_from_ground,
                          synthesize_local)

RECORD = Path(__file__).parent / "data" / "seeded_steer.json"
DURATION_TOL = 1e-12
ULPS = 2
SEED = 340
DIMS = range(2, 9)
LOCAL_SHAPES = ((2, 3), (3, 3), (4, 3), (2, 6))
EPS = (1e-6, 1e-9, 1e-12)
CONCENTRATIONS = (0.3, 1.0, 3.0)


def _schedule(sched) -> dict:
    return {"perms": [s.perm.tolist() for s in sched.segments],
            "durations": [s.duration for s in sched.segments]}


def _outputs(item) -> dict:
    """What the record keeps of one item: the schedule, or the envelope's
    vertex, verdicts and counts."""
    kind, args = item["kind"], item["args"]
    if kind == "synthesize":
        gen = b0_from_rates(zero_temperature_rates(len(args["x"])))
        return _schedule(synthesize(gen, args["x0"], args["x"], args["eps"]))
    if kind == "synthesize_from_ground":
        gen = b0_from_rates(zero_temperature_rates(len(args["x"])))
        return _schedule(synthesize_from_ground(gen, args["x"]))
    if kind == "synthesize_local":
        return _schedule(synthesize_local(args["n"], args["m"], args["x0"], args["x"],
                                          args["eps"]))
    z, report = majorization_envelope(args["x0"], args["d"], sample_count=args["samples"],
                                      sample_depth=args["depth"], seed=args["seed"])
    return {"z": z.tolist(), "initial_majorized": report.initial_majorized,
            "tangential_ok": report.tangential_ok,
            "sampled_violations": report.sampled_violations,
            "samples_checked": report.samples_checked}


def _items():
    """The seeded inputs: Dirichlet states of three concentrations, one eps
    each for the cooled routes; an equidistant d for the envelope."""
    rng = np.random.default_rng(SEED)
    for n in DIMS:
        for k, conc in enumerate(CONCENTRATIONS):
            x0, x = rng.dirichlet(np.ones(n)), rng.dirichlet(np.full(n, conc))
            yield {"kind": "synthesize", "n": n,
                   "args": {"x0": x0.tolist(), "x": x.tolist(), "eps": EPS[k]}}
            yield {"kind": "synthesize_from_ground", "n": n,
                   "args": {"x": rng.dirichlet(np.full(n, conc)).tolist()}}
    for n, m in LOCAL_SHAPES:
        for k, conc in enumerate(CONCENTRATIONS[:2]):
            x0, x = rng.dirichlet(np.ones(n ** m)), rng.dirichlet(np.full(n ** m, conc))
            yield {"kind": "synthesize_local", "n": n ** m,
                   "args": {"n": n, "m": m, "x0": x0.tolist(), "x": x.tolist(),
                            "eps": EPS[k + 1]}}
    for n in DIMS:
        d = float(rng.uniform(0.2, 0.8)) ** np.arange(n)
        yield {"kind": "envelope", "n": n,
               "args": {"x0": rng.dirichlet(np.ones(n)).tolist(), "d": (d / d.sum()).tolist(),
                        "samples": 20, "depth": 4, "seed": int(rng.integers(0, 2 ** 31))}}


def _assert_same_schedule(got, ref, what):
    assert got["perms"] == ref["perms"], what
    got_t, ref_t = np.array(got["durations"]), np.array(ref["durations"])
    tol = DURATION_TOL * max(1.0, float(ref_t.sum()))
    off = np.abs(got_t - ref_t)
    assert off.max(initial=0.0) <= tol, (what, float(off.max()), tol)


def test_matches_the_seeded_record():
    record = json.loads(RECORD.read_text())
    assert len(record) == len(DIMS) * 2 * len(CONCENTRATIONS) + 2 * len(LOCAL_SHAPES) + len(DIMS)
    for item in record:
        got = _outputs(item)
        what = (item["kind"], item["n"])
        if item["kind"] == "envelope":
            exact = ("initial_majorized", "tangential_ok", "sampled_violations",
                     "samples_checked")
            assert [got[k] for k in exact] == [item[k] for k in exact], what
            z, ref = np.array(got["z"]), np.array(item["z"])
            assert (np.abs(z - ref) <= ULPS * np.spacing(np.abs(ref))).all(), what
        else:
            _assert_same_schedule(got, item, what)


if __name__ == "__main__":
    lines = [json.dumps({**item, **_outputs(item)}) for item in _items()]
    print("[\n" + ",\n".join(lines) + "\n]")
