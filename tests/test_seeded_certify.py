"""The seeded certify record: on a seeded mix of (x, y, d) at n = 2..8 and
scales 1e-6, 1 and 1e6, the verdicts of the four routes, the d-stochastic
certificate of each positive and the doubly stochastic certificate of a
classical image of y, with their T-transform counts, against
tests/data/seeded_certify.json.  Verdicts and counts match exactly, and
certificate entries within ULPS units in the last place of the recorded one.

The record holds its inputs, so the test draws nothing.  A change that means
to move these outputs regenerates it, from the root of the checkout, with

    PYTHONPATH=src python tests/test_seeded_certify.py > tests/data/seeded_certify.json

and lists the largest change per kind in CHANGES.md.
"""

import json
from pathlib import Path

import numpy as np
from helpers import random_d_stochastic

from dmajor.majorize import (D_MAJORIZE_METHODS, d_majorizes, d_stochastic_transfer,
                             doubly_stochastic_transfer)
from dmajor.polytope import contains, halfspace_bounds, vertex_for_permutation

RECORD = Path(__file__).parent / "data" / "seeded_certify.json"
ULPS = 2
SEED = 320
DIMS = range(2, 9)
SCALES = (1e-6, 1.0, 1e6)
KINDS = ("positive", "negative", "corner", "edge", "perturbed")


def _outputs(x, y, d, xc) -> dict:
    """What the record keeps of one item: the verdicts of the routes and of
    contains, the certificate of x <=_d y when it holds, and the doubly
    stochastic certificate of xc < y."""
    verdicts = ([d_majorizes(x, y, d, method=m) for m in D_MAJORIZE_METHODS]
                + [contains(x, halfspace_bounds(y, d))])
    cert = d_stochastic_transfer(x, y, d) if verdicts[0] else None
    doubly = doubly_stochastic_transfer(xc, y)
    return {"verdicts": verdicts,
            "certificate": None if cert is None else cert.matrix.tolist(),
            "t_transforms": None if cert is None else cert.n_t_transforms,
            "doubly": doubly.matrix.tolist(), "doubly_t_transforms": doubly.n_t_transforms}


def _items():
    """The seeded inputs, certify-style: a d-stochastic image of y, a point
    past a polytope corner, a corner, the midpoint of an edge, and a corner
    moved by 1e-12 of the scale; xc is a doubly stochastic image of y."""
    rng = np.random.default_rng(SEED)
    for n in DIMS:
        for scale in SCALES:
            for kind in KINDS:
                d = rng.uniform(0.2, 2.0, n)
                y = rng.dirichlet(np.ones(n)) * scale
                poly = halfspace_bounds(y, d)
                perm = rng.permutation(n)
                x = vertex_for_permutation(perm, poly)
                if kind == "positive":
                    x = random_d_stochastic(d, rng) @ y
                elif kind == "negative":
                    x = x + 1e-3 * (x - (y.sum() / d.sum()) * d)
                elif kind == "edge":
                    k = int(rng.integers(0, n - 1))
                    perm[k], perm[k + 1] = perm[k + 1], perm[k]
                    x = 0.5 * (x + vertex_for_permutation(perm, poly))
                elif kind == "perturbed":
                    i, j = rng.choice(n, size=2, replace=False)
                    x[i] += 1e-12 * scale
                    x[j] -= 1e-12 * scale
                xc = random_d_stochastic(np.ones(n), rng) @ y
                yield {"n": n, "scale": scale, "kind": kind, "x": x.tolist(), "y": y.tolist(),
                       "d": d.tolist(), "xc": xc.tolist()}


def _assert_within_ulps(got, ref, what):
    got, ref = np.asarray(got), np.asarray(ref)
    assert got.shape == ref.shape, what
    off = np.abs(got - ref) / np.spacing(np.abs(ref))
    assert off.max() <= ULPS, (what, float(off.max()))


def test_matches_the_seeded_record():
    record = json.loads(RECORD.read_text())
    assert len(record) == len(DIMS) * len(SCALES) * len(KINDS)
    for item in record:
        got = _outputs(item["x"], item["y"], item["d"], item["xc"])
        what = (item["n"], item["scale"], item["kind"])
        assert got["verdicts"] == item["verdicts"], what
        assert got["t_transforms"] == item["t_transforms"], what
        assert got["doubly_t_transforms"] == item["doubly_t_transforms"], what
        if item["certificate"] is not None:
            _assert_within_ulps(got["certificate"], item["certificate"], what)
        _assert_within_ulps(got["doubly"], item["doubly"], what)


if __name__ == "__main__":
    lines = [json.dumps({**item, **_outputs(item["x"], item["y"], item["d"], item["xc"])})
             for item in _items()]
    print("[\n" + ",\n".join(lines) + "\n]")
