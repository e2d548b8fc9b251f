"""The seeded polytope record: on a seeded mix of (y, d) at n = 3..6, the
vertices and their generating permutations, the half-space bounds b, the
maximal corner and one Hausdorff distance per case, against
tests/data/seeded_polytope.json.  Permutations match exactly, and floats
within ULPS units in the last place of the recorded one.

The record holds its inputs, so the test draws nothing.  A change that means
to move these outputs regenerates it, from the root of the checkout, with

    PYTHONPATH=src python tests/test_seeded_polytope.py > tests/data/seeded_polytope.json

and lists the largest change per kind in CHANGES.md.
"""

import json
from pathlib import Path

import numpy as np

from dmajor.polytope import (halfspace_bounds, hausdorff, max_corner, vertex_for_permutation,
                             vertices)

RECORD = Path(__file__).parent / "data" / "seeded_polytope.json"
ULPS = 2
SEED = 330
DIMS = range(3, 7)
KINDS = ("generic", "tied_d", "tied_ratio", "near_tie", "sorted")
REF_POINTS = 6


def _outputs(y, d, ref) -> dict:
    """What the record keeps of one case: the vertices with their
    permutations, b, the maximal corner, and the Hausdorff distance from the
    vertices to the reference points."""
    verts = vertices(y, d)
    return {"points": verts.points.tolist(),
            "perms": [[list(p) for p in group] for group in verts.perms],
            "b": halfspace_bounds(y, d).b.tolist(),
            "max_corner": max_corner(y, d).tolist(),
            "hausdorff": hausdorff(verts.points, ref)}


def _items():
    """The seeded inputs, polytope-style, y >= 0 throughout: a generic pair,
    weights with ties and y at scale 1e6, y with ratio ties to d, ratios a
    few dedup tolerances apart, and y / d sorted like d with ties (y its own
    maximal corner).  ref holds corners of a nearby problem."""
    rng = np.random.default_rng(SEED)
    for n in DIMS:
        for kind in KINDS:
            d = rng.uniform(0.2, 2.0, n)
            y = rng.dirichlet(np.ones(n))
            if kind == "tied_d":
                d = rng.choice([0.5, 1.0, 2.0], size=n)
                y = 1e6 * y
            elif kind == "tied_ratio":
                y = d * rng.choice([0.2, 1.0], size=n)
            elif kind == "near_tie":
                y = d * (1.0 + 3e-9 * rng.integers(0, n, size=n))
            elif kind == "sorted":
                d = np.sort(d)[::-1]
                y = d * np.sort(rng.choice([0.5, 1.0], size=n))[::-1]
            poly = halfspace_bounds(0.9 * y + 0.1 * y.sum() * rng.dirichlet(np.ones(n)), d)
            ref = [vertex_for_permutation(rng.permutation(n), poly).tolist()
                   for _ in range(REF_POINTS)]
            yield {"n": n, "kind": kind, "y": y.tolist(), "d": d.tolist(), "ref": ref}


def _assert_within_ulps(got, ref, what):
    got, ref = np.asarray(got), np.asarray(ref)
    assert got.shape == ref.shape, what
    off = np.abs(got - ref) / np.spacing(np.abs(ref))
    assert off.max() <= ULPS, (what, float(off.max()))


def test_matches_the_seeded_record():
    record = json.loads(RECORD.read_text())
    assert len(record) == len(DIMS) * len(KINDS)
    for item in record:
        got = _outputs(item["y"], item["d"], item["ref"])
        what = (item["n"], item["kind"])
        assert got["perms"] == item["perms"], what
        for key in ("points", "b", "max_corner", "hausdorff"):
            _assert_within_ulps(got[key], item[key], (*what, key))


if __name__ == "__main__":
    lines = [json.dumps({**item, **_outputs(item["y"], item["d"], item["ref"])})
             for item in _items()]
    print("[\n" + ",\n".join(lines) + "\n]")
