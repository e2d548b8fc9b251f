"""Input caps named by a constant: one step above each is refused, and at
each, where that runs in well under a second, the call works."""

import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from dmajor import cnr, polytope, reach
from dmajor.dissipation import b0_from_rates, equidistant_d, thermal_rates, zero_temperature_rates

# the checkout's src/ directory, so a fresh interpreter imports this dmajor
SRC_DIR = str(Path(reach.__file__).resolve().parents[1])


def test_local_dim_above_the_cap():
    cap = reach.MAX_LOCAL_DIM
    state = np.full(cap + 1, 1.0 / (cap + 1))
    # n is read as a level count before n^m is formed
    with pytest.raises(ValueError, match=rf"n = {cap + 1} exceeds the cap MAX_BATH_DIM"):
        reach.synthesize_local(cap + 1, 1, state, state, 1e-3)
    with pytest.raises(ValueError, match=rf"n\^m = {65 ** 2} exceeds the cap {cap}"):
        reach.synthesize_local(65, 2, state, state, 1e-3)


@pytest.mark.parametrize("x0", ["uniform", "dirichlet"])
def test_local_synthesis_at_the_cap(x0):
    # the endpoint runs on the 4-level block, applied to each of the 1024 copies
    n, m = 4, 6
    assert n ** m == reach.MAX_LOCAL_DIM
    x0 = (np.full(n ** m, n ** -m) if x0 == "uniform"
          else np.random.default_rng(46).dirichlet(np.ones(n ** m)))
    target = np.eye(n ** m)[0]
    sched = reach.synthesize_local(n, m, x0, target, 1e-3)
    assert all(seg.perm.shape == (n ** m,) and not seg.perm.flags.writeable
               for seg in sched.segments)
    block = b0_from_rates(zero_temperature_rates(n))
    assert np.abs(reach.endpoint(block, x0, sched) - target).sum() <= 1e-3


def test_qubit_chain_at_the_cap():
    # twelve qubits: 4,095 two-level face hits, each in closed form
    n, m, eps = 2, 12, 1e-6
    assert n ** m == reach.MAX_LOCAL_DIM
    x0, target = np.random.default_rng(212).dirichlet(np.ones(n ** m), size=2)
    sched = reach.synthesize_local(n, m, x0, target, eps)
    block = b0_from_rates(zero_temperature_rates(n))
    assert np.abs(reach.endpoint(block, x0, sched) - target).sum() <= eps


def test_local_synthesis_at_the_cap_memory():
    # a fresh interpreter, so the peak is this run's alone; schedule
    # permutations held as tuples of Python ints peaked at 650 MB.  Linux
    # carries ru_maxrss over from the forking parent, here the test runner,
    # so the peak is read from VmHWM where /proc has it
    code = """if True:
        import os, resource, sys
        import numpy as np
        from dmajor import reach
        from dmajor.dissipation import b0_from_rates, zero_temperature_rates
        x0, x = np.random.default_rng(46).dirichlet(np.ones(4 ** 6), size=2)
        sched = reach.synthesize_local(4, 6, x0, x, 1e-6)
        reach.endpoint(b0_from_rates(zero_temperature_rates(4)), x0, sched)
        if os.path.exists("/proc/self/status"):
            with open("/proc/self/status") as status:
                hwm = next(line for line in status if line.startswith("VmHWM:"))
            print(int(hwm.split()[1]) / 2 ** 10)    # kB
        else:
            unit = 2 ** 20 if sys.platform == "darwin" else 2 ** 10   # ru_maxrss in bytes or KiB
            print(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / unit)
    """
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [SRC_DIR, env.get("PYTHONPATH")]))
    run = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                         text=True, timeout=120)
    assert run.returncode == 0, run.stderr
    assert float(run.stdout) < 250.0


def test_sample_depth():
    cap = reach.MAX_SAMPLE_DEPTH
    d = equidistant_d(0.5, 3)
    gen, x0 = b0_from_rates(thermal_rates(d)), np.array([0.2, 0.3, 0.5])
    assert len(reach.random_schedule(3, cap, seed=0)) == cap
    assert reach.reachable_sample(gen, x0, depth=cap, seed=0).shape == (cap + 1, 3)
    _, report = reach.majorization_envelope(x0, d, sample_count=8, sample_depth=cap)
    assert (report.samples_checked, report.sampled_violations) == (8, 0)
    above = rf"depth must lie in \[0, {cap}\], got {cap + 1}"
    with pytest.raises(ValueError, match=above):
        reach.random_schedule(3, cap + 1, seed=0)
    with pytest.raises(ValueError, match=above):
        reach.reachable_sample(gen, x0, depth=cap + 1, seed=0)
    with pytest.raises(ValueError, match="sample_" + above):
        reach.majorization_envelope(x0, d, sample_count=8, sample_depth=cap + 1)


def test_envelope_dim():
    cap = reach.MAX_ENVELOPE_DIM
    d = equidistant_d(0.5, cap)
    _, report = reach.majorization_envelope(d[::-1], d, sample_count=0)
    assert report.initial_majorized and report.tangential_ok
    d = equidistant_d(0.5, cap + 1)
    with pytest.raises(ValueError, match=f"n = {cap + 1} exceeds the cap {cap}"):
        reach.majorization_envelope(d, d, sample_count=0)


def test_vertex_dim():
    cap = polytope.MAX_VERTEX_DIM
    rng = np.random.default_rng(8)
    y, d = rng.standard_normal(cap), rng.uniform(0.5, 2.0, cap)
    assert polytope.constraint_matrix(cap).shape == (2 ** cap, cap)
    poly, points = polytope.halfspace_bounds(y, d), polytope.vertices(y, d).points
    assert points.shape[1] == cap
    assert all(polytope.contains(p, poly) for p in points[:50])
    above = f"dimension must lie in 1..{cap}, got {cap + 1}"
    with pytest.raises(ValueError, match=above):
        polytope.constraint_matrix(cap + 1)
    for build in (polytope.halfspace_bounds, polytope.vertices):
        with pytest.raises(ValueError, match=above):
            build(np.ones(cap + 1), np.ones(cap + 1))


def test_lipschitz_dim():
    cap = polytope.MAX_LIPSCHITZ_DIM
    assert polytope.lipschitz_constant(cap) >= cap
    with pytest.raises(ValueError, match=f"capped at n = {cap}"):
        polytope.lipschitz_constant(cap + 1)


def test_spectrum_dim():
    cap = cnr.MAX_SPECTRUM_DIM
    rng = np.random.default_rng(7)
    c, t = np.diag(rng.standard_normal(cap)), np.diag(rng.standard_normal(cap))
    # generic spectra give one distinct sum per permutation
    assert cnr.c_spectrum(c, t).size == math.factorial(cap)
    with pytest.raises(ValueError, match=f"capped at n = {cap}"):
        cnr.c_spectrum(np.eye(cap + 1), np.eye(cap + 1))
