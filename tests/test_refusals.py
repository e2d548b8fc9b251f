"""Input refusals of the library, each with its exception and message."""

import numpy as np
import pytest

from dmajor.channels import (SuperOperator, channel_between, identity_distance_witness,
                             matrix_majorizes, pure_state_reachable)
from dmajor.cnr import c_numerical_range_sample, c_spectrum, unitary_orbit_extrema
from dmajor.dissipation import (BathRates, Generator, apply_gamma, b0_from_rates, equidistant_d,
                                flow, propagator, zero_temperature_rates)
from dmajor.majorize import (StochasticMatrix, column_stochastic_transfer, d_majorizes,
                             doubly_stochastic_transfer, majorizes)
from dmajor.polytope import (HPolytope, contains, halfspace_bounds, hausdorff, hull_hausdorff,
                             vertex_for_permutation)
from dmajor.reach import reachable_sample, synthesize_local
from helpers import compose, identity_superoperator

I2, I3 = np.eye(2), np.eye(3)
QUARTER = np.full(4, 0.25)
# x < x holds, but the sums of x overflow: refused, not answered False
BIG = [1e308, 1e308]


def _zero_temp(n):
    return b0_from_rates(zero_temperature_rates(n))


def _poly():
    return halfspace_bounds([0.5, 0.5], [1.0, 1.0])


REFUSALS = {
    "superoperator-shape": (lambda: SuperOperator(2, 2, I3),
                            "action matrix shape does not match the declared dimensions"),
    "superoperator-apply": (lambda: identity_superoperator(2).apply(I3),
                            "input dimension mismatch"),
    "superoperator-compose": (lambda: compose(identity_superoperator(2),
                                              identity_superoperator(3)),
                              "composition dimension mismatch"),
    "channel-between-size": (lambda: channel_between(I2, I3), "A and B must have equal size"),
    "matrix-majorizes-size": (lambda: matrix_majorizes(I2, I3), "A and B must have equal size"),
    "c-spectrum-size": (lambda: c_spectrum(I2, I3), "C and T must have equal size"),
    "orbit-extrema-size": (lambda: unitary_orbit_extrema(I2, I3), "C and T must have equal size"),
    "cnr-sample-size": (lambda: c_numerical_range_sample(I2, I3, 5),
                        "C and A must have equal size"),
    "pure-state-weights": (lambda: pure_state_reachable(I2 / 2, [1.0, 1.0, 1.0], 0),
                           "d must be a positive vector matching rho"),
    "pure-state-index": (lambda: pure_state_reachable(I2 / 2, [1.0, 1.0], 2),
                         "index out of range"),
    "pure-state-density": (lambda: pure_state_reachable(I2, [1.0, 1.0], 0),
                           "rho must be a density matrix"),
    "witness-dimensions": (lambda: identity_distance_witness(SuperOperator(2, 3, np.zeros((9, 4)))),
                           "witness construction requires equal dimensions"),
    "bath-rates-length": (lambda: BathRates(3, [1.0], [1.0, 1.0]),
                          "rate arrays must have length n-1"),
    "bath-rates-finite": (lambda: BathRates(3, [1.0, np.inf], [1.0, 1.0]),
                          "rates must be finite"),
    "generator-square": (lambda: Generator(np.zeros((2, 3))), "B0 must be square"),
    "zero-temperature-levels": (lambda: zero_temperature_rates(0), "n must be positive"),
    "equidistant-levels": (lambda: equidistant_d(0.5, 0), "n must be positive"),
    "flow-length": (lambda: flow(_zero_temp(3), [0.5, 0.5], 1.0),
                    "state length must be a multiple of the generator's 3 levels"),
    "propagator-negative-time": (lambda: propagator(_zero_temp(3), -1.0),
                                 r"propagator requires t >= 0"),
    "propagator-2d-time": (lambda: propagator(_zero_temp(3), np.ones((2, 2))),
                           "propagator expects a scalar or 1-d array of times"),
    "gamma-square": (lambda: apply_gamma([], np.zeros((2, 3))), "rho must be square"),
    "d-majorizes-method": (lambda: d_majorizes([0.5, 0.5], [0.5, 0.5], [1.0, 1.0], method="lp"),
                           "unknown method 'lp'"),
    "validate-negative": (lambda: StochasticMatrix(np.array([[1.5, 0.0], [-0.5, 1.0]]),
                                                   "column").validate(),
                          "negative entry -5.000e-01 in stochastic matrix"),
    "validate-column-sums": (lambda: StochasticMatrix(np.full((2, 2), 0.6), "column").validate(),
                             "column sums deviate from 1"),
    # every comparison with NaN is False, so a NaN entry must fail its column
    "validate-nan": (lambda: StochasticMatrix(np.array([[1.0, 0.0], [0.0, np.nan]]),
                                              "column").validate(),
                     "column sums deviate from 1"),
    "validate-row-sums": (lambda: StochasticMatrix(np.array([[1.0, 1.0], [0.0, 0.0]]),
                                                   "doubly").validate(),
                          "row sums deviate from 1"),
    "validate-weights": (lambda: StochasticMatrix(I2, "d-stochastic").validate(),
                         "d-stochastic matrix must carry its weight vector"),
    "validate-fixed-point": (lambda: StochasticMatrix(np.array([[1.0, 1.0], [0.0, 0.0]]),
                                                      "d-stochastic",
                                                      d=np.array([1.0, 1.0])).validate(),
                             "weight vector is not a fixed point"),
    "doubly-transfer-length": (lambda: doubly_stochastic_transfer([1.0, 0.0], [1.0, 0.0, 0.0]),
                               "x and y must have equal length"),
    "doubly-transfer-total": (lambda: doubly_stochastic_transfer([0.5, 0.4], [0.5, 0.5]),
                              "doubly_stochastic_transfer requires x to be majorized by y"),
    "majorizes-range": (lambda: majorizes(BIG, BIG), "must stay finite"),
    "doubly-transfer-range": (lambda: doubly_stochastic_transfer(BIG, BIG), "must stay finite"),
    "column-transfer-range": (lambda: column_stochastic_transfer(BIG, BIG), "must stay finite"),
    "column-transfer-length": (lambda: column_stochastic_transfer([1.0, 0.0], [1.0, 0.0, 0.0]),
                               "x and y must have equal length"),
    "column-transfer-total": (lambda: column_stochastic_transfer([0.5, 0.4], [0.5, 0.5]),
                              "column_stochastic_transfer requires equal totals"),
    "hpolytope-b-length": (lambda: HPolytope(2, np.array([1.0, 1.0, -1.0])),
                           r"b must have length 2\^n"),
    "contains-dimension": (lambda: contains([0.2, 0.3, 0.5], _poly()), "dimension mismatch"),
    "vertex-permutation-length": (lambda: vertex_for_permutation([0, 1, 2], _poly()),
                                  "permutation length must equal the polytope dimension"),
    # each once returned nan, inf or 1.0
    "hausdorff-nan": (lambda: hausdorff([[np.nan, 0.0]], [[0.0, 0.0]]),
                      "point entries must be finite"),
    "hausdorff-inf": (lambda: hausdorff([[0.0, 0.0]], [[np.inf, 0.0]]),
                      "point entries must be finite"),
    "hausdorff-string": (lambda: hausdorff([["1", 0]], [[0.0, 0.0]]),
                         "expected real numbers, got entries of dtype <U"),
    "hausdorff-boolean": (lambda: hausdorff([[True, 0]], [[0.0, 0.0]]),
                          "expected real numbers, got a boolean"),
    "hausdorff-range": (lambda: hausdorff([[1e308, 0.0]], [[-1e308, 0.0]]),
                        "beyond the float range"),
    "hull-hausdorff-nan": (lambda: hull_hausdorff([[0.0, 0.0]], [[np.nan, 0.0]]),
                           "point entries must be finite"),
    "hull-hausdorff-boolean": (lambda: hull_hausdorff([[0.0, 0.0]], [[0.5, True]]),
                               "expected real numbers, got a boolean"),
    "hull-hausdorff-range": (lambda: hull_hausdorff([[1e308, 0.0]], [[-1e308, 0.0]]),
                             "beyond the float range"),
    # numpy reads a boolean among numbers as 0 or 1
    "vector-boolean-among-numbers": (lambda: d_majorizes([0.5, 0.5], [1, True], [1.0, 1.0]),
                                     "expected real numbers, got a boolean"),
    "local-synthesis-eps": (lambda: synthesize_local(2, 2, QUARTER, QUARTER, 0.0),
                            "eps must be positive"),
    "local-synthesis-size": (lambda: synthesize_local(2, 2, [0.5, 0.5], QUARTER, 1e-6),
                             "state of length 2 where 4 is needed"),
    # a length-1 state once broadcast over the 3 levels
    "reachable-sample-size": (lambda: reachable_sample(_zero_temp(3), [1.0], 2, 0),
                              "state of length 1 where 3 is needed"),
}


@pytest.mark.parametrize("call, message", REFUSALS.values(), ids=REFUSALS.keys())
def test_refusal(call, message):
    with pytest.raises(ValueError, match=message) as exc:
        call()
    assert exc.type is ValueError
