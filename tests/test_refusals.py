"""Input refusals of the library, each with its exception and message."""

import numpy as np
import pytest

from dmajor.channels import (SuperOperator, channel_between, d_matrix_majorizes_2x2,
                             identity_distance_witness, matrix_majorizes, pure_state_reachable,
                             trace_norm)
from dmajor.cnr import c_numerical_range_sample, c_spectrum, unitary_orbit_extrema
from dmajor.dissipation import (MAX_BATH_DIM, BathRates, Generator, apply_gamma, b0_from_rates,
                                equidistant_d, flow, gibbs_vector, propagator, sigma_plus,
                                zero_temperature_rates)
from dmajor.linalg import check_permutation, check_square, expm, hermitian_eig
from dmajor.majorize import (StochasticMatrix, column_stochastic_transfer, d_majorizes,
                             d_stochastic_transfer, doubly_stochastic_transfer, majorizes,
                             maximal_element, minimal_element)
from dmajor.polytope import (HPolytope, contains, halfspace_bounds, hausdorff, hull_hausdorff,
                             vertex_for_permutation, vertices)
from dmajor.reach import (Schedule, Segment, majorization_envelope, random_schedule,
                          reachable_sample, simulate, synthesize, synthesize_local)
from helpers import compose, identity_superoperator

I2, I3 = np.eye(2), np.eye(3)
QUARTER = np.full(4, 0.25)
# x < x holds, but the sums of x overflow: refused, not answered False
BIG = [1e308, 1e308]


def _zero_temp(n):
    return b0_from_rates(zero_temperature_rates(n))


def _poly():
    return halfspace_bounds([0.5, 0.5], [1.0, 1.0])


def _poly3():
    return halfspace_bounds([0.2, 0.3, 0.5], [1.0, 1.0, 1.0])


# each reader of caller arrays refuses a numeric string and a boolean, alone
# or among numbers, which np.asarray(x, dtype=float) would take as 0.5 or 1
REAL = "expected real numbers, got entries of dtype <U"
BOOL = "expected real numbers, got a boolean"
NUMBER = "expected real or complex numbers, got entries of dtype"
NUMBER_BOOL = "expected real or complex numbers, got a boolean"
PERMUTATION = "permutation must be a non-empty 1-d integer array"
NULL_STATE = "null_state must be a density matrix of size"
NON_NUMBERS = {
    "check-square-string": (lambda: check_square([["1", 0], [0, 1]]), NUMBER),
    "check-square-boolean": (lambda: check_square([[True, 0], [0, 1]]), NUMBER_BOOL),
    "hermitian-eig-string": (lambda: hermitian_eig([["0.5"]]), NUMBER),
    "hermitian-eig-boolean": (lambda: hermitian_eig([[1.0, 0.0], [0.0, True]]), NUMBER_BOOL),
    "check-permutation-string": (lambda: check_permutation(["1", "0"]), PERMUTATION),
    "check-permutation-boolean": (lambda: check_permutation([0, True, 2]), PERMUTATION),
    "expm-string": (lambda: expm([["1"]]), NUMBER),
    "expm-boolean": (lambda: expm([[1, True], [0, 1]]), NUMBER_BOOL),
    "expm-time-string": (lambda: expm(I2, "0.5"), REAL),
    "expm-time-boolean": (lambda: expm(I2, True),
                          "expected real numbers, got entries of dtype bool"),
    "bath-rates-string": (lambda: BathRates(3, ["1", "1"], [0, 0]), REAL),
    "bath-rates-boolean": (lambda: BathRates(3, [1.0, 1.0], [0, True]), BOOL),
    "generator-string": (lambda: Generator([["1", "-1"], ["-1", "1"]]), REAL),
    "generator-boolean": (lambda: Generator([[True, -1], [-1, 1]]), BOOL),
    "propagator-time-string": (lambda: propagator(_zero_temp(3), "0.5"), REAL),
    "propagator-time-boolean": (lambda: propagator(_zero_temp(3), [0.5, True]), BOOL),
    "gamma-rho-string": (lambda: apply_gamma([], [["0.5", 0], [0, 0.5]]), NUMBER),
    "gamma-rho-boolean": (lambda: apply_gamma([], [[True, 0], [0, 0]]), NUMBER_BOOL),
    "gamma-operator-string": (lambda: apply_gamma([[["0", 1], [0, 0]]], I2), NUMBER),
    "gamma-operator-boolean": (lambda: apply_gamma([[[0, True], [0, 0]]], I2), NUMBER_BOOL),
    "hpolytope-string": (lambda: HPolytope(1, ["1", "-1"]), REAL),
    "hpolytope-boolean": (lambda: HPolytope(1, [True, -1]), BOOL),
    "trace-norm-string": (lambda: trace_norm([["1", 0]]), NUMBER),
    "trace-norm-boolean": (lambda: trace_norm([[1, True]]), NUMBER_BOOL),
    "superoperator-string": (lambda: SuperOperator(1, 1, [["1"]]), NUMBER),
    "superoperator-boolean": (lambda: SuperOperator(1, 1, [[True]]), NUMBER),
    "superoperator-apply-string": (lambda: SuperOperator(1, 1, [[1.0]]).apply([["1"]]), NUMBER),
    "superoperator-apply-boolean": (lambda: SuperOperator(1, 1, [[1.0]]).apply([[True]]),
                                    NUMBER),
    "d-matrix-weights-string": (lambda: d_matrix_majorizes_2x2(I2 / 2, I2 / 2, ["1", "1"]),
                                REAL),
    "d-matrix-weights-boolean": (lambda: d_matrix_majorizes_2x2(I2 / 2, I2 / 2, [1, True]), BOOL),
    "orbit-extrema-string": (lambda: unitary_orbit_extrema([["1", 0], [0, 1]], I2), NUMBER),
    "orbit-extrema-boolean": (lambda: unitary_orbit_extrema(I2, [[1, 0], [0, True]]),
                              NUMBER_BOOL),
    "channel-between-string": (lambda: channel_between([["0.5", 0], [0, 0.5]], I2 / 2), NUMBER),
    "channel-between-boolean": (lambda: channel_between(I2 / 2, [[True, 0], [0, 0]]),
                                NUMBER_BOOL),
    "matrix-majorizes-string": (lambda: matrix_majorizes(I2 / 2, [["1", 0], [0, 0]]), NUMBER),
    "matrix-majorizes-boolean": (lambda: matrix_majorizes([[True, 0], [0, 0]], I2 / 2),
                                 NUMBER_BOOL),
    # a boolean among integers was read as the identity's 1
    "segment-permutation-boolean": (lambda: Segment([0, True, 2], 0.5), PERMUTATION),
    "vertex-permutation-boolean": (lambda: vertex_for_permutation([0, True, 2], _poly3()),
                                   PERMUTATION),
}

# scalar parameters are read by the same rule: True once ran as 1 and "1"
# raised TypeError from a comparison
BOOL_DTYPE = "expected real numbers, got entries of dtype bool"
INTEGER = "expected integers, got entries of dtype <U"
INTEGER_BOOL = "expected integers, got entries of dtype bool"
ENVELOPE_X0, ENVELOPE_D = [0.5, 0.3, 0.2], [4 / 7, 2 / 7, 1 / 7]
SCALARS = {
    "gibbs-temperature-boolean": (lambda: gibbs_vector([0.0, 1.0], True), BOOL_DTYPE),
    "gibbs-temperature-string": (lambda: gibbs_vector([0.0, 1.0], "1"), REAL),
    "synthesize-eps-boolean": (lambda: synthesize(_zero_temp(2), [0.5, 0.5], [0.5, 0.5], True),
                               BOOL_DTYPE),
    "local-synthesis-eps-boolean": (lambda: synthesize_local(2, 2, QUARTER, QUARTER, True),
                                    BOOL_DTYPE),
    "local-synthesis-eps-array": (lambda: synthesize_local(2, 2, QUARTER, QUARTER, [1e-6, 1e-6]),
                                  "eps must be a real number"),
    "majorizes-tol-boolean": (lambda: majorizes([0.5, 0.5], [0.5, 0.5], tol=True), BOOL_DTYPE),
    "d-majorizes-tol-boolean": (lambda: d_majorizes([0.5, 0.5], [0.5, 0.5], [1.0, 1.0],
                                                    tol=True), BOOL_DTYPE),
    "d-majorizes-tol-array": (lambda: d_majorizes([0.5, 0.5], [0.5, 0.5], [1.0, 1.0],
                                                  tol=[1e-9, 1e-9]), "tol must be a real number"),
    "doubly-transfer-tol-boolean": (lambda: doubly_stochastic_transfer([0.5, 0.5], [0.5, 0.5],
                                                                       tol=True), BOOL_DTYPE),
    "column-transfer-tol-boolean": (lambda: column_stochastic_transfer([0.5, 0.5], [0.5, 0.5],
                                                                       tol=True), BOOL_DTYPE),
    "d-transfer-tol-boolean": (lambda: d_stochastic_transfer([0.5, 0.5], [0.5, 0.5], [1.0, 1.0],
                                                             tol=True), BOOL_DTYPE),
    "maximal-element-tol-boolean": (lambda: maximal_element([1.0, 2.0], tol=True), BOOL_DTYPE),
    "minimal-element-trace-boolean": (lambda: minimal_element(True, [1.0, 2.0]), BOOL_DTYPE),
    # vertices ran at tol 1, two corners for six distinct ones
    "vertices-dedup-tol-boolean": (lambda: vertices([0.5, 0.3, 0.2], [0.2, 0.3, 0.5],
                                                    dedup_tol=True), BOOL_DTYPE),
    "vertices-dedup-tol-string": (lambda: vertices([0.5, 0.3, 0.2], [0.2, 0.3, 0.5],
                                                   dedup_tol="1e-9"), REAL),
    "contains-tol-boolean": (lambda: contains([0.5, 0.5], _poly(), tol=True), BOOL_DTYPE),
    "contains-tol-string": (lambda: contains([0.5, 0.5], _poly(), tol="1"), REAL),
    # no segment lasts a full dt, so no propagator call saw it
    "simulate-dt-boolean": (lambda: simulate(_zero_temp(2), [0.5, 0.5],
                                             Schedule([Segment((1, 0), 0.5)]), dt=True),
                            BOOL_DTYPE),
    "equidistant-alpha-string": (lambda: equidistant_d("0.5", 3), REAL),
    # True drew one schedule, or ran as seed 1
    "envelope-sample-count-boolean": (lambda: majorization_envelope(ENVELOPE_X0, ENVELOPE_D,
                                                                    sample_count=True),
                                      INTEGER_BOOL),
    "envelope-sample-count-string": (lambda: majorization_envelope(ENVELOPE_X0, ENVELOPE_D,
                                                                   sample_count="3"), INTEGER),
    "envelope-sample-depth-boolean": (lambda: majorization_envelope(ENVELOPE_X0, ENVELOPE_D,
                                                                    sample_depth=True),
                                      INTEGER_BOOL),
    "envelope-seed-boolean": (lambda: majorization_envelope(ENVELOPE_X0, ENVELOPE_D, seed=True),
                              INTEGER_BOOL),
    "envelope-sample-count-array": (lambda: majorization_envelope(ENVELOPE_X0, ENVELOPE_D,
                                                                  sample_count=[3]),
                                    "sample_count must be an integer"),
    # True ran as seed 1 or as depth 1, and "2" raised TypeError
    "random-schedule-seed-boolean": (lambda: random_schedule(3, 2, True), INTEGER_BOOL),
    "random-schedule-depth-boolean": (lambda: random_schedule(3, True, 0), INTEGER_BOOL),
    "random-schedule-depth-string": (lambda: random_schedule(3, "2", 0), INTEGER),
    "random-schedule-levels-boolean": (lambda: random_schedule(True, 2, 0), INTEGER_BOOL),
    "random-schedule-seed-array": (lambda: random_schedule(3, 2, [1]), "seed must be an integer"),
    "reachable-sample-seed-boolean": (lambda: reachable_sample(_zero_temp(3), ENVELOPE_X0, 2,
                                                               True), INTEGER_BOOL),
    "reachable-sample-depth-string": (lambda: reachable_sample(_zero_temp(3), ENVELOPE_X0, "2",
                                                               0), INTEGER),
}


REFUSALS = {
    "superoperator-shape": (lambda: SuperOperator(2, 2, I3),
                            "action matrix shape does not match the declared dimensions"),
    "superoperator-apply": (lambda: identity_superoperator(2).apply(I3),
                            "input dimension mismatch"),
    "superoperator-compose": (lambda: compose(identity_superoperator(2),
                                              identity_superoperator(3)),
                              "composition dimension mismatch"),
    "channel-between-size": (lambda: channel_between(I2, I3), "A and B must have equal size"),
    # an unchecked null_state once gave a map neither CP nor TP, or a numpy
    # broadcast error at the wrong size
    "channel-between-null-state-negative": (
        lambda: channel_between(np.diag([0.6, 0.4, 0]), np.diag([1.0, 0, 0]),
                                null_state=np.diag([5.0, -3.0, 0.0])), NULL_STATE),
    "channel-between-null-state-size": (
        lambda: channel_between(np.diag([0.6, 0.4, 0]), np.diag([1.0, 0, 0]), null_state=I2 / 2),
        "null_state must be a density matrix of size 3 x 3"),
    "channel-between-null-state-trace": (
        lambda: channel_between(np.diag([0.6, 0.4]), np.diag([1.0, 0]), null_state=I2), NULL_STATE),
    "channel-between-null-state-not-hermitian": (
        lambda: channel_between(np.diag([0.6, 0.4]), np.diag([1.0, 0]),
                                null_state=[[0.5, 0.5], [0.0, 0.5]]),
        "null_state is not Hermitian within tolerance"),
    "channel-between-null-state-not-square": (
        lambda: channel_between(np.diag([0.6, 0.4]), np.diag([1.0, 0]), null_state=[0.5, 0.5]),
        "null_state must be square"),
    "channel-between-null-state-infinite": (
        lambda: channel_between(np.diag([0.6, 0.4]), np.diag([1.0, 0]),
                                null_state=[[np.inf, 0], [0, 0]]),
        "entries of null_state must be finite"),
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
    # a fractional level count once gave 3 weights summing to 1.063
    "equidistant-fractional-levels": (lambda: equidistant_d(0.5, 2.5),
                                      "n must be an integer, got 2.5"),
    "zero-temperature-fractional-levels": (lambda: zero_temperature_rates(2.5),
                                           "n must be an integer, got 2.5"),
    "zero-temperature-boolean-levels": (lambda: zero_temperature_rates(True),
                                        "n must be an integer, got True"),
    "sigma-plus-levels": (lambda: sigma_plus(0), "n must be positive"),
    "sigma-plus-fractional-levels": (lambda: sigma_plus(2.5), "n must be an integer, got 2.5"),
    "sigma-plus-cap": (lambda: sigma_plus(MAX_BATH_DIM + 1), "exceeds the cap MAX_BATH_DIM"),
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
    "contains-matrix": (lambda: contains([[0.2, 0.3, 0.5]], _poly3()),
                        "expected a non-empty 1-d real vector"),
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
    # m = True once ran as 1, m = 3.0, m = 0 and n = "2" raised TypeError,
    # and m = -1 asked for a state of length 0.5
    "local-synthesis-m-boolean": (lambda: synthesize_local(2, True, [0.5, 0.5], [0.3, 0.7], 1e-6),
                                  INTEGER_BOOL),
    "local-synthesis-m-float": (lambda: synthesize_local(2, 3.0, QUARTER, QUARTER, 1e-6),
                                "expected integers, got entries of dtype float64"),
    "local-synthesis-m-zero": (lambda: synthesize_local(2, 0, [1.0], [1.0], 1e-6),
                               "m must lie in 1..12, got 0"),
    "local-synthesis-m-negative": (lambda: synthesize_local(2, -1, [0.5], [0.5], 1e-6),
                                   "m must lie in 1..12, got -1"),
    # n^m is formed only for m <= 12: at n >= 2 a larger m is past MAX_LOCAL_DIM = 2^12
    "local-synthesis-m-past-the-cap": (lambda: synthesize_local(1, 13, [1.0], [1.0], 1e-6),
                                       "m must lie in 1..12, got 13"),
    "local-synthesis-n-string": (lambda: synthesize_local("2", 2, QUARTER, QUARTER, 1e-6),
                                 "n must be an integer, got '2'"),
    "local-synthesis-n-zero": (lambda: synthesize_local(0, 2, [1.0], [1.0], 1e-6),
                               "n must be positive"),
    # a length-1 state once broadcast over the 3 levels
    "reachable-sample-size": (lambda: reachable_sample(_zero_temp(3), [1.0], 2, 0),
                              "state of length 1 where 3 is needed"),
    # both once named a permutation argument the caller never passed
    "random-schedule-no-levels": (lambda: random_schedule(0, 2, 0), "n must be at least 1, got 0"),
    "random-schedule-negative-levels": (lambda: random_schedule(-1, 2, 0),
                                        "n must be at least 1, got -1"),
    **NON_NUMBERS,
    **SCALARS,
}


@pytest.mark.parametrize("call, message", REFUSALS.values(), ids=REFUSALS.keys())
def test_refusal(call, message):
    with pytest.raises(ValueError, match=message) as exc:
        call()
    assert exc.type is ValueError
