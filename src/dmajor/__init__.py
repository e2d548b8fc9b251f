"""d-majorization, thermomajorization polytopes, thermal-bath dissipation,
and switched-system reachability on the probability simplex.

``import dmajor`` loads no submodule.  The first use of an exported name
imports the submodule that defines it and binds all of that submodule's
exported names here, so later lookups are plain attribute reads.
"""

from importlib import import_module as _import_module

# submodule -> the names the package exports from it
_EXPORTS = {
    "channels": ("SuperOperator", "channel_between", "choi", "d_matrix_majorizes_2x2",
                 "identity_distance_witness", "is_cp", "is_strictly_positive", "is_tp",
                 "is_unital", "kernel_block_form", "kraus_set", "matrix_majorizes",
                 "pure_state_reachable", "trace_norm"),
    "cnr": ("c_numerical_range_sample", "c_spectrum", "unitary_orbit_extrema"),
    "dissipation": ("BathRates", "Generator", "apply_gamma", "b0_from_rates", "equidistant_d",
                    "flow", "gibbs_vector", "steady_state", "thermal_rates",
                    "zero_temperature_rates"),
    "linalg": ("expm", "hermitian_eig"),
    "majorize": ("MaximalElement", "StochasticMatrix", "ThermoCurve",
                 "column_stochastic_transfer", "d_majorizes", "d_stochastic_transfer",
                 "doubly_stochastic_transfer", "majorizes", "maximal_element",
                 "minimal_element", "thermo_curve"),
    "polytope": ("HPolytope", "VertexSet", "constraint_matrix", "contains", "halfspace_bounds",
                 "hausdorff", "lipschitz_constant", "max_corner", "vertex_for_permutation",
                 "vertices"),
    "reach": ("Schedule", "Segment", "Trajectory", "majorization_envelope", "reachable_sample",
              "simulate", "synthesize", "synthesize_from_ground", "synthesize_local"),
}
_MODULE_OF = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = sorted([*_EXPORTS, *_MODULE_OF])
__version__ = "0.1.0"


def __getattr__(name: str):
    module = name if name in _EXPORTS else _MODULE_OF.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    mod = _import_module(f".{module}", __name__)
    namespace = globals()
    for exported in _EXPORTS[module]:
        namespace[exported] = getattr(mod, exported)
    return namespace[name]


def __dir__() -> list[str]:
    return sorted(set(globals()) | set(__all__))
