"""Exact geometry and dynamics of shift spaces under the density
pseudometrics: configurations, sofic shifts, path constructions, simplicial
complex translations, cellular automaton classification, and Markov measure
bounds.

Importing the package loads no submodule: each exported name and each
submodule is imported on first access (PEP 562), so a cold CLI call
compiles only the modules its command runs."""

from importlib import import_module as _import_module

__version__ = "0.1.0"

# home module of every exported name
_EXPORTS = {
    "configs": "Alphabet BINARY Configuration format_config hamming "
               "parse_config periodic_config shift window",
    "shifts": "ShiftPresentation SftSpec compile_sft contains_config "
              "disjoint_union even_shift full_shift golden_mean intersect "
              "language language_equal language_subset mixing_distance "
              "mixing_sft_inside positive_entropy shannon_cover "
              "transitive_components find_unbordered_synchronizing",
    "metrics": "d_besicovitch d_cantor d_weyl density_estimate "
               "distance_to_shift nearest_periodic "
               "unique_approximation_search weyl_estimate",
    "paths": "block_path_prefix block_path_source block_path_window "
             "embed_point intersperse intersperse_path_prefix "
             "intersperse_path_source intersperse_path_window "
             "sample_block_path",
    "homotopy": "AbstractComplex BarycentricPoint average "
                "complex_coordinates embed_complex extract_complex "
                "inverse_weighted_average project",
    "automata": "CellularAutomaton apply_ca ca_pseudometric "
                "check_on_subshift classify_full_shift elementary_ca "
                "isometric_ca_precondition isometry_decomposition "
                "minimal_neighborhood",
    "measures": "MarkovMeasure bernoulli_prefix binomial_growth_threshold "
                "cylinder cylinder_decay_bound hamming_ball_count "
                "parry_measure verify_binomial_bound",
}
_HOME = {name: mod for mod, names in _EXPORTS.items()
         for name in names.split()}
_SUBMODULES = frozenset(_EXPORTS) | {"errors", "_graph"}

__all__ = list(_HOME)


def __getattr__(name):
    if name in _SUBMODULES:
        return _import_module(f".{name}", __name__)
    if name not in _HOME:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(_import_module(f".{_HOME[name]}", __name__), name)
    globals()[name] = value
    return value


def __dir__():
    return sorted(set(globals()) | set(__all__) | _SUBMODULES)
