"""Entropic gradient flows for one-hidden-layer network optimization.

The package builds a measure-independent potential from a weighted dataset,
forms its Gibbs reference weight on a truncated grid, evolves the relative
density by a conservative weighted-diffusion solver, and verifies the
exponential decay of convex entropy energies against the guaranteed rate.
"""

from .analysis import (
    DissipationReport,
    EnergyRecord,
    RateReport,
    compute_minimizer,
    dissipation_check,
    duality_lower_bound,
    energy,
    fisher,
    fit_decay_rate,
    lambda_rate,
    ou_oracle,
    ou_relative_density,
    snapshot,
    sobolev_ratio,
)
from .config import ConfigError, RunConfig, load_config, resolve_config
from .entropy import (
    EntropyGenerator,
    check_assumptions,
    conjugate_values,
    legendre_conjugate,
    make_nonconvex_probe,
    make_shannon,
    make_tsallis,
    psi_decompose,
)
from .grid import (
    Grid,
    ScalarField,
    WeightedOperator,
    build_grid,
    constant_field,
    field_from_csv,
    field_from_function,
    field_to_csv,
    integrate,
)
from .model import (
    Activation,
    Dataset,
    Loss,
    arctan_sigmoid,
    eval_network,
    generalization_error,
    load_dataset_csv,
    saturating_squared_loss,
    tanh_sigmoid,
    zero_loss,
)
from .potential import GibbsField, build_potential, certified_envelope, default_box
from .solver import FlowState, SolverConfig, SolverDiagnosticError, evolve, init_state

__version__ = "0.1.0"
