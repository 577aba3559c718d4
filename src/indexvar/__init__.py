"""VAR models with an index structure: simulation, switching-algorithm ML
estimation, model selection, structural decompositions, and forecasting."""

from .tscore import (
    Panel,
    SingularDesignError,
    autocov,
    companion_spectral_radius,
    har_aggregates,
    read_panel_csv,
    subspace_distance,
)
from .params import (
    CIAARParams,
    DRVARParams,
    IAARParams,
    MAIParams,
    VECMParams,
    VHARIParams,
)
from .simulate import (
    simulate_ciaar,
    simulate_drvar,
    simulate_iaar,
    simulate_mai,
    simulate_var,
    simulate_vhari,
)
from .estimators import (
    FitOptions,
    FitResult,
    fit_ciaar,
    fit_drvar_coeffs,
    fit_drvar_omega,
    fit_iaar,
    fit_mai,
    fit_many,
    fit_vecim,
    fit_vhari,
    johansen_rrr,
)
from .decomp import (
    Decomposition,
    StructuralIRF,
    WoldSeq,
    cc_projectors,
    common_uncommon,
    drvar_decompose,
    perm_trans,
    residuals,
    structural_transitory_irf,
    wold,
)
from .select import ICTable, grid_search, info_criterion
from .forecast import ForecastPath, evaluate, forecast, rolling_evaluate

__version__ = "0.1.0"
