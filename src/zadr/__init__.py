"""Zero-adjusted Dirichlet regression for compositional responses."""

__version__ = "0.1.0"

from .compositions import (  # noqa: F401
    CompositionDataset,
    CovariateMatrix,
    alr,
    alr_inv,
    estimate_p,
    load_dataset,
    make_design,
    read_csv,
    zero_pattern,
)
from .dirichlet import DirichletParams, ZeroMode  # noqa: F401
from .model import (  # noqa: F401
    FitStage,
    LinkSpec,
    ModelKind,
    ZadrModel,
    binary_log_prob,
    fit,
    fitted_values,
    link_alpha,
    link_phi,
    load_model,
    loglik_mixed,
    loglik_simple,
    loglik_zadr_mixed,
    loglik_zadr_simple,
    ols_init,
    save_model,
)
from .inference import (  # noqa: F401
    BootstrapResult,
    DiagnosticResult,
    FitMetrics,
    SimulationReport,
    bootstrap_bias,
    bootstrap_pvalue,
    diagnostic_T,
    fit_metrics,
    lrt,
    run_simulation_study,
)
