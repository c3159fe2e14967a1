"""Fisher geometry of Gaussian covariance spectra.

A numpy library for the information geometry of zero-mean multivariate
Gaussians in spectral coordinates: the Fisher metric and embedding
curvatures, the information lost by discarding sample eigenvectors,
eigenvalue estimators built from that geometry, and the Monte-Carlo
studies that quantify them.  The ``eigengeo`` command line (see
``eigengeo.cli``) drives the same computations and writes CSV reports.
"""

__version__ = "0.1.0"

from .errors import (
    DimensionMismatch,
    EigengeoError,
    IndexOutOfRange,
    NearDegenerateSpectrum,
    NotPositiveDefinite,
    NotPositiveDefiniteWarning,
    OptimizerFailure,
    QuadratureUnderflow,
)
from .estimators import (
    EigenEstimate,
    OrthogonalEnsemble,
    haar_sample,
    lambda_hat,
    lambda_star,
    lambda_star_from_eigs,
    lbar,
    o2_equidistant,
)
from .fisher_geometry import (
    CurvatureTensor,
    SpectralMetric,
    SymTangent,
    curvature_oracle_A,
    curvature_oracle_M,
    curvature_tensor_A,
    embedding_curvature_A,
    fd_tangent_lambda,
    fd_tangent_u,
    inverse_metric_eigen,
    inverse_metric_pair,
    metric_sigma,
    metric_spectral,
    metric_spectral_fd,
    raised_curvature,
    statistical_curvature,
    tangent_lambda,
    tangent_u,
)
from .hypothesis_tests import (
    CriticalValue,
    PowerPoint,
    PowerStudy,
    TestStatistic,
    calibrate,
    eigen_log_density_kernel,
    eigen_lrt_stat,
    figure3_experiment,
    full_lrt_stat,
    power_curve,
)
from .information_loss import (
    LossMatrix,
    info_carried_by_l,
    loss_contraction,
    loss_first_order,
)
from .spd_manifold import (
    NaturalCoords,
    SkewParams,
    SpdMatrix,
    Spectrum,
    compose,
    exp_skew,
    from_natural,
    kl_divergence,
    kl_project,
    index_pairs,
    pair_offset,
    sigma_of_coords,
    spectral_decompose,
    to_natural,
)
from .wishart_sim import (
    MajorizationReport,
    RiskReport,
    RiskResult,
    bias_majorization_check,
    figure4_experiment,
    figure5_experiment,
    figure6_experiment,
    kl_risk,
    replication_rng,
    sample_product_sum,
)
