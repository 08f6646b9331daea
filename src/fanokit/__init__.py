"""fanokit: numerical toolkit for diffusion-style reconstruction bounds.

Given how much information an observation carries about a source, these
bounds limit how often any estimator can land inside an acceptable
reconstruction set. The package covers finite alphabets (exact enumeration,
grid sweeps) and continuous domains (volume ratios), with a `fano` CLI on
top.
"""

from .bounds import (
    BoundInputs,
    BoundReport,
    check_kl_diffusion,
    check_renyi_diffusion,
    continuous_fano_bound,
    distance_fano_bound,
    entropy_version_bound,
    fano_relation_bound,
    mi_distance_bound,
    reports_to_csv,
    solve_diffusion,
)
from .chains import (
    ChainSummary,
    ChannelEstimator,
    Experiment,
    MapEstimator,
    MLEstimator,
    certify,
    compute_beta,
    enumerate_chain,
    independent_samples_bound,
    random_experiment,
    simulate_chain,
)
from .distributions import (
    Channel,
    FiniteDistribution,
    JointDistribution,
    event_probability,
    joint_from_prior_and_channel,
    make_distribution,
    marginals,
    product_channel,
    product_of_marginals,
    uniform_distribution,
)
from .divergences import (
    binary_entropy,
    binary_kl,
    binary_renyi_divergence,
    binary_renyi_entropy,
    conditional_entropy,
    entropy,
    kl_divergence,
    mutual_information,
    renyi_divergence,
)
from .errors import FanoError
from .relations import (
    ContinuousDomain,
    DistanceRelation,
    Relation,
    RelationBounds,
    ball_counts,
    equality_relation,
    metric_from_name,
    relation_bounds,
    relation_from_pairs,
    resolve_volume_method,
    sup_ball_volume,
    table_metric,
)
from .verify import (
    SweepSpec,
    SweepSummary,
    sweep_diffusion,
    verify_limit,
    verify_power_sum,
    verify_support_bound,
)

__version__ = "0.1.0"
