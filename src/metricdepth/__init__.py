"""Depth statistics for object data living in general metric spaces.

The package computes statistical depths for samples that are described
only by their pairwise distances (correlation matrices, points on
hyperspheres, histograms, plain Euclidean points), estimates deepest
objects in-sample and by box-constrained optimization over coordinate
charts, and runs depth-based permutation inference for grouped data.
"""

__version__ = "0.1.0"

from .core import (
    DistanceMatrix,
    MetricCheckReport,
    check_metric_axioms,
    read_distance_csv,
    write_distance_csv,
)
from .deepest import (
    DeepestResult,
    OptimizerConfig,
    PcaModel,
    cholesky_decode,
    cholesky_encode,
    deepest_in_sample,
    deepest_out_of_sample,
    optimize_box,
    pca_decode,
    pca_encode,
    pca_fit,
)
from .depths import (
    DepthMethod,
    DepthReport,
    depth_of_query,
    depth_values,
    mod3_depth_subsampled,
)
from .errors import (
    DegenerateDecodeError,
    InsufficientSampleError,
    InvalidArgumentError,
    MetricViolationError,
    NotPositiveDefiniteError,
)
from .inference import (
    PermutationReport,
    SwapExperimentReport,
    label_swap_experiment,
    permutation_test,
)
from .simulation import (
    CorrSimConfig,
    ExperimentReport,
    SphereSimConfig,
    gen_correlation_sample,
    gen_histogram_groups,
    gen_sphere_sample,
    random_orthogonal,
    run_location_experiment,
)
from .spaces import (
    CorrelationMatrix,
    EuclideanPoint,
    Histogram,
    ObjectSet,
    UnitVector,
    distance_matrix,
    dump_objects,
    euclidean_distance,
    load_histogram_csv,
    load_objects,
    query_distances,
    spd_distance,
    sphere_distance,
    wasserstein2_distance,
)

__all__ = [name for name in dir() if not name.startswith("_")]
