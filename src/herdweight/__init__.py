"""Live-weight estimation from 3D point-cloud scans.

The pipeline: load a scan, strip planar background with seeded RANSAC,
summarise the animal with 32 geometric features, and predict live weight
with a ranked stacked ensemble of classical regressors. A standalone
agreement-weighted multi-view fusion kernel (with a surrogate trajectory
simulator) handles combining per-view latent updates.
"""

__version__ = "0.1.0"

from .cleaning import PlaneModel, RansacParams, fit_plane_ransac, remove_planes, segment_planes
from .dataset import HerdDataset, load_dataset_csv, save_dataset_csv
from .evaluation import (
    FoldAssignment,
    MetricReport,
    compute_metrics,
    cross_validate,
    ensemble_size_sweep,
    kfold_split,
)
from .features import (
    FEATURE_NAMES,
    FEATURE_SCHEMA_VERSION,
    FeatureVector,
    HullSummary,
    ShapeEigen,
    axis_percentiles,
    convex_hull,
    extract_feature_vector,
    moments,
    oriented_extents,
    pca_shape,
    z_section_densities,
)
from .fusion import (
    FusionParams,
    FusionResult,
    SimulationConfig,
    TrajectoryTrace,
    ViewUpdateSet,
    agreement_fuse,
    average_fuse,
    consensus_center,
    constant_schedule,
    deviations,
    geometric_schedule,
    simulate_trajectory,
)
from .pointcloud import (
    FORMATS,
    PointCloud,
    detect_format,
    load_point_cloud,
    save_point_cloud,
)
from .regressors import ModelSpec, default_model_specs, fit
from .stacking import (
    ModelRanking,
    StackedEnsemble,
    fit_stack,
    inner_pass,
    predict_stack,
    rank_base_models,
)

__all__ = [
    "__version__",
    "PlaneModel", "RansacParams", "fit_plane_ransac", "remove_planes", "segment_planes",
    "HerdDataset", "load_dataset_csv", "save_dataset_csv",
    "FoldAssignment", "MetricReport", "compute_metrics", "cross_validate",
    "ensemble_size_sweep", "kfold_split",
    "FEATURE_NAMES", "FEATURE_SCHEMA_VERSION", "FeatureVector", "HullSummary", "ShapeEigen",
    "axis_percentiles", "convex_hull", "extract_feature_vector", "moments",
    "oriented_extents", "pca_shape", "z_section_densities",
    "FusionParams", "FusionResult", "SimulationConfig", "TrajectoryTrace", "ViewUpdateSet",
    "agreement_fuse", "average_fuse", "consensus_center", "constant_schedule",
    "deviations", "geometric_schedule", "simulate_trajectory",
    "FORMATS", "PointCloud", "detect_format", "load_point_cloud", "save_point_cloud",
    "ModelSpec", "default_model_specs", "fit",
    "ModelRanking", "StackedEnsemble", "fit_stack", "inner_pass", "predict_stack", "rank_base_models",
]
