"""Geometric feature extraction from cleaned point clouds.

Each scan is summarised by 32 values in a fixed, versioned order:

==============================  =====================================
block                           entries
==============================  =====================================
size / volume (6)               length, width, height, bbox_volume,
                                hull_volume, surface_area
shape spectrum (2)              elongation_ratio, flatness_ratio
per-axis percentiles (15)       {x,y,z}_p{10,25,50,75,90}
vertical density (3)            z_density_low / _mid / _high
per-axis moments (6)            {x,y,z}_mean, {x,y,z}_std
==============================  =====================================

Length/width/height are extents along the principal axes sorted
descending, so the size block and the shape spectrum are invariant to
rigid motion (up to eigenvalue degeneracy); percentiles and moments are
deliberately frame-dependent. Surface area and hull volume come from the
convex hull. All statistics use the population convention (divisor N).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import CoplanarCloud, DegenerateCloud, HerdWeightError, TooFewPoints
from .pointcloud import PointCloud, as_points, axis_means, axis_spans, centred, scatter

FEATURE_SCHEMA_VERSION = 1

PERCENTILE_LEVELS = (10.0, 25.0, 50.0, 75.0, 90.0)

_AXES = ("x", "y", "z")

FEATURE_NAMES: tuple[str, ...] = (
    "length",
    "width",
    "height",
    "bbox_volume",
    "hull_volume",
    "surface_area",
    "elongation_ratio",
    "flatness_ratio",
    *(f"{axis}_p{int(p)}" for axis in _AXES for p in PERCENTILE_LEVELS),
    "z_density_low",
    "z_density_mid",
    "z_density_high",
    "x_mean",
    "x_std",
    "y_mean",
    "y_std",
    "z_mean",
    "z_std",
)

# Spectrum collapse guard: ratios blow up past this and poison regression.
_RATIO_GUARD = 1e-12


@dataclass(frozen=True)
class ShapeEigen:
    """Covariance eigenvalues (descending, m^2) and principal axes (rows)."""

    eigenvalues: np.ndarray
    axes: np.ndarray


@dataclass(frozen=True)
class HullSummary:
    """Convex hull volume (m^3), surface area (m^2) and facet counts."""

    volume: float
    surface_area: float
    n_vertices: int
    n_facets: int


@dataclass(frozen=True)
class FeatureVector:
    """The 32 per-scan values, ordered as FEATURE_NAMES."""

    values: np.ndarray
    schema_version: int = field(default=FEATURE_SCHEMA_VERSION)

    def __post_init__(self) -> None:
        vals = np.asarray(self.values, dtype=np.float64)
        if vals.shape != (len(FEATURE_NAMES),):
            raise ValueError(f"expected {len(FEATURE_NAMES)} values, got shape {vals.shape}")
        object.__setattr__(self, "values", vals)

    def as_dict(self) -> dict[str, float]:
        return dict(zip(FEATURE_NAMES, self.values.tolist()))

    def __getitem__(self, name: str) -> float:
        return float(self.values[FEATURE_NAMES.index(name)])


def pca_shape(cloud) -> ShapeEigen:
    """Eigen-decompose the 3x3 sample covariance (divisor N).

    Eigenvalues are sorted descending and clamped at zero; each axis is
    sign-fixed so its largest-magnitude component is positive.
    """
    return _shape(centred(as_points(cloud))[1])


def _shape(rel: np.ndarray) -> ShapeEigen:
    """``pca_shape`` of a cloud from its centred points."""
    if rel.shape[0] < 4:
        raise TooFewPoints(f"shape analysis needs >= 4 points, got {rel.shape[0]}")
    vals, vecs = np.linalg.eigh(scatter(rel))
    order = np.argsort(vals)[::-1]
    vals = np.maximum(vals[order], 0.0)
    axes = vecs[:, order].T
    if vals[0] <= 0.0:
        raise DegenerateCloud("all points coincident; covariance is zero")
    for i in range(3):
        j = int(np.argmax(np.abs(axes[i])))
        if axes[i, j] < 0:
            axes = axes.copy()
            axes[i] = -axes[i]
    return ShapeEigen(eigenvalues=vals, axes=axes)


def oriented_extents(cloud, eig: ShapeEigen) -> tuple[float, float, float]:
    """Extents along the principal axes, sorted so l >= w >= h."""
    spans = np.sort(axis_spans(as_points(cloud) @ eig.axes.T))[::-1]
    return float(spans[0]), float(spans[1]), float(spans[2])


def convex_hull(cloud) -> HullSummary:
    """Exact convex hull summary.

    Volume is the sum of tetrahedra spanned from the hull centroid to each
    triangular facet; surface area is the sum of facet areas. scipy.spatial
    is imported here, not with the module, so that a process that builds no
    hull does not load it.
    """
    from scipy.spatial import ConvexHull, QhullError

    pts = as_points(cloud)
    if pts.shape[0] < 4:
        raise TooFewPoints(f"a 3D hull needs >= 4 points, got {pts.shape[0]}")
    try:
        hull = ConvexHull(pts)
    except QhullError as exc:
        raise CoplanarCloud(f"convex hull is degenerate (coplanar points?): {exc}") from exc
    tri = pts[hull.simplices]  # (F, 3, 3)
    on_hull = np.bincount(hull.simplices.ravel(), minlength=pts.shape[0]).astype(bool)  # unsorted hull.vertices
    centroid = axis_means(pts[on_hull])
    rel = tri - centroid
    volume = float(np.abs(np.einsum("fi,fi->f", rel[:, 0], np.cross(rel[:, 1], rel[:, 2]))).sum() / 6.0)
    area = float(0.5 * np.linalg.norm(np.cross(tri[:, 1] - tri[:, 0], tri[:, 2] - tri[:, 0]), axis=1).sum())
    if volume <= 0.0:
        raise CoplanarCloud("convex hull has zero volume")
    return HullSummary(
        volume=volume,
        surface_area=area,
        n_vertices=int(np.count_nonzero(on_hull)),
        n_facets=int(hull.simplices.shape[0]),
    )


def axis_percentiles(cloud, axis) -> np.ndarray:
    """Percentiles at levels 10/25/50/75/90 along one axis.

    Linear interpolation between order statistics: at level p the rank is
    r = (p/100)(N-1) and the value interpolates the two bracketing sorted
    coordinates.
    """
    pts = as_points(cloud)
    col = _AXES.index(axis) if isinstance(axis, str) else int(axis)
    coords = np.sort(pts[:, col])
    n = coords.size
    out = np.empty(len(PERCENTILE_LEVELS))
    for i, p in enumerate(PERCENTILE_LEVELS):
        rank = (p / 100.0) * (n - 1)
        lo = int(np.floor(rank))
        hi = min(lo + 1, n - 1)
        frac = rank - lo
        out[i] = coords[lo] + frac * (coords[hi] - coords[lo])
    return out


def z_section_densities(cloud) -> tuple[float, float, float]:
    """Fractions of points in three equal-thickness vertical sections.

    Sections split [z_min, z_max] bottom to top; lower boundaries are
    inclusive and the top section also includes z_max. A flat cloud
    (z_max == z_min) reports (1, 0, 0).
    """
    pts = as_points(cloud)
    z = pts[:, 2]
    z_min = float(z.min())
    z_max = float(z.max())
    if z_max == z_min:
        return 1.0, 0.0, 0.0
    span = z_max - z_min
    e1 = z_min + span / 3.0
    e2 = z_min + 2.0 * span / 3.0
    n = z.size
    low = int((z < e1).sum())
    mid = int(((z >= e1) & (z < e2)).sum())
    high = n - low - mid
    return low / n, mid / n, high / n


def moments(cloud) -> tuple[float, float, float, float, float, float]:
    """Per-axis mean and population standard deviation (divisor N)."""
    return _moments(*centred(as_points(cloud)))


def _moments(mean: np.ndarray, rel: np.ndarray) -> tuple[float, float, float, float, float, float]:
    """``moments`` of a cloud from its column means and centred points."""
    std = np.sqrt(axis_means(np.square(rel)))  # pts.std(axis=0), bit for bit
    return (
        float(mean[0]), float(std[0]),
        float(mean[1]), float(std[1]),
        float(mean[2]), float(std[2]),
    )


def _tagged(block: str, exc: HerdWeightError) -> HerdWeightError:
    return type(exc)(f"{block}: {exc}")


def extract_feature_vector(cloud) -> FeatureVector:
    """Assemble all 32 features for one cleaned scan.

    Errors from the individual blocks propagate with the failing block
    named in the message.
    """
    cloud = PointCloud.of_checked(as_points(cloud))  # checked here once, not again by each block
    mean, rel = centred(cloud.points)   # one centring serves the shape and moment blocks
    try:
        eig = _shape(rel)
    except HerdWeightError as exc:
        raise _tagged("shape", exc) from exc
    lam1, lam2, lam3 = eig.eigenvalues
    if lam2 < _RATIO_GUARD * lam1 or lam3 < _RATIO_GUARD * lam1:
        raise DegenerateCloud("shape: eigenvalue spectrum collapsed; ratio features unbounded")

    length, width, height = oriented_extents(cloud, eig)
    bbox_volume = length * width * height
    try:
        hull = convex_hull(cloud)
    except HerdWeightError as exc:
        raise _tagged("hull", exc) from exc

    values = np.concatenate(
        [
            [length, width, height, bbox_volume, hull.volume, hull.surface_area],
            [lam1 / lam2, lam2 / lam3],
            axis_percentiles(cloud, "x"),
            axis_percentiles(cloud, "y"),
            axis_percentiles(cloud, "z"),
            z_section_densities(cloud),
            _moments(mean, rel),
        ]
    )
    return FeatureVector(values=values)
