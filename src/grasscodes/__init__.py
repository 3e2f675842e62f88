"""Linear codes in the Grassmann graph.

Classify [n,k]-codes over GF(q) by dual minimum distance, build the
Grassmann graph and its strength-t induced subgraph, construct geodesic
paths and opposite codes, and run exhaustive desk-scale verification
sweeps of the structural theorems behind those constructions.
"""

from .gf import FieldCtx, field_new, field_of_order
from .linalg import (
    MatrixGF,
    Subspace,
    intersect,
    kernel,
    q_int,
    rref,
    subspace_count,
    subspace_sum,
)
from .codes import (
    LinearCode,
    MonomialMap,
    apply_monomial,
    classify,
    coordinate_subspace,
    dual,
    dual_min_distance,
    has_strength,
    min_distance,
    parse_generator,
    format_generator,
    strength,
)
from .construct import (
    geodesic_path,
    opposite_code,
    shrink,
    step_toward,
    vandermonde_mds,
)
from .grassmann import (
    build_delta,
    diameter_and_connectivity,
    enumerate_subspaces,
    grassmann_distance,
    isometry_check,
)

__all__ = [
    "FieldCtx",
    "field_new",
    "field_of_order",
    "MatrixGF",
    "Subspace",
    "rref",
    "kernel",
    "intersect",
    "subspace_sum",
    "q_int",
    "subspace_count",
    "LinearCode",
    "MonomialMap",
    "apply_monomial",
    "classify",
    "coordinate_subspace",
    "dual",
    "dual_min_distance",
    "has_strength",
    "min_distance",
    "strength",
    "parse_generator",
    "format_generator",
    "vandermonde_mds",
    "step_toward",
    "shrink",
    "geodesic_path",
    "opposite_code",
    "enumerate_subspaces",
    "build_delta",
    "grassmann_distance",
    "diameter_and_connectivity",
    "isometry_check",
]
