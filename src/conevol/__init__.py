"""Exact combinatorics and Monte Carlo intrinsic volumes for polyhedral
cones and central hyperplane arrangements."""

from .arrangement import (
    Arrangement,
    BiPolynomial,
    Flat,
    IntersectionLattice,
    Polynomial,
    Region,
    bivariate_poly,
    char_poly,
    chambers,
    cover_efron_expected_iv,
    expected_statdim_family,
    family_level_char,
    generic_level_char,
    intersection_lattice,
    level_char_poly,
    named_family,
    regions_j,
    restriction,
    zaslavsky_count,
)
from .cone import (
    Cone,
    Face,
    FaceLattice,
    canonical_decomposition,
    cone_from_generators,
    cone_from_inequalities,
    congruence_key,
    face_lattice,
    farkas_check,
    intersect,
    minkowski_sum,
    normal_face,
    polar,
    transverse,
)
from .exactlin import (
    Subspace,
    kernel,
    lp_strictly_feasible,
    orthogonal_complement,
    rref,
)
from .volumes import (
    IVEstimate,
    IVExact,
    SampleConfig,
    estimate_iv,
    exact_iv,
    external_angle,
    grassmann_angles,
    haar_rotation,
    internal_angle,
    iv_polynomial,
    moreau_project,
    solid_angle,
    statdim_mc,
    statistical_dimension,
    tangent_cone,
)

__version__ = "0.1.0"
