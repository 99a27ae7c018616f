"""rankr: numerical geometry of SL(n,R)/SO(n) and its discrete subgroups.

Matrix decompositions, the flag boundary, isometry classification,
constructive ping-pong (Schottky) groups with sampled certification, and
limit-set experiments, for 2 <= n <= 8.
"""

from . import (
    boundary,
    decompositions,
    defaults,
    errors,
    isometries,
    kernel,
    lie,
    limitset,
    plotting,
    schottky,
)
from .boundary import (
    BoundaryPoint,
    Flag,
    boundary_point,
    busemann,
    directional_distance,
    flag_distance,
    flag_from_frame,
    flag_frame,
    standard_flag,
    transverse,
)
from .decompositions import (
    KAK,
    KAN,
    bruhat_cell,
    cartan_decompose,
    cartan_vector,
    iwasawa,
    point_distance,
)
from .isometries import (
    IsometryClass,
    JordanParts,
    classify,
    contraction_factor,
    fixed_points,
    jordan_decompose,
    translation_vector,
)
from .limitset import (
    SampleSet,
    cone_theorem_check,
    directional_sample,
    enumerate_samples,
    limit_cone_sample,
)
from .schottky import (
    CertificationReport,
    PingPongTable,
    build_table,
    certify_klein,
    check_nonelementary,
    make_axial,
    make_generic_parabolic,
)

__version__ = "0.1.0"

__all__ = [
    "boundary",
    "decompositions",
    "defaults",
    "errors",
    "isometries",
    "kernel",
    "lie",
    "limitset",
    "plotting",
    "schottky",
    "BoundaryPoint",
    "Flag",
    "boundary_point",
    "busemann",
    "directional_distance",
    "flag_distance",
    "flag_from_frame",
    "flag_frame",
    "standard_flag",
    "transverse",
    "KAK",
    "KAN",
    "bruhat_cell",
    "cartan_decompose",
    "cartan_vector",
    "iwasawa",
    "point_distance",
    "IsometryClass",
    "JordanParts",
    "classify",
    "contraction_factor",
    "fixed_points",
    "jordan_decompose",
    "translation_vector",
    "SampleSet",
    "cone_theorem_check",
    "directional_sample",
    "enumerate_samples",
    "limit_cone_sample",
    "CertificationReport",
    "PingPongTable",
    "build_table",
    "certify_klein",
    "check_nonelementary",
    "make_axial",
    "make_generic_parabolic",
    "__version__",
]
