"""dimerlab: GL_m-dimer models of polygon triangulations and the machinery
to verify that every triangulation yields the same boundary quiver."""

from .polygon import (
    FlipMove,
    IncompatiblePolygonsError,
    InvalidPolygonError,
    PolygonError,
    Triangulation,
    UnknownDiagonalError,
    apply_moves,
    enumerate_triangulations,
    fan_triangulation,
    flip,
    flip_sequence,
    rotate,
)
from .dimer import (
    AsymmetricRotationError,
    GLmDimer,
    UnsupportedOrderError,
    build_dimer,
    reduce_dimer,
    validate_dimer,
)
from .quiver import (
    MalformedQuiverError,
    MustReduceFirstError,
    NoCycleError,
    QuiverWithFaces,
    chordless_cycle_at,
    dual_quiver,
    p2,
    potential_relations,
    validate_dimer_model,
)
from .rewrite import (
    DISTINCT,
    EQUAL,
    UNKNOWN,
    EqualityVerdict,
    IncomparablePathsError,
    Path,
    RelationSet,
    SearchBudget,
    paths_equal,
    replay_certificate,
)
from .boundary import (
    BoundaryPresentation,
    FlipTransportCertificate,
    FormulaMismatchError,
    GammaQuiver,
    IncompatibleGammaError,
    InconclusivePresentationError,
    boundary_generators,
    build_gamma,
    check_fan_formulas,
    fan_generator_paths,
    fan_m2_structure_report,
    match_gamma,
    verify_boundary_algebra,
    verify_central_element,
    verify_flip_transport,
    verify_theorem_relations,
)

__version__ = "0.1.0"
