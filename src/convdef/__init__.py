"""Exact deformation theory of associative algebras over coalgebra extensions."""

from .errors import (
    CocycleViolation,
    ConvDefError,
    EmptyLayer,
    FieldMismatch,
    NoFiltration,
    NotAnExtension,
    NotCocommutative,
    NotCompletelyReducible,
    NotInvertible,
    NotRankOne,
    NotUnital,
    RetractNotNormalized,
    ShapeError,
    SpecFileError,
    SpecMismatch,
    UnsupportedCoaction,
    UnsupportedSearch,
)
from .fields import QQ, PrimeField, RationalField, field_by_name
from .linalg import (
    SparseMatrix,
    Subspace,
    rref,
)
from .coalgebra import (
    Coalgebra,
    CoalgebraReport,
    GroupLikeSet,
    divided_power_t,
    find_grouplikes,
    grouplike_coalgebra,
    polynomial_multi,
    trivial_k,
)
from .extension import (
    Cocycle2,
    Comodule,
    Extension,
    build_extension,
    decompose_completely_reducible,
    graded_extension,
    grouplike_comodule,
    split_extension,
)
from .convolution import (
    ConvMorphism,
    MultiMap,
    congruent_mod,
    conv_compose,
    conv_tensor,
    epsilon_embed,
    identity_conv,
    pullback,
    takeuchi_invert,
)
from .cohomology import (
    Cochain,
    CohomologyResult,
    ComplexSpec,
    ProductDecomposition,
    Rank1Reduction,
    hochschild_dims,
    hochschild_spec,
    is_associative,
    product_decompose,
    rank1_reduce,
)
from .deformation import (
    AlgebraMC,
    ClassifyResult,
    Deformation,
    DeformationReport,
    SeriesBranch,
    SeriesResult,
    SeriesStep,
    UnitGaugeResult,
    classify,
    gauge_transport,
    is_unit_of,
    make_deformation,
    mc_solve,
    obstruction_zeta,
    series_deform,
    unit_gauge,
)

__all__ = [name for name in dir() if not name.startswith("_")]
__version__ = "0.1.0"
