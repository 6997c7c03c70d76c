"""Exact graded dimension counts for a stagewise filtration of the
unoriented cobordism ring: the degree/stage bijection, Thom-complex
series, and cup-construction recipes for every polynomial generator,
with brute-force verification oracles.
"""

from .checks import (
    CheckReport,
    Discrepancy,
    partition_dp,
    verify_bijection,
    verify_main_theorem,
    verify_quotient_steps,
    verify_simple_systems,
)
from .degrees import (
    BASE,
    ExcludedDegreeError,
    StageTriple,
    compose,
    decompose,
    is_excluded,
    stages_up_to_degree,
)
from .manifolds import (
    CupRecipe,
    Justification,
    expand,
    indecomposable,
    stage_recipe,
)
from .series import (
    U64_MAX,
    AlgebraSpec,
    TruncatedSeries,
    series_of,
    simple_system_series,
)
from .spaces import (
    adams_homotopy_series,
    stage_generator_degrees,
    steenrod_series,
    thom_homology_series,
)

__version__ = "0.1.0"
