"""Exact computation with finitely generated nilpotent groups.

Groups enter as polycyclic presentations with power and commutator tails;
the package provides normal-form arithmetic, canonical subgroup series,
bilinearization with its largest ring of scalars, abelian deformation
families with their extension classes, and certified homomorphisms between
presentations. Run `nilpc --help` for the command-line entry points.
"""

from .abelian import FgAbelian, abelianization, isolator, torsion_subgroup
from .bilinear import (
    AssociatedSeries,
    Bilinearization,
    SeriesError,
    associated_series,
    bilinearize,
)
from .deformation import (
    AdaptedPresentation,
    DeformationSurvey,
    DeformError,
    ExtClass,
    abdef,
    adapt_basis,
    enumerate_deformations,
    ext_class,
    standard_embedding,
    twisted_embedding,
)
from .files import (
    FileFormatError,
    emit,
    load,
    load_fixture,
    fixture_names,
    parse,
    save,
)
from .morphisms import (
    GroupHom,
    HomError,
    InvariantReport,
    compose,
    evaluate,
    hom_from_images,
    identity_hom,
    image_index,
    invariant_report,
    is_inverse_pair,
    spot_check,
)
from .presentation import (
    ConsistencyReport,
    PcPresentation,
    PresentationError,
    commutator,
    consistency_check,
    generator,
    identity_element,
    inverse,
    multiply,
    normal_form,
    power,
)
from .refined import ChainAction, RefinedSeries, refined_series
from .scalars import (
    Pairing,
    ScalarRing,
    ScalarRingError,
    multiplication_pairing,
    pairing_of,
    prime_decomposition_zero,
    scalar_ring,
)
from .series import KeySubgroups, key_subgroups
from .subgroups import (
    Subgroup,
    SubgroupError,
    center,
    induce,
    lower_central_series,
    upper_central_series,
    whole_subgroup,
)

__all__ = [
    "__version__",
    "AdaptedPresentation", "AssociatedSeries", "Bilinearization",
    "ChainAction", "ConsistencyReport", "DeformError", "DeformationSurvey",
    "ExtClass", "FgAbelian", "FileFormatError", "GroupHom", "HomError",
    "InvariantReport", "KeySubgroups", "Pairing", "PcPresentation",
    "PresentationError", "RefinedSeries", "ScalarRing", "ScalarRingError",
    "SeriesError", "Subgroup", "SubgroupError",
    "abdef", "abelianization", "adapt_basis", "associated_series",
    "bilinearize", "center", "commutator", "compose", "consistency_check",
    "emit", "enumerate_deformations", "evaluate", "ext_class",
    "fixture_names", "generator", "hom_from_images", "identity_element",
    "identity_hom", "image_index", "induce", "invariant_report", "inverse",
    "is_inverse_pair", "isolator", "key_subgroups", "load", "load_fixture",
    "lower_central_series", "multiplication_pairing", "multiply",
    "normal_form", "pairing_of", "parse", "power", "prime_decomposition_zero",
    "refined_series", "save", "scalar_ring",
    "spot_check", "standard_embedding",
    "torsion_subgroup", "twisted_embedding", "upper_central_series",
    "whole_subgroup",
]

__version__ = "0.1.0"
