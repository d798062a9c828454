"""Exact computation with finitely generated nilpotent groups.

Groups enter as polycyclic presentations with power and commutator tails;
the package provides normal-form arithmetic, canonical subgroup series,
bilinearization with its largest ring of scalars, abelian deformation
families with their extension classes, and certified homomorphisms between
presentations. Run `nilpc --help` for the command-line entry points.

Exports load on first use (PEP 562): `nilpc.load` imports only `files` and
`presentation`, and a submodule such as `nilpc.subgroups` resolves the same
way.
"""

from importlib import import_module

# each module and the names the package exports from it; cli and intlinalg
# export none, but resolve as submodules like the others
_EXPORTS = {
    "abelian": ("FgAbelian", "abelianization", "isolator", "torsion_subgroup"),
    "bilinear": ("AssociatedSeries", "Bilinearization", "SeriesError",
                 "associated_series", "bilinearize"),
    "cli": (),
    "deformation": ("AdaptedPresentation", "DeformationSurvey", "DeformError",
                    "ExtClass", "abdef", "adapt_basis",
                    "enumerate_deformations", "ext_class",
                    "standard_embedding", "twisted_embedding"),
    "files": ("FileFormatError", "emit", "load", "load_fixture",
              "fixture_names", "parse", "save"),
    "intlinalg": (),
    "morphisms": ("GroupHom", "HomError", "InvariantReport", "compose",
                  "evaluate", "hom_from_images", "identity_hom",
                  "image_index", "invariant_report", "is_inverse_pair",
                  "spot_check"),
    "presentation": ("ConsistencyReport", "PcPresentation",
                     "PresentationError", "commutator", "consistency_check",
                     "generator", "identity_element", "inverse", "multiply",
                     "normal_form", "power"),
    "refined": ("ChainAction", "RefinedSeries", "refined_series"),
    "scalars": ("Pairing", "ScalarRing", "ScalarRingError",
                "multiplication_pairing", "pairing_of",
                "prime_decomposition_zero", "scalar_ring"),
    "series": ("KeySubgroups", "key_subgroups"),
    "subgroups": ("Subgroup", "SubgroupError", "center", "induce",
                  "lower_central_series", "upper_central_series",
                  "whole_subgroup"),
}
_OWNER = {name: module for module, names in _EXPORTS.items()
          for name in names}

__all__ = ["__version__", *_OWNER]

__version__ = "0.1.0"


def __getattr__(name):
    if name in _OWNER:
        value = getattr(import_module(f".{_OWNER[name]}", __name__), name)
    elif name in _EXPORTS:
        value = import_module(f".{name}", __name__)
    else:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    globals()[name] = value
    return value


def __dir__():
    return sorted({*globals(), *_EXPORTS, *_OWNER})
