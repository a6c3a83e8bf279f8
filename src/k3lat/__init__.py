"""Exact lattice, quadratic-form and CM-field computations behind the
finiteness counts for polarized K3 surfaces.  ``import k3lat`` loads no
submodule: a public name loads its home module on first access (PEP 562)."""

import importlib

__version__ = "0.1.0"
SCHEMA = "k3lat/1"  # the version of every JSON document: CLI envelopes, cache, certificates

# home module -> the public names it defines
_EXPORTS = {
    "arith": "DomainError",
    "census": "MinusTwoResult TwistorCount UnboundedFamilyCertificate build_unbounded_family"
              " certificate_from_json certificate_to_json count_integral_twistor_classes"
              " has_minus_two_class verify_certificate write_certificate",
    "cm": "CMElement CMField PeriodEmbedding PeriodVector enumerate_bounded_integers"
          " enumerate_period_embeddings is_root_of_unity pairing_sigma_sigmabar"
          " solve_lambda verify_norm_equation",
    "enumeration": "EmbeddingMatrix IsometrySearchResult OrbitInvariant embeddings"
                   " indefinite_isometry_search is_isometric_definite orbit_invariant"
                   " vectors_of_norm",
    "formulas": "fm_partner_count max_root_of_unity_order tau twistor_fiber_bound",
    "forms": "BinaryForm FormClassGroup class_group compose dirichlet_class_number"
             " form_to_lattice is_equivalent reduce_form verify_principal_genus",
    "genus": "GenusBlock GenusSymbol padic_symbol same_genus",
    "lattice": "Lattice LatticeError",
}
_HOME = {name: module for module, names in _EXPORTS.items() for name in names.split()}
_MODULES = {*_EXPORTS, "cli", "linalg"}
__all__ = sorted(_HOME)


def __getattr__(name: str):
    if name in _HOME:
        return getattr(importlib.import_module(f"{__name__}.{_HOME[name]}"), name)
    if name in _MODULES:
        return importlib.import_module(f"{__name__}.{name}")
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__, *_MODULES})
