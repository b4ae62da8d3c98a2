"""The package's public names: what the CLI and the paper's claims use."""

from __future__ import annotations

import importlib

import hermix

MODULES = ("errors", "graphs", "phases", "spectra", "expansion", "monographs", "cospectral")

PUBLIC_NAMES = [
    "ALPHA_GAMMA",
    "ALPHA_I",
    "ALPHA_OMEGA",
    "ALPHA_ONE",
    "ArcBalance",
    "AttachDirection",
    "Attachment",
    "CospectralReport",
    "DegreeProfile",
    "EigenBasis",
    "FundamentalCycleBasis",
    "GraphFormatError",
    "InvalidWalkError",
    "MixedGraph",
    "MonographCertificate",
    "MonographKind",
    "NotMonographError",
    "NumericalError",
    "Phase",
    "RadiusReport",
    "ScaleLimitError",
    "SimpleCycle",
    "StoreDescriptor",
    "StructuralFlags",
    "__version__",
    "arc_balance",
    "build_hermitian",
    "char_poly",
    "char_poly_expansion",
    "compute_store",
    "connected_components",
    "degree_profile",
    "eigen_decomposition",
    "enumerate_mixed_graphs",
    "enumerate_simple_cycles",
    "even_arc_condition",
    "every_alpha_monograph",
    "extend_monograph",
    "fundamental_cycles",
    "is_monograph",
    "make_alpha",
    "mixed_graph_from_code",
    "monograph_partition",
    "negated_spectrum_check",
    "numeric_cospectral",
    "oriented_bipartite",
    "parse_graph",
    "radius_equality_analysis",
    "rotation_cos",
    "rotation_sin",
    "search_cospectral",
    "serialize_graph",
    "spectral_radius",
    "transfer_eigenvectors",
    "verify_eigenpair",
    "walk_value_g",
    "walk_value_h",
]


def test_package_exports_exactly_the_module_exports():
    modules = set().union(*(importlib.import_module(f"hermix.{m}").__all__ for m in MODULES))
    assert set(hermix.__all__) - {"__version__"} == modules
    assert len(hermix.__all__) == len(set(hermix.__all__))


def test_every_public_name_exists():
    for name in hermix.__all__:
        assert hasattr(hermix, name), name


def test_public_names_are_pinned():
    assert sorted(hermix.__all__) == PUBLIC_NAMES
