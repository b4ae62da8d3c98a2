"""Spectra of mixed graphs through unit-phase Hermitian adjacency matrices.

A mixed graph carries undirected edges (digons) and directed edges (arcs).
Fixing a unit complex number alpha turns it into a Hermitian matrix: digons
contribute 1, arcs contribute alpha one way and its conjugate the other.
This package builds those matrices, computes their spectra two independent
ways, decides when all cycle phases collapse (the monograph property, in
two kinds), and probes when two different phases give the same spectrum.
"""

from .errors import (
    GraphFormatError,
    InvalidWalkError,
    NotMonographError,
    NumericalError,
    ScaleLimitError,
)
from .graphs import (
    DegreeProfile,
    FundamentalCycleBasis,
    MixedGraph,
    SimpleCycle,
    connected_components,
    degree_profile,
    enumerate_simple_cycles,
    fundamental_cycles,
    parse_graph,
    serialize_graph,
)
from .phases import (
    ALPHA_GAMMA,
    ALPHA_I,
    ALPHA_OMEGA,
    ALPHA_ONE,
    ArcBalance,
    Phase,
    arc_balance,
    make_alpha,
    rotation_cos,
    rotation_sin,
    walk_value_g,
    walk_value_h,
)
from .spectra import (
    EigenBasis,
    build_hermitian,
    char_poly,
    eigen_decomposition,
    spectral_radius,
    verify_eigenpair,
)
from .expansion import char_poly_expansion
from .monographs import (
    AttachDirection,
    Attachment,
    MonographCertificate,
    MonographKind,
    RadiusReport,
    StoreDescriptor,
    compute_store,
    every_alpha_monograph,
    extend_monograph,
    is_monograph,
    monograph_partition,
    negated_spectrum_check,
    radius_equality_analysis,
    transfer_eigenvectors,
)
from .cospectral import (
    CospectralReport,
    StructuralFlags,
    enumerate_mixed_graphs,
    even_arc_condition,
    mixed_graph_from_code,
    numeric_cospectral,
    oriented_bipartite,
    search_cospectral,
)

__version__ = "0.1.0"

__all__ = [
    "__version__",
    "GraphFormatError",
    "InvalidWalkError",
    "NotMonographError",
    "NumericalError",
    "ScaleLimitError",
    "DegreeProfile",
    "FundamentalCycleBasis",
    "MixedGraph",
    "SimpleCycle",
    "connected_components",
    "degree_profile",
    "enumerate_simple_cycles",
    "fundamental_cycles",
    "parse_graph",
    "serialize_graph",
    "ALPHA_GAMMA",
    "ALPHA_I",
    "ALPHA_OMEGA",
    "ALPHA_ONE",
    "ArcBalance",
    "Phase",
    "arc_balance",
    "make_alpha",
    "rotation_cos",
    "rotation_sin",
    "walk_value_g",
    "walk_value_h",
    "EigenBasis",
    "build_hermitian",
    "char_poly",
    "eigen_decomposition",
    "spectral_radius",
    "verify_eigenpair",
    "char_poly_expansion",
    "AttachDirection",
    "Attachment",
    "MonographCertificate",
    "MonographKind",
    "RadiusReport",
    "StoreDescriptor",
    "compute_store",
    "every_alpha_monograph",
    "extend_monograph",
    "is_monograph",
    "monograph_partition",
    "negated_spectrum_check",
    "radius_equality_analysis",
    "transfer_eigenvectors",
    "CospectralReport",
    "StructuralFlags",
    "enumerate_mixed_graphs",
    "even_arc_condition",
    "mixed_graph_from_code",
    "numeric_cospectral",
    "oriented_bipartite",
    "search_cospectral",
]
