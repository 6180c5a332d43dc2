"""Certification toolkit for quantum symmetry of distance-regular graphs.

The package builds the classical distance-transitive graph families,
computes their combinatorial invariants and automorphism groups, and
runs a rule engine that certifies, class by class, that a graph has no
quantum symmetry, or proves that it has some by two disjoint
automorphisms.  Certificates are self-contained and re-verifiable by an
independent audit.
"""

from .autgroup import (
    AutGroup,
    SearchBudgetExceeded,
    automorphism_group,
    is_distance_transitive,
)
from .certify import (
    INCONCLUSIVE,
    Application,
    AuditResult,
    Certificate,
    audit,
    certify,
    certify_via_complement,
    transfer_certificate,
)
from .drg import (
    IntersectionArray,
    NotDistanceRegular,
    SrgParams,
    intersection_array,
    is_distance_regular,
    k_sequence,
    srg_params,
)
from .expected import HAS_QSYM, NO_QSYM, UNKNOWN, load_tables
from .families import FAMILIES, FamilySpec, build, label_for, list_named, parse_family
from .graph import (
    DisconnectedGraphError,
    DistanceData,
    Graph,
    bipartite_complement,
    cartesian_product,
    clique_number,
    complement,
    distances,
    from_edge_list,
    girth,
    is_connected,
    line_graph,
)
from .io import from_edge_text, from_graph6, read_graph, to_edge_text, to_graph6, write_graph
from .tables import TablesReport, family_array, reproduce_tables

__version__ = "1.0.0"

__all__ = [
    "Application",
    "AuditResult",
    "AutGroup",
    "Certificate",
    "DisconnectedGraphError",
    "DistanceData",
    "FAMILIES",
    "FamilySpec",
    "Graph",
    "HAS_QSYM",
    "INCONCLUSIVE",
    "IntersectionArray",
    "NO_QSYM",
    "NotDistanceRegular",
    "SearchBudgetExceeded",
    "SrgParams",
    "TablesReport",
    "UNKNOWN",
    "audit",
    "automorphism_group",
    "bipartite_complement",
    "build",
    "cartesian_product",
    "certify",
    "certify_via_complement",
    "clique_number",
    "complement",
    "distances",
    "family_array",
    "from_edge_list",
    "from_edge_text",
    "from_graph6",
    "girth",
    "intersection_array",
    "is_connected",
    "is_distance_regular",
    "is_distance_transitive",
    "k_sequence",
    "label_for",
    "line_graph",
    "list_named",
    "load_tables",
    "parse_family",
    "read_graph",
    "reproduce_tables",
    "srg_params",
    "to_edge_text",
    "to_graph6",
    "transfer_certificate",
    "write_graph",
]
