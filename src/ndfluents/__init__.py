"""Rewrite annotated RDF statements as contextual parts and back.

A statement annotated with contexts (a temporal interval, a provenance
activity, ...) is represented by minting *contextual parts* of its subject
and object, typing them per dimension, linking them to the original
entities with partOf properties and to the context individuals with extent
properties, and asserting the statement between the parts. Three models
combine multiple dimensions: part chains (contexts-in-context), one part
per context set (multi-context, the default), and a single combined
context individual (combined-extent). The package also generates the
matching ontology modules, validates the structural pattern, saturates
graphs under a small axiom algebra, and answers context-scoped aggregate
queries.
"""

from __future__ import annotations

from .config import Config, ConfigError, default_config, load_config
from .contextualize import (
    AnnotatedStatement,
    CombinationModel,
    ContextAssignment,
    MintingPolicy,
    PatternError,
    SizeRow,
    annotate,
    contextualize,
    decontextualize,
    encode_reification,
    encode_singleton,
    related_property_iri,
    size_report,
)
from .formats import (
    FormatError,
    read_annotated_nquads,
    read_statements_csv,
    write_annotated_nquads,
    write_statements_csv,
)
from .ingest import (
    EstimateRow,
    IngestError,
    IngestResult,
    ingest_csv,
    ingest_rows,
    read_estimate_rows,
)
from .parser import (
    NQUADS,
    NTRIPLES,
    TURTLE,
    ParseError,
    RelativeIriError,
    parse,
    parse_nquads,
    parse_ntriples,
    parse_turtle,
)
from .query import (
    Aggregate,
    Pattern,
    QueryError,
    ResultTable,
    TriplePattern,
    Variable,
    context_slice,
    match,
    parse_pattern,
)
from .reasoner import InferenceResult, Violation, saturate, validate
from .serializer import canonicalize, serialize
from .terms import (
    RDF,
    RDF_TYPE,
    RDFS,
    OWL,
    XSD,
    BlankNode,
    Graph,
    InputError,
    Iri,
    Literal,
    Namespace,
    Triple,
)
from .vocabulary import (
    CORE,
    Axiom,
    ContextDimension,
    CoreVocabulary,
    DimensionRegistry,
    axioms_from_graph,
    axioms_to_graph,
    combine_dimensions,
    conventional_dimension,
    core_axioms,
    datatype_axioms,
    default_registry,
    dimension_module,
    dimension_restriction_axioms,
    provenance_dimension,
    related_contextual_property,
    temporal_dimension,
)

__version__ = "0.1.0"

__all__ = [
    "AnnotatedStatement",
    "Aggregate",
    "Axiom",
    "BlankNode",
    "CORE",
    "CombinationModel",
    "Config",
    "ConfigError",
    "ContextAssignment",
    "ContextDimension",
    "CoreVocabulary",
    "DimensionRegistry",
    "EstimateRow",
    "FormatError",
    "Graph",
    "InferenceResult",
    "InputError",
    "IngestError",
    "IngestResult",
    "Iri",
    "Literal",
    "MintingPolicy",
    "NQUADS",
    "NTRIPLES",
    "Namespace",
    "OWL",
    "ParseError",
    "Pattern",
    "PatternError",
    "QueryError",
    "RDF",
    "RDFS",
    "RDF_TYPE",
    "RelativeIriError",
    "ResultTable",
    "SizeRow",
    "TURTLE",
    "Triple",
    "TriplePattern",
    "Variable",
    "Violation",
    "XSD",
    "annotate",
    "axioms_from_graph",
    "axioms_to_graph",
    "canonicalize",
    "combine_dimensions",
    "context_slice",
    "contextualize",
    "conventional_dimension",
    "core_axioms",
    "datatype_axioms",
    "decontextualize",
    "default_config",
    "default_registry",
    "dimension_module",
    "dimension_restriction_axioms",
    "encode_reification",
    "encode_singleton",
    "ingest_csv",
    "ingest_rows",
    "load_config",
    "match",
    "parse",
    "parse_nquads",
    "parse_ntriples",
    "parse_pattern",
    "parse_turtle",
    "provenance_dimension",
    "read_annotated_nquads",
    "read_estimate_rows",
    "read_statements_csv",
    "related_contextual_property",
    "related_property_iri",
    "saturate",
    "serialize",
    "size_report",
    "temporal_dimension",
    "validate",
    "write_annotated_nquads",
    "write_statements_csv",
]
