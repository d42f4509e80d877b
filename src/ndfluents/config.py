"""Declarative run configuration (INI key/value format).

One file captures everything a run needs so it is reproducible from a
single artifact: the core namespace, the registered dimensions, the
combination model, the minting policy, and the option flags. All sections
and keys are optional; an empty file yields the recommended defaults
(temporal + provenance dimensions, one part per context set, datatype
axioms on, restriction axioms on, same-extent checking on).

Example::

    [core]
    namespace = http://purl.org/NET/ndfluents#
    model = multi-context          ; or contexts-in-context / combined-extent
    ; nesting_order = temporal, provenance   (contexts-in-context only)
    predicate_mode = keep          ; or subproperty / related
    datatype_axioms = true
    restriction_axioms = true
    same_extent_check = true

    [minting]
    mode = suffix                  ; or hash
    separator = @
    context_base = http://purl.org/NET/ndfluents/context#

    [dimension.temporal]
    part_class = http://example.org/Slice   ; the other five IRIs stay 4dFluents'

Each ``[dimension.<name>]`` section takes a ``base`` namespace plus six
per-term IRI overrides (``part_class``, ``context_class``, ``part_of``,
``extent``, ``contextual_property``, ``contextual_data_property``). A
well-known name (``temporal``, ``provenance``) with no ``base`` starts from
its well-known vocabulary; any other name, or a ``base``, starts from the
conventional spelling under ``base``; the overrides replace single IRIs of
either. Declaring any dimension section replaces the default registry.
"""

from __future__ import annotations

import dataclasses
from configparser import ConfigParser, MissingSectionHeaderError, ParsingError
from configparser import Error as ConfigParserError
from dataclasses import dataclass

from .contextualize import (
    DEFAULT_CONTEXT_BASE,
    MINT_HASH,
    MINT_SUFFIX,
    MODEL_COMBINED_EXTENT,
    MODEL_CONTEXTS_IN_CONTEXT,
    MODEL_MULTI_CONTEXT,
    PREDICATE_KEEP,
    PREDICATE_MODES,
    CombinationModel,
    MintingPolicy,
)
from .serializer import _split_iri
from .terms import Iri
from .vocabulary import (
    CORE,
    DEFAULT_COMBINED_BASE,
    DEFAULT_NAMESPACE,
    Axiom,
    ContextDimension,
    CoreVocabulary,
    DimensionRegistry,
    combined_dimension_module,
    conventional_dimension,
    core_axioms,
    datatype_axioms,
    default_registry,
    dimension_module,
    dimension_restriction_axioms,
    functional_extent_axiom,
    member_context_axioms,
    provenance_dimension,
    temporal_dimension,
    transitivity_axiom,
)


class ConfigError(ValueError):
    """A config file that cannot be parsed or describes an invalid run."""


_MODEL_ALIASES = {
    MODEL_CONTEXTS_IN_CONTEXT: MODEL_CONTEXTS_IN_CONTEXT,
    MODEL_MULTI_CONTEXT: MODEL_MULTI_CONTEXT,
    MODEL_COMBINED_EXTENT: MODEL_COMBINED_EXTENT,
    "a": MODEL_CONTEXTS_IN_CONTEXT,
    "b": MODEL_MULTI_CONTEXT,
    "c": MODEL_COMBINED_EXTENT,
}

_DIMENSION_TERM_KEYS = (
    "part_class",
    "context_class",
    "part_of",
    "extent",
    "contextual_property",
    "contextual_data_property",
)

# The keys each kind of section allows, by the section name before its first dot.
_SECTION_KEYS = {
    "core": {
        "namespace",
        "combined_base",
        "model",
        "nesting_order",
        "predicate_mode",
        "datatype_axioms",
        "restriction_axioms",
        "same_extent_check",
    },
    "minting": {"mode", "separator", "context_base"},
    "dimension": {"base", *_DIMENSION_TERM_KEYS},
}

_WELL_KNOWN_DIMENSIONS = {
    "temporal": temporal_dimension,
    "provenance": provenance_dimension,
}


@dataclass(frozen=True)
class Config:
    """A fully resolved run configuration."""

    registry: DimensionRegistry
    model: CombinationModel
    policy: MintingPolicy
    vocab: CoreVocabulary
    datatype_axioms: bool = True
    restriction_axioms: bool = True
    same_extent_check: bool = True
    predicate_mode: str = PREDICATE_KEEP

    def __post_init__(self) -> None:
        if self.predicate_mode not in PREDICATE_MODES:
            raise ConfigError(f"unknown predicate_mode {self.predicate_mode!r}")
        if self.model.kind == MODEL_CONTEXTS_IN_CONTEXT:
            missing = [
                name for name in self.model.nesting_order or ()
                if name not in self.registry.names()
            ]
            if missing:
                raise ConfigError(
                    f"nesting_order names unregistered dimensions: {', '.join(missing)}"
                )

    def axioms(self) -> list[Axiom]:
        """The TBox this configuration calls for: the core module, one
        module per dimension, and the optional blocks the flags and the
        combination model require."""
        return [axiom for _, module in self.modules() for axiom in module]

    def modules(self) -> list[tuple[str, list[Axiom]]]:
        """The same TBox as `axioms()`, split into named modules."""
        out: list[tuple[str, list[Axiom]]] = [("core", core_axioms(self.vocab))]
        if self.datatype_axioms:
            out.append(("datatype", datatype_axioms(self.vocab)))
        for dim in self.registry:
            out.append((f"dimension-{dim.name}", dimension_module(dim, self.vocab)))
            if self.restriction_axioms:
                out.append(
                    (
                        f"restrictions-{dim.name}",
                        dimension_restriction_axioms(dim, self.vocab),
                    )
                )
        if self.model.kind == MODEL_CONTEXTS_IN_CONTEXT:
            out.append(("transitivity", [transitivity_axiom(self.vocab)]))
        if self.model.kind == MODEL_COMBINED_EXTENT:
            combined_block = [functional_extent_axiom(self.vocab)]
            combined_block += member_context_axioms(self.vocab)
            out.append(("combined-extent", combined_block))
            for names in self.registry.combined_name_sets():
                members = [self.registry.get(name) for name in names]
                out.append(
                    (
                        f"combined-{'-'.join(names)}",
                        combined_dimension_module(
                            members, self.registry.combined(names), self.vocab
                        ),
                    )
                )
        return out

    def prefixes(self) -> dict[str, str]:
        """A prefix map for readable Turtle output."""
        out = {
            "nd": self.vocab.namespace,
            "rdf": "http://www.w3.org/1999/02/22-rdf-syntax-ns#",
            "rdfs": "http://www.w3.org/2000/01/rdf-schema#",
            "owl": "http://www.w3.org/2002/07/owl#",
            "xsd": "http://www.w3.org/2001/XMLSchema#",
        }
        for dim in self.registry:
            base, _ = _split_iri(dim.part_class)
            if base.endswith(("#", "/")):  # an IRI with neither has no namespace
                out.setdefault(dim.name, base)
        return out


def default_config() -> Config:
    return Config(
        registry=default_registry(),
        model=CombinationModel.multi_context(),
        policy=MintingPolicy(),
        vocab=CORE,
    )


def _parse_bool(section: str, key: str, raw: str) -> bool:
    value = ConfigParser.BOOLEAN_STATES.get(raw.strip().lower())
    if value is None:
        raise ConfigError(f"[{section}] {key} must be a boolean, got {raw!r}")
    return value


def _parse_iri(section: str, key: str, raw: str) -> Iri:
    try:
        return Iri(raw.strip())
    except ValueError as error:
        raise ConfigError(f"[{section}] {key}: {error}") from None


def _section(parser: ConfigParser, section: str) -> dict[str, str]:
    """The keys of `section`, none if it is absent, each one a key that
    its kind of section allows."""
    items = dict(parser.items(section)) if parser.has_section(section) else {}
    unknown = set(items) - _SECTION_KEYS[section.partition(".")[0]]
    if unknown:
        raise ConfigError(f"[{section}] unknown keys: {', '.join(sorted(unknown))}")
    return items


def _dimension_from_section(name: str, section: str, items: dict[str, str]) -> ContextDimension:
    """A well-known `name` with no `base` starts from its well-known
    dimension, any other from the conventional IRIs under `base`; the
    per-term keys override single IRIs of either."""
    base = items.get("base", "").strip()
    if base:
        _parse_iri(section, "base", base)
    try:
        if base or name not in _WELL_KNOWN_DIMENSIONS:
            dim = conventional_dimension(name, base or None)
        else:
            dim = _WELL_KNOWN_DIMENSIONS[name]()
    except ValueError as error:
        raise ConfigError(f"[{section}] {error}") from None
    overrides = {
        key: _parse_iri(section, key, items[key])
        for key in _DIMENSION_TERM_KEYS
        if key in items
    }
    if overrides:
        dim = dataclasses.replace(dim, **overrides)
    return dim


def load_config(text: str) -> Config:
    """Parse a config file's text into a `Config`."""
    parser = ConfigParser(inline_comment_prefixes=(";", "#"), interpolation=None)
    try:
        parser.read_string(text)
    except MissingSectionHeaderError as error:
        raise ConfigError(
            f"cannot parse config: line {error.lineno}: expected a [section] header"
        ) from None
    except ParsingError as error:
        raise ConfigError(
            f"cannot parse config: line {error.errors[0][0]}: expected key = value"
        ) from None
    except ConfigParserError as error:
        raise ConfigError(f"cannot parse config: {error}") from None

    dimensions: list[ContextDimension] = []
    for section in parser.sections():
        if section.startswith("dimension."):
            name = section[len("dimension.") :]
            dimensions.append(_dimension_from_section(name, section, _section(parser, section)))
        elif section not in ("core", "minting"):
            raise ConfigError(f"unknown config section [{section}]")

    core = _section(parser, "core")

    namespace = core.get("namespace", DEFAULT_NAMESPACE).strip()
    try:
        vocab = CORE if namespace == DEFAULT_NAMESPACE else CoreVocabulary(namespace)
    except ValueError as error:
        raise ConfigError(f"[core] namespace: {error}") from None

    combined_base = _parse_iri("core", "combined_base", core.get("combined_base", DEFAULT_COMBINED_BASE)).value
    if not dimensions:
        registry = DimensionRegistry(
            [temporal_dimension(), provenance_dimension()], combined_base
        )
    else:
        try:
            registry = DimensionRegistry(dimensions, combined_base)
        except ValueError as error:
            raise ConfigError(str(error)) from None

    model_key = core.get("model", MODEL_MULTI_CONTEXT).strip().lower()
    kind = _MODEL_ALIASES.get(model_key)
    if kind is None:
        raise ConfigError(
            f"[core] model must be one of {', '.join(sorted(set(_MODEL_ALIASES.values())))}"
        )
    if kind == MODEL_CONTEXTS_IN_CONTEXT:
        raw_order = core.get("nesting_order", "")
        order = tuple(
            name.strip() for name in raw_order.split(",") if name.strip()
        ) or tuple(sorted(registry.names()))
        try:
            model = CombinationModel.contexts_in_context(order)
        except ValueError as error:
            raise ConfigError(f"[core] nesting_order: {error}") from None
    else:
        if core.get("nesting_order", "").strip():
            raise ConfigError("[core] nesting_order only applies to contexts-in-context")
        model = CombinationModel(kind)

    minting = _section(parser, "minting")
    mode = minting.get("mode", MINT_SUFFIX).strip().lower()
    if mode not in (MINT_SUFFIX, MINT_HASH):
        raise ConfigError(f"[minting] mode must be {MINT_SUFFIX} or {MINT_HASH}")
    context_base = _parse_iri("minting", "context_base", minting.get("context_base", DEFAULT_CONTEXT_BASE)).value
    try:
        policy = MintingPolicy(
            mode=mode,
            separator=minting.get("separator", "@").strip() or "@",
            combined_context_base=context_base,
        )
    except ValueError as error:
        raise ConfigError(f"[minting] {error}") from None

    predicate_mode = core.get("predicate_mode", PREDICATE_KEEP).strip().lower()

    try:
        return Config(
            registry=registry,
            model=model,
            policy=policy,
            vocab=vocab,
            datatype_axioms=_parse_bool("core", "datatype_axioms", core.get("datatype_axioms", "true")),
            restriction_axioms=_parse_bool("core", "restriction_axioms", core.get("restriction_axioms", "true")),
            same_extent_check=_parse_bool("core", "same_extent_check", core.get("same_extent_check", "true")),
            predicate_mode=predicate_mode,
        )
    except ValueError as error:
        raise ConfigError(str(error)) from None
