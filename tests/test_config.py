"""Declarative run configuration: INI parsing and TBox assembly."""

import pytest

from ndfluents import (
    CombinationModel,
    Config,
    ConfigError,
    Iri,
    MintingPolicy,
    default_config,
    load_config,
    provenance_dimension,
    temporal_dimension,
)
from ndfluents.vocabulary import (
    CORE,
    functional,
    transitive,
)


class TestDefaults:
    def test_default_config_is_the_recommended_setup(self):
        config = default_config()
        assert config.model == CombinationModel.multi_context()
        assert config.registry.names() == ["provenance", "temporal"]
        assert config.datatype_axioms and config.restriction_axioms
        assert config.predicate_mode == "keep"

    def test_empty_input_equals_defaults(self):
        assert load_config("") == default_config()


class TestLoadConfig:
    def test_model_aliases(self):
        for alias, expected in [
            ("a", "contexts-in-context"),
            ("b", "multi-context"),
            ("c", "combined-extent"),
            ("multi-context", "multi-context"),
        ]:
            text = "[core]\nmodel = " + alias + "\n"
            if expected == "contexts-in-context":
                text += "nesting_order = temporal, provenance\n"
            assert load_config(text).model.kind == expected

    def test_nesting_order_parsed(self):
        config = load_config(
            "[core]\nmodel = contexts-in-context\nnesting_order = provenance, temporal\n"
        )
        assert config.model.nesting_order == ("provenance", "temporal")

    def test_nesting_order_must_name_registered_dimensions(self):
        with pytest.raises(ConfigError):
            load_config(
                "[core]\nmodel = contexts-in-context\nnesting_order = temporal, umbral\n"
            )

    def test_minting_section(self):
        config = load_config("[minting]\nmode = hash\nseparator = --\n")
        assert config.policy.mode == "hash"
        assert config.policy.separator == "--"

    def test_custom_dimension_section_replaces_default_registry(self):
        config = load_config(
            "[dimension.trust]\nbase = http://example.org/trust#\n"
        )
        assert config.registry.names() == ["trust"]
        dim = config.registry.get("trust")
        assert dim.part_class == Iri("http://example.org/trust#TrustPart")

    def test_well_known_dimension_sections_keep_canonical_iris(self):
        config = load_config("[dimension.temporal]\n[dimension.provenance]\n")
        assert config.registry.get("temporal") == temporal_dimension()
        assert config.registry.get("provenance") == provenance_dimension()

    def test_dimension_term_override(self):
        config = load_config(
            "[dimension.temporal]\n"
            "base = http://purl.org/NET/ndfluents/4dFluents#\n"
            "part_class = http://example.org/Slice\n"
        )
        dim = config.registry.get("temporal")
        assert dim.part_class == Iri("http://example.org/Slice")
        assert dim.extent == temporal_dimension().extent

    def test_boolean_flags(self):
        config = load_config(
            "[core]\ndatatype_axioms = off\nrestriction_axioms = false\n"
            "same_extent_check = no\n"
        )
        assert not config.datatype_axioms
        assert not config.restriction_axioms
        assert not config.same_extent_check

    @pytest.mark.parametrize(
        "raw, value",
        [(raw, True) for raw in ("1", "true", "Yes", " ON ")]
        + [(raw, False) for raw in ("0", "FALSE", "no", "off")],
    )
    def test_the_eight_boolean_words_in_any_case(self, raw, value):
        assert load_config(f"[core]\nsame_extent_check ={raw}\n").same_extent_check is value

    def test_a_bad_boolean_names_its_key_and_value(self):
        with pytest.raises(ConfigError) as raised:
            load_config("[core]\ndatatype_axioms = maybe\n")
        assert str(raised.value) == "[core] datatype_axioms must be a boolean, got 'maybe'"

    def test_custom_namespace(self):
        config = load_config("[core]\nnamespace = http://example.org/ctx#\n")
        assert config.vocab.Context == Iri("http://example.org/ctx#Context")

    @pytest.mark.parametrize(
        "text",
        [
            "[core]\nmodel = quantum\n",
            "[core]\nmystery_key = 1\n",
            "[mystery]\nkey = 1\n",
            "[core]\ndatatype_axioms = maybe\n",
            "[minting]\nmode = carve\n",
            "[core]\npredicate_mode = invent\n",
            "[dimension.Bad Name]\nbase = http://e.org/\n",
            "[core]\nnamespace = not-an-iri\n",
        ],
    )
    def test_bad_inputs_rejected(self, text):
        with pytest.raises(ConfigError):
            load_config(text)


class TestAxiomAssembly:
    def _config(self, model):
        return Config(
            registry=default_config().registry,
            model=model,
            policy=MintingPolicy(),
            vocab=CORE,
        )

    def test_transitivity_only_for_nested_model(self):
        nested = self._config(
            CombinationModel.contexts_in_context(["temporal", "provenance"])
        )
        flat = self._config(CombinationModel.multi_context())
        assert transitive(CORE.contextualPartOf) in nested.axioms()
        assert transitive(CORE.contextualPartOf) not in flat.axioms()

    def test_functional_extent_and_combined_module_only_for_combined_model(self):
        combined = self._config(CombinationModel.combined_extent())
        flat = self._config(CombinationModel.multi_context())
        assert functional(CORE.contextualExtent) in combined.axioms()
        assert functional(CORE.contextualExtent) not in flat.axioms()
        names = [name for name, _ in combined.modules()]
        assert "combined-extent" in names
        assert "combined-provenance-temporal" in names
        flat_names = [name for name, _ in flat.modules()]
        assert not any(name.startswith("combined") for name in flat_names)

    def test_flags_drop_optional_modules(self):
        config = Config(
            registry=default_config().registry,
            model=CombinationModel.multi_context(),
            policy=MintingPolicy(),
            vocab=CORE,
            datatype_axioms=False,
            restriction_axioms=False,
        )
        names = [name for name, _ in config.modules()]
        assert "datatype" not in names
        assert not any(name.startswith("restrictions-") for name in names)

    def test_modules_flatten_to_axioms(self):
        config = self._config(CombinationModel.combined_extent())
        flattened = [ax for _, block in config.modules() for ax in block]
        assert flattened == config.axioms()

    def test_three_dimension_combined_model_covers_all_subsets(self):
        from ndfluents import DimensionRegistry, conventional_dimension

        registry = DimensionRegistry(
            [temporal_dimension(), provenance_dimension(), conventional_dimension("trust")]
        )
        config = Config(
            registry=registry,
            model=CombinationModel.combined_extent(),
            policy=MintingPolicy(),
            vocab=CORE,
        )
        names = {name for name, _ in config.modules() if name.startswith("combined-")}
        assert names == {
            "combined-extent",
            "combined-provenance-temporal",
            "combined-provenance-trust",
            "combined-temporal-trust",
            "combined-provenance-temporal-trust",
        }

    def test_prefixes_cover_vocabulary_and_dimensions(self):
        prefixes = default_config().prefixes()
        assert prefixes["nd"] == CORE.namespace
        assert prefixes["temporal"] == "http://purl.org/NET/ndfluents/4dFluents#"
        assert prefixes["provenance"] == "http://purl.org/NET/ndfluents/provenance#"

    def test_nesting_order_must_cover_registry_subset(self):
        with pytest.raises(ConfigError):
            Config(
                registry=default_config().registry,
                model=CombinationModel.contexts_in_context(["temporal", "umbral"]),
                policy=MintingPolicy(),
                vocab=CORE,
            )
