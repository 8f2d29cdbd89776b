"""Architecture grammar: parsing, validation, and network assembly."""

import numpy as np
import pytest

from dbdiag import TABLE_ARCHITECTURES, build_network, parse_architecture
from dbdiag.errors import ArchitectureError


def build(text, steps=6, feats=3, seed=0):
    return build_network(parse_architecture(text), steps, feats,
                         np.random.default_rng(seed))


class TestParsing:
    @pytest.mark.parametrize("text", TABLE_ARCHITECTURES)
    def test_catalog_strings_parse(self, text):
        spec = parse_architecture(text)
        assert spec.text == text

    def test_star_can_sit_inside_or_outside_parens(self):
        inside = parse_architecture("(150)-(50)-(150*)")
        outside = parse_architecture("(150)-(50)-(150)*")
        assert [t.starred for t in inside.tokens] == [t.starred for t in outside.tokens]

    def test_pca_form_is_linear(self):
        assert parse_architecture("PCA-network (50)").linear_dense
        assert not parse_architecture("(150)-(50)-(150*)").linear_dense

    @pytest.mark.parametrize("text", [
        "",
        "(150)-(50)-(150**)",     # double star
        "(150*)*",
        "(0)",                    # width must be positive
        "(150)-()-(150*)",
        "(abc)",
        "150-(50)",
        "BTN-(150)-(50)-(150*)-BTN",   # unstarred BTN at the end
        "(150)-BTN-(50)-(150*)-BTN*",  # BTN not first
        "BTN*-(150)-(50)-(150*)",      # reversed BTN not last
        "(150*)-(50)-(150)",           # starred prefix instead of suffix
        "(150)-(50*)-(150*)",          # starred token inside the middle
        "(150)-(50)-(99*)",            # mirror width mismatch
        "(150)-(50)-(50*)-(99*)",
        "BN-(150)-(50)-(150*)",        # BN opened but never mirrored
        "PCA-network (0)",
        "PCA-network (50) with BN",
    ])
    def test_malformed_strings_rejected(self, text):
        with pytest.raises(ArchitectureError):
            parse_architecture(text)

    def test_error_names_the_offending_token(self):
        with pytest.raises(ArchitectureError, match="99"):
            parse_architecture("(150)-(50)-(99*)")


class TestAssembly:
    @pytest.mark.parametrize("text", TABLE_ARCHITECTURES)
    def test_catalog_networks_reconstruct_input_shape(self, text):
        net = build(text)
        x = np.random.default_rng(1).normal(size=(4, 6, 3))
        out = net.forward(x, training=True)
        assert out.shape == x.shape

    def test_unpaired_center_is_allowed_when_dense_only(self):
        net = build("(10)-(5)")
        x = np.random.default_rng(1).normal(size=(2, 6, 3))
        assert net.forward(x, training=True).shape == x.shape

    def test_output_stage_is_linear(self):
        # the implicit output dense must not be followed by an activation
        labels = [l.label for l in build("(10)-(5)-(10*)").layers]
        assert labels[-2:] == ["dense_out", "reshape"]

    def test_paired_temporal_layers_share_moments(self):
        # with identity dense layers in between, BTN* must restore exactly
        # the level and spread that BTN removed from each window
        net = build("PCA-network (18) with BTN")
        for name, p in net.parameters().items():
            if name.endswith(".weights"):
                p[...] = np.eye(18)
        x = np.random.default_rng(1).normal(size=(5, 6, 3)) * 40.0 + 700.0
        for training in (False, True):
            np.testing.assert_allclose(net.forward(x, training=training), x,
                                       rtol=1e-12)

    def test_linear_variant_has_no_activations(self):
        labels = [l.label for l in build("PCA-network (4)").layers]
        assert "relu" not in labels

    def test_relu_follows_every_hidden_dense(self):
        labels = [l.label for l in build("(10)-(5)-(10*)").layers]
        for i, lab in enumerate(labels):
            if lab in ("dense", "dense_reverse"):
                assert labels[i + 1] == "relu"

    def test_distinct_rngs_give_distinct_weights(self):
        a = build("(6)-(3)-(6*)", seed=0)
        b = build("(6)-(3)-(6*)", seed=1)
        wa = a.parameters()
        wb = b.parameters()
        assert any(not np.array_equal(wa[k], wb[k]) for k in wa)

    def test_same_rng_reproduces_weights(self):
        wa = build("(6)-(3)-(6*)", seed=5).parameters()
        wb = build("(6)-(3)-(6*)", seed=5).parameters()
        for k in wa:
            np.testing.assert_array_equal(wa[k], wb[k])
