"""Architecture grammar: parsing, validation, and network assembly."""

import itertools

import numpy as np
import pytest

from dbdiag import TABLE_ARCHITECTURES, build_network, parse_architecture
from dbdiag.architecture import ArchitectureSpec, Token
from dbdiag.cli import main
from dbdiag.errors import ArchitectureError
from dbdiag.nn import TemporalNorm, TemporalNormReverse

# every token kind, starred and not, at two dense widths
ALPHABET = ("(2)", "(3)", "(2*)", "(3*)", "BN", "BN*", "BTN", "BTN*")


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

    @pytest.mark.parametrize("tokens", [
        (Token("bn"), Token("dense", 4)),
        (Token("dense", 4), Token("btn"), Token("dense", 2), Token("btn", 0, True)),
        (Token("btn", 0, True), Token("dense", 4)),
    ], ids=["unpaired_bn", "btn_not_first", "starred_prefix"])
    def test_a_hand_built_spec_is_validated(self, tokens):
        """A spec that exists is valid, however it was made."""
        with pytest.raises(ArchitectureError):
            ArchitectureSpec("hand-built", tokens)

    @pytest.mark.parametrize("text, message", [
        ("BN-BN*", "architecture needs at least one dense encoder layer"),
        ("(150)-BN-(50)-(150*)",
         "normalization token BN has no starred counterpart (at position 2)"),
        ("(150)-BTN-(50)-BTN*-(150*)",
         "temporal normalization must be the first token (at position 2)"),
    ], ids=["no_dense", "no_counterpart", "btn_not_first"])
    def test_refusals_name_the_rule_and_exit_as_usage(self, tmp_path, capsys, text,
                                                      message):
        with pytest.raises(ArchitectureError) as info:
            parse_architecture(text)
        assert str(info.value) == message
        assert main(["train", "--stats", str(tmp_path / "absent.csv"),
                     "--model", str(tmp_path / "m.json"), "--architecture", text]) == 2
        assert f"error: {message}" in capsys.readouterr().err


def test_every_short_string_is_refused_or_builds_one_outer_temporal_pair():
    """Each string of up to 5 tokens is refused, or builds a network whose
    temporal norms are exactly the pair ``layers[0]`` and ``layers[-1]``,
    or neither, and on which a training forward and backward pass keep the
    input's shape. 154 of the 37,448 strings parse."""
    x = np.random.default_rng(1).normal(size=(3, 4, 2))
    built = 0
    for n in range(1, 6):
        for combo in itertools.product(ALPHABET, repeat=n):
            text = "-".join(combo)
            try:
                net = build(text, steps=4, feats=2)
            except ArchitectureError:
                continue
            built += 1
            opens = [i for i, layer in enumerate(net.layers)
                     if isinstance(layer, TemporalNorm)]
            closes = [i for i, layer in enumerate(net.layers)
                      if isinstance(layer, TemporalNormReverse)]
            assert (opens, closes) in (([], []), ([0], [len(net.layers) - 1])), text
            assert net.forward(x, training=True).shape == x.shape, text
            assert net.backward(x).shape == x.shape, text
    assert built == 154


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
