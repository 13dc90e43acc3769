"""Tests for Layer construction, validation, and derived quantities."""

import dataclasses
import pickle

import pytest

from repro.errors import LayerError
from repro.model.layer import (
    Layer,
    conv2d,
    dwconv,
    elementwise,
    fc,
    pool,
    pwconv,
    trconv,
)
from repro.tensors import dims as D
from repro.tensors.operators import CONV2D, FC


class TestConstruction:
    def test_padding_is_folded_into_input_extent(self):
        layer = conv2d("c", k=8, c=4, y=14, x=14, r=3, s=3, padding=1)
        assert layer.dims[D.Y] == 16
        assert layer.out_y == 14

    def test_output_extent_stride(self):
        layer = conv2d("c", k=8, c=4, y=227, x=227, r=11, s=11, stride=4)
        assert layer.out_y == 55

    def test_dim_size_output_aliases(self):
        layer = conv2d("c", k=8, c=4, y=12, x=10, r=3, s=3)
        assert layer.dim_size(D.YP) == 10
        assert layer.dim_size(D.XP) == 8
        assert layer.dim_size(D.K) == 8

    def test_all_dim_sizes_has_nine_entries(self):
        layer = conv2d("c", k=8, c=4, y=12, x=12, r=3, s=3)
        sizes = layer.all_dim_sizes()
        assert set(sizes) == set(D.CANONICAL_DIMS) | {D.YP, D.XP}

    def test_pointwise_uses_pwconv_operator(self):
        assert pwconv("p", k=8, c=4, y=12, x=12).operator.name == "PWCONV"

    def test_conv_1x1_kernel_becomes_pwconv(self):
        assert conv2d("c", k=8, c=4, y=12, x=12, r=1, s=1).operator.name == "PWCONV"


class TestHash:
    """A layer is hashed once, at construction; every copy stays consistent."""

    def test_equal_layers_hash_equal(self):
        a = conv2d("c", k=8, c=4, y=14, x=14, r=3, s=3, stride=2)
        b = conv2d("c", k=8, c=4, y=14, x=14, r=3, s=3, stride=2)
        assert a is not b and a == b and hash(a) == hash(b)
        assert a != conv2d("c", k=8, c=4, y=14, x=14, r=3, s=3)

    @staticmethod
    def field_hash(layer):
        """The hash of the fields equality compares, computed afresh."""
        items = (tuple(sorted(layer.dims.items())), tuple(sorted(layer.densities.items())))
        return hash((layer.name, layer.operator, layer.stride, layer.dilation, layer.groups, items))

    def test_hash_matches_the_field_formula(self):
        layer = conv2d("c", k=8, c=4, y=14, x=14, r=3, s=3)
        layer = dataclasses.replace(layer, densities={"I": 0.5})
        assert hash(layer) == self.field_hash(layer)

    def test_pickle_round_trip_keeps_eq_and_hash(self):
        layer = conv2d("c", k=8, c=4, y=14, x=14, r=3, s=3, stride=2)
        copy = pickle.loads(pickle.dumps(layer))
        assert copy == layer and hash(copy) == hash(layer)
        assert {layer: 1}[copy] == 1

    def test_replace_rehashes(self):
        layer = conv2d("c", k=8, c=4, y=14, x=14, r=3, s=3)
        same = dataclasses.replace(layer)
        other = dataclasses.replace(layer, groups=2)
        assert same == layer and hash(same) == hash(layer)
        assert other != layer and hash(other) == self.field_hash(other)


class TestValidation:
    def test_rejects_kernel_larger_than_input(self):
        with pytest.raises(LayerError):
            conv2d("bad", k=1, c=1, y=2, x=8, r=3, s=3)

    def test_rejects_unknown_dim(self):
        with pytest.raises(LayerError):
            Layer(name="bad", operator=CONV2D, dims={"Q": 4})

    def test_rejects_non_positive_dim(self):
        with pytest.raises(LayerError):
            Layer(name="bad", operator=CONV2D, dims={D.K: 0})

    def test_rejects_unused_dim(self):
        with pytest.raises(LayerError):
            Layer(name="bad", operator=FC, dims={D.K: 4, D.C: 4, D.Y: 7})

    def test_rejects_bad_density(self):
        with pytest.raises(LayerError):
            conv2d("bad", k=1, c=1, y=8, x=8, r=3, s=3, densities={"W": 0.0})
        with pytest.raises(LayerError):
            conv2d("bad", k=1, c=1, y=8, x=8, r=3, s=3, densities={"W": 1.5})

    def test_rejects_unknown_density_tensor(self):
        with pytest.raises(KeyError):
            conv2d("bad", k=1, c=1, y=8, x=8, r=3, s=3, densities={"Z": 0.5})

    def test_rejects_bad_groups(self):
        with pytest.raises(LayerError):
            Layer(name="bad", operator=CONV2D, dims={D.Y: 8, D.X: 8}, groups=0)


class TestCounts:
    def test_total_ops_vgg_conv2(self):
        layer = conv2d("CONV2", k=64, c=64, y=224, x=224, r=3, s=3, padding=1)
        assert layer.total_ops() == 64 * 64 * 224 * 224 * 9

    def test_grouped_conv_ops(self):
        plain = conv2d("a", k=64, c=64, y=14, x=14, r=3, s=3, padding=1)
        grouped = conv2d("b", k=64, c=64, y=14, x=14, r=3, s=3, padding=1, groups=2)
        assert grouped.total_ops() == plain.total_ops() // 2

    def test_effective_ops_scales_with_input_densities(self):
        layer = conv2d(
            "s", k=8, c=8, y=12, x=12, r=3, s=3,
            densities={"W": 0.5, "I": 0.5},
        )
        assert layer.effective_ops() == pytest.approx(layer.total_ops() * 0.25)

    def test_tensor_volume(self):
        layer = conv2d("c", k=8, c=4, y=12, x=12, r=3, s=3)
        assert layer.tensor_volume("W") == 8 * 4 * 9
        assert layer.tensor_volume("I") == 4 * 144
        assert layer.tensor_volume("O") == 8 * 100


class TestTransposedConv:
    def test_unet_upconv_doubles_extent(self):
        layer = trconv("up", k=512, c=1024, y=28, x=28, r=2, s=2, upscale=2)
        assert layer.out_y == 56

    def test_dcgan_conv_doubles_extent(self):
        layer = trconv("g", k=512, c=1024, y=4, x=4, r=4, s=4, upscale=2, padding=1)
        assert layer.out_y == 8

    def test_structured_input_sparsity_recorded(self):
        layer = trconv("up", k=8, c=8, y=10, x=10, r=2, s=2, upscale=2)
        assert 0 < layer.density("I") < 1

    def test_rejects_excess_padding(self):
        with pytest.raises(LayerError):
            trconv("bad", k=1, c=1, y=4, x=4, r=2, s=2, upscale=2, padding=3)


class TestOtherConstructors:
    def test_pool_defaults_stride_to_window(self):
        layer = pool("p", c=8, y=8, x=8, window=2)
        assert layer.stride == (2, 2)
        assert layer.out_y == 4

    def test_dwconv_has_no_k(self):
        layer = dwconv("d", c=32, y=14, x=14, r=3, s=3, padding=1)
        assert layer.dims[D.K] == 1
        assert layer.operator.name == "DWCONV"

    def test_fc_shape(self):
        layer = fc("f", k=1000, c=4096)
        assert layer.total_ops() == 1000 * 4096

    def test_elementwise_ops(self):
        layer = elementwise("e", c=8, y=4, x=4)
        assert layer.total_ops() == 8 * 16
