from dataclasses import FrozenInstanceError

import pytest

from xnesim.analytic import (MVGG_CHANNELS, LayerSpec, NetLayer,
                             NetworkDescriptor, get_network, make_mvgg,
                             make_resnet)
from xnesim.errors import ShapeError

NETWORKS = ("resnet18", "resnet34", "mvgg-1", "mvgg-2", "mvgg-4", "mvgg-8",
            "mvgg-f")


def test_resnet18_op_count():
    net = make_resnet(18)
    assert net.total_ops == 3638763520
    assert abs(net.total_ops / 3.64e9 - 1) < 0.02


def test_resnet34_op_count():
    net = make_resnet(34)
    assert net.total_ops == 7338139648
    assert abs(net.total_ops / 7.34e9 - 1) < 0.02


def test_resnet_layer_structure():
    net = make_resnet(18)
    assert len(net.layers) == 18
    assert net.layers[0].name == "conv1"
    assert net.layers[0].im2col
    assert net.layers[0].spec.nif == 147      # 3 ch * 7x7 window
    assert net.layers[0].spec.fs == 1
    assert net.layers[0].pools == ("max2",)
    assert net.layers[-1].name == "fc"
    assert net.layers[-1].spec.nif == 25088   # 512 * 7 * 7 flattened
    assert net.layers[-1].spec.nof == 1000
    body = net.layers[1:-1]
    assert all(l.spec.fs == 3 for l in body)
    assert make_resnet(34).layers.__len__() == 34


def test_resnet_packed_parameter_bits():
    assert make_resnet(18).packed_param_bits == 36122112
    assert make_resnet(34).packed_param_bits == 46252544


def test_resnet18_activation_peak():
    # peak is conv1's output alongside the pooled, halo-padded stage input
    peak = make_resnet(18).activation_peak_bytes
    assert peak == 127264
    assert peak <= 128 * 1024


def test_mvgg_channel_plan():
    assert tuple(MVGG_CHANNELS) == (128, 128, 256, 256, 512, 512)
    net = make_mvgg(2)
    assert [l.name for l in net.layers] == \
        ["conv1", "conv2", "conv3", "conv4", "conv5", "conv6", "fc"]
    assert net.layers[0].spec.groups == 1     # first layer stays dense
    assert net.layers[1].spec.groups == 2
    assert net.layers[0].spec.nif == 3
    assert net.layers[-1].spec.nif == 2048    # 512 * 2 * 2 after pooling
    assert net.layers[-1].spec.nof == 10
    assert net.layers[1].pools == ("max2",)
    assert net.layers[5].pools == ("max2", "avg2")


def test_mvgg_footprints():
    assert make_mvgg(1).packed_param_bits == 4609488
    assert make_mvgg(2).packed_param_bits == 2323920
    f = make_mvgg("f")
    assert f.packed_param_bits == 53328
    assert f.packed_param_bits <= 8 * 1024 * 8
    assert f.total_ops == 13017088
    assert make_mvgg(2).total_ops == 611098624


def test_mvgg_full_grouping_caps_at_channels():
    f = make_mvgg("f")
    # every conv past the first splits into one-input-channel bands
    for layer in f.layers[1:-1]:
        assert layer.spec.d_eff == 1
    net8 = make_mvgg(8)
    assert net8.layers[1].spec.groups == 8


def test_get_network_names():
    assert get_network("resnet18").name == "resnet18"
    assert get_network("resnet34").total_ops == 7338139648
    assert get_network("mvgg-4").layers[1].spec.groups == 4
    assert get_network("mvgg-f").name == "mvgg-f"
    with pytest.raises(ShapeError):
        get_network("alexnet")
    with pytest.raises(ShapeError):
        get_network("mvgg-3")                 # groups must be a power of two
    for bad in ("mvgg-x", "mvgg-"):
        with pytest.raises(ShapeError, match=f"unknown network '{bad}'"):
            get_network(bad)


def test_layer_buffer_accounting():
    net = make_resnet(18)
    conv1 = net.layers[0]
    assert conv1.im2col        # unfolded input streams, never resident
    assert conv1.output_buffer_bytes() == 112 * 112 * 64 // 8
    conv2 = net.layers[1]
    assert conv2.spec.h_out == 56
    # stage input buffered with the conv halo
    assert conv2.input_buffer_bytes() == 58 * 58 * 64 // 8
    # the peak is exactly those two alive together
    assert net.activation_peak_bytes == (conv1.output_buffer_bytes()
                                           + conv2.input_buffer_bytes())


def _recomputed_footprint(layers) -> tuple[int, int]:
    """(packed parameter bits, activation peak bytes) from the layer
    geometry alone: words of 32 channel bits per pixel, halo'd inputs,
    im2col inputs never resident."""
    def image(c, h, w):
        return h * w * -(-c // 32) * 4
    bits = peak = 0
    for i, l in enumerate(layers):
        s = l.spec
        bits += s.nof * (s.d or s.nif) * s.fs * s.fs + 8 * s.nof
        out = image(s.nof, s.h_out, s.w_out)
        x = image(s.nif, s.h_out + s.fs - 1, s.w_out + s.fs - 1)
        peak = max(peak, out + (0 if l.im2col else x))
        if i + 1 < len(layers):
            n = layers[i + 1].spec
            peak = max(peak, out + image(n.nif, n.h_out + n.fs - 1,
                                         n.w_out + n.fs - 1))
    return bits, peak


@pytest.mark.parametrize("name", NETWORKS + ("big",))
def test_footprint_fixed_at_construction(name):
    if name == "big":    # a list argument, as callers may pass
        net = NetworkDescriptor("big", [NetLayer(
            "conv", LayerSpec(nif=512, nof=512, fs=3, h_out=96, w_out=96))])
    else:
        net = get_network(name)
    assert isinstance(net.layers, tuple)
    assert (net.packed_param_bits, net.activation_peak_bytes) == \
        _recomputed_footprint(net.layers)
    assert net.total_ops == sum(l.spec.ops for l in net.layers)
    for field, value in (("name", "other"), ("layers", ()),
                         ("packed_param_bits", 0), ("total_ops", 0)):
        with pytest.raises(FrozenInstanceError):
            setattr(net, field, value)


@pytest.mark.parametrize("layers", [(), []])
def test_empty_network_is_an_error(layers):
    # a network with no layers would report zero time and zero cycles
    with pytest.raises(ShapeError, match="no layers"):
        NetworkDescriptor("empty", layers)
