"""Network descriptors for the workload runner.

Layers are engine-shaped: stride-1 valid convolutions over inputs that
carry an explicit zero-bit halo, so a padded stride-1 network layer of
output h x w has input (h+fs-1) x (w+fs-1). Two reshapes keep every
layer in that form:

  * stride-2 convolutions are described by their output geometry with
    the pre-strided input (same MAC count, engine-native walk);
  * a large-kernel stem is im2col'd to fs=1 with nif = c*k*k; its
    unfolded input buffer is produced on the fly and therefore does
    not count toward resident activations.

Classifier heads are flattened fully-connected layers (fs=1, 1x1).
Pooling between layers is OR pooling (max over +/-1) or majority
(average then sign).

Parameter footprint is counted packed: d_eff weight bits per output
channel tap plus one 8-bit threshold per channel.

Descriptors are immutable but for profiles, an uncompared dict where
the analytic runner keeps its outcome per tp. A NetworkDescriptor holds
its layers as a tuple and fixes its op count and footprint (packed
parameter bits and activation peak) when it is built, so neither the
fit check nor a run sums over the layers.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property

from .bintensor import image_bytes
from .errors import ShapeError
from .golden import LayerSpec


@dataclass(frozen=True)
class NetLayer:
    name: str
    spec: LayerSpec
    pools: tuple[str, ...] = ()   # applied after the layer: "max2" | "avg2"
    im2col: bool = False          # input buffer is streamed, not resident

    @cached_property
    def packed_param_bits(self) -> int:
        s = self.spec
        return s.nof * s.d_eff * s.fs * s.fs + 8 * s.nof

    def input_buffer_bytes(self) -> int:
        """Resident halo'd input image, one bit per channel padded to
        whole words per pixel."""
        s = self.spec
        return image_bytes(s.nif, s.h_in, s.w_in)

    def output_buffer_bytes(self) -> int:
        s = self.spec
        return image_bytes(s.nof, s.h_out, s.w_out)


def _activation_peak(layers: tuple[NetLayer, ...]) -> int:
    """Largest set of activation buffers alive at once: while a layer
    runs, its (halo'd) input and raw output coexist; while pooling, the
    raw output and the next layer's halo'd input do. im2col inputs are
    not resident."""
    peak = 0
    for i, l in enumerate(layers):
        live = l.output_buffer_bytes()
        if not l.im2col:
            live += l.input_buffer_bytes()
        peak = max(peak, live)
        if i + 1 < len(layers):
            nxt = layers[i + 1]
            handoff = l.output_buffer_bytes() + nxt.input_buffer_bytes()
            peak = max(peak, handoff)
    return peak


@dataclass(frozen=True)
class NetworkDescriptor:
    """A network's layers in order, and its op count and footprint,
    fixed when the descriptor is built. A list of layers is stored as
    a tuple; an empty one raises ShapeError. profiles holds the
    analytic runner's outcome per tp (see runner.network_profile); it
    is not compared, so equal descriptors stay equal and hash alike."""

    name: str
    layers: tuple[NetLayer, ...]
    total_ops: int = field(init=False, repr=False, compare=False)
    packed_param_bits: int = field(init=False, repr=False, compare=False)
    activation_peak_bytes: int = field(init=False, repr=False,
                                       compare=False)
    profiles: dict = field(default_factory=dict, init=False, repr=False,
                           compare=False)

    def __post_init__(self):
        layers = tuple(self.layers)
        if not layers:
            raise ShapeError(f"network {self.name!r} has no layers")
        object.__setattr__(self, "layers", layers)
        object.__setattr__(self, "total_ops",
                           sum(l.spec.ops for l in layers))
        object.__setattr__(self, "packed_param_bits",
                           sum(l.packed_param_bits for l in layers))
        object.__setattr__(self, "activation_peak_bytes",
                           _activation_peak(layers))


def make_resnet(depth: int) -> NetworkDescriptor:
    """Binary ResNet-18/34 in engine form.

    The 7x7/s2 stem is im2col'd (nif = 3*49 = 147, fs = 1, 112x112).
    Identity and pooling shortcuts only; no 1x1 downsample convolutions.
    The head flattens 7x7x512 straight into the classifier.
    """
    if depth == 18:
        blocks = [2, 2, 2, 2]
    elif depth == 34:
        blocks = [3, 4, 6, 3]
    else:
        raise ShapeError(f"resnet depth {depth} is not 18 or 34")
    layers = [NetLayer(
        "conv1", LayerSpec(nif=147, nof=64, fs=1, h_out=112, w_out=112),
        pools=("max2",), im2col=True)]
    chans = [64, 128, 256, 512]
    sizes = [56, 28, 14, 7]
    c_in = 64
    for s, (c, hw, n) in enumerate(zip(chans, sizes, blocks), start=1):
        for b in range(n):
            for conv in (1, 2):
                nif = c_in if (b == 0 and conv == 1) else c
                layers.append(NetLayer(
                    f"conv{s+1}_{b+1}{'ab'[conv-1]}",
                    LayerSpec(nif=nif, nof=c, fs=3, h_out=hw, w_out=hw)))
        c_in = c
    layers.append(NetLayer(
        "fc", LayerSpec(nif=512 * 7 * 7, nof=1000, fs=1, h_out=1, w_out=1)))
    return NetworkDescriptor(f"resnet{depth}", layers)


MVGG_CHANNELS = [128, 128, 256, 256, 512, 512]


def make_mvgg(groups: int | str) -> NetworkDescriptor:
    """Six 3x3 conv layers on 32x32 with pooling every two, a final
    majority average pool, and a 2048->10 classifier.

    `groups` caps how many input bands each conv is split into (the
    first layer is always dense); "f" splits maximally, leaving one
    input channel per band.
    """
    full = isinstance(groups, str)
    if full:
        if groups.lower() != "f":
            raise ShapeError(f"unknown mvgg variant {groups!r}")
        gcap = None
    else:
        if groups < 1 or (groups & (groups - 1)):
            raise ShapeError("group count must be a power of two")
        gcap = groups
    layers = []
    sizes = [32, 32, 16, 16, 8, 8]
    c_in = 3
    for i, (c, hw) in enumerate(zip(MVGG_CHANNELS, sizes), start=1):
        if i == 1:
            d = None
        else:
            g = min(c_in, c) if gcap is None else min(gcap, c_in, c)
            d = c_in // g
        pools = ()
        if i in (2, 4):
            pools = ("max2",)
        elif i == 6:
            pools = ("max2", "avg2")
        layers.append(NetLayer(
            f"conv{i}", LayerSpec(nif=c_in, nof=c, fs=3, h_out=hw, w_out=hw,
                                  d=d), pools=pools))
        c_in = c
    layers.append(NetLayer(
        "fc", LayerSpec(nif=512 * 2 * 2, nof=10, fs=1, h_out=1, w_out=1)))
    return NetworkDescriptor("mvgg-f" if full else f"mvgg-{groups}", layers)


def get_network(name: str) -> NetworkDescriptor:
    n = name.lower()
    if n in ("resnet18", "resnet-18"):
        return make_resnet(18)
    if n in ("resnet34", "resnet-34"):
        return make_resnet(34)
    if n == "mvgg-f":
        return make_mvgg("f")
    if n.startswith("mvgg-") and n[5:].isdecimal():
        return make_mvgg(int(n[5:]))
    raise ShapeError(f"unknown network {name!r}")
