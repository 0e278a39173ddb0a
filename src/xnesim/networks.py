"""Network descriptors for the workload runner: ResNet-18/34 and the
grouped VGG family in engine form. They are defined, with the layer
reshapes and footprint they follow, in xnesim.analytic.
"""

from .analytic import (get_network as get_network, make_mvgg as make_mvgg,
                       make_resnet as make_resnet)
