"""Network descriptors for the workload runner: ResNet-18/34 and the
grouped VGG family in engine form. They are defined, with the layer
reshapes and footprint they follow, in xnesim.analytic, and
re-exported here as the same objects.
"""

from .analytic import (MVGG_CHANNELS as MVGG_CHANNELS, NetLayer as NetLayer,
                       NetworkDescriptor as NetworkDescriptor,
                       get_network as get_network, make_mvgg as make_mvgg,
                       make_resnet as make_resnet)
