"""Exception types shared across the simulator."""


class XneError(Exception):
    """Base class for all simulator errors."""


class ShapeError(XneError):
    """Tensor or layer geometry is inconsistent."""


class DegenerateBatchNorm(XneError):
    """Batch-norm scale is zero; the sign of the activation is undefined."""


class UcodeSyntaxError(XneError):
    """Microcode source or bitstream cannot be parsed."""


class DecodeError(XneError):
    """The coefficient YAML is malformed or holds a value out of range."""


class RegionError(XneError):
    """Access to an unmapped or misaligned memory address."""


class CapacityError(XneError):
    """A network or layer does not fit the selected memory region."""


class PlanError(XneError):
    """A layer cannot be mapped onto the engine as configured."""


class ModeError(XneError):
    """No operating mode of the coefficient set has the given name."""
