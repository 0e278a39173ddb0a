"""Exception types shared across the simulator, and the one reader of
its input files, which refuses a bad file with them."""

from collections.abc import Mapping


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


# ---------------------------------------------------------------------------
# Input files: the coefficient set, microcode sources and bitstreams


def read_file(path, parse, error: type[XneError]):
    """parse(the bytes of file *path*). An unreadable file, a value
    nested deeper than Python's recursion limit, and every *error* that
    parse raises, is one *error* whose message starts `path: `."""
    try:
        with open(path, "rb") as f:
            return parse(f.read())
    except error as ex:
        raise type(ex)(f"{path}: {ex}") from None
    except OSError as ex:
        raise error(f"{path}: {ex.strerror or ex}") from None
    except RecursionError:
        raise error(f"{path}: nested too deeply") from None


def parse_yaml(source: bytes | str, error: type[XneError]):
    """The value the YAML *source* holds, parsed by libyaml when PyYAML
    has it; *error*, its message one line, if source is not YAML."""
    import yaml   # imported where YAML is read, not at load
    try:
        return yaml.load(source, Loader=getattr(yaml, "CSafeLoader",
                                                yaml.SafeLoader))
    except yaml.YAMLError as ex:
        raise error(f"not valid YAML: {' '.join(str(ex).split())}") from None


def expect(value, kind: type, what: str, error: type[XneError],
           optional: bool = False, keys: tuple[str, ...] | None = None,
           needs: tuple[str, ...] = ()):
    """value if it is a kind (Mapping, list, int or str; a bool is no
    int here) holding every key of *needs* and none outside *keys*, when
    given; an empty kind if optional and value is None; *error* naming
    *what* otherwise."""
    if optional and value is None:
        return {} if kind is Mapping else kind()
    if not isinstance(value, kind) or isinstance(value, bool):
        a_kind = {Mapping: "a mapping", list: "a list", int: "an integer",
                  str: "a string"}
        raise error(f"{what} must be {a_kind[kind]}, "
                    f"got {type(value).__name__}")
    if keys is not None and (unknown := [k for k in value if k not in keys]):
        raise error(f"unknown key {unknown[0]!r} in {what}; "
                    f"expected one of {', '.join(keys)}")
    if missing := [k for k in needs if k not in value]:
        raise error(f"{what} needs {', '.join(missing)}")
    return value
