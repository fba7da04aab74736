"""Typed errors raised throughout the package, and the checks of outside input.

Two branches matter for scripting: :class:`InputError` covers bad documents,
references and argument shapes (CLI exit code 2), :class:`NumericalError`
covers singular or numerically unusable systems (CLI exit code 3). Every
public entry point raises only :class:`GridError` subclasses.

What counts as a valid argument is decided here, once: :func:`_real` checks
a real scalar in a range, :func:`_count` a non-negative integer,
:func:`_array` a float array of a given shape, :func:`_instance` an object
of a given class and :func:`_instances` a sequence of them. Each raises the
error class its caller names (the last two always InvalidArgument), with
the argument's name in the message. Case and scenario files are read
alike: :func:`_read_text` reads UTF-8 text, :func:`_decode_json` is the one
JSON decoder, which refuses NaN, Infinity and repeated keys, and
:func:`_check_keys` checks the keys of a record.
"""

import json
import math
import numbers
from collections.abc import Iterable
from pathlib import Path

import numpy as np


class GridError(Exception):
    """Base class for every error raised by this package."""


class InputError(GridError):
    """Invalid document, reference, or argument shape."""


class NumericalError(GridError):
    """Linear-algebraic failure: singular, rank-deficient, or ill-conditioned."""


class MalformedDocument(InputError):
    """Case or scenario document violates the expected schema."""


class DanglingReference(InputError):
    """A branch or meter points at a bus or line that does not exist."""


class NoReferenceBus(InputError):
    """No bus is flagged as the angle reference."""


class MultipleReferenceBuses(InputError):
    """More than one bus is flagged as the angle reference."""


class DisconnectedNetwork(InputError):
    """The branch graph does not connect all buses."""


class ZeroReactance(InputError):
    """A branch has zero series reactance."""


class UnsupportedKindForDC(InputError):
    """Meter kind has no linear (active-power) model."""


class MissingMagnitudes(InputError):
    """A full AC state requires a voltage magnitude for every bus."""


class LengthMismatch(InputError):
    """Two meter-indexed vectors have different lengths."""


class DimensionMismatch(InputError):
    """Vector length does not match the matrix dimension it pairs with."""


class NoRedundancy(InputError):
    """Meter count does not exceed the state dimension."""


class InvalidArgument(InputError, ValueError):
    """An argument value is not usable: a number of the wrong type or out of
    range (a bool is never a number, and an int too large for a float such
    as 10**400 is out of range), an array whose entries are not numbers, are
    ragged or are not finite where finite values are required, or an object
    of the wrong kind, such as a mode name or a state that does not fit the
    network. With the other GridError classes it is all a public entry point
    raises. Also a ValueError, the class these cases raised before."""


class UnobservableNetwork(NumericalError):
    """The gain matrix is singular or numerically rank-deficient."""


class NumericallySingularOmega(NumericalError):
    """Every meter is critical: the residual covariance diagonal vanishes."""


# numbers.Real alone would do, but its ABC check is slow on hot paths.
_REAL_TYPES = (float, int, np.floating, np.integer, numbers.Real)
_INTEGER_TYPES = (int, np.integer)
# The largest float whose reciprocal overflows: 1/x is finite for x above it.
_RECIPROCAL_FLOOR = 2.0 ** -1024


def _shown(value) -> str:
    """repr(value), or a placeholder for an int too long to print."""
    try:
        return repr(value)
    except ValueError:
        return "an integer too long to print"


def _real(value, name: str, low: float = -math.inf, high: float = math.inf, *,
          include_low: bool = False, error: type = InvalidArgument) -> float:
    """value as a float when it is a real number (a bool is not) with
    low < value < high, or low <= value with ``include_low``; else error.
    Only finite values pass, and an int too large for a float fails."""
    if value.__class__ is float:  # the common case, before any isinstance
        number = value
    elif isinstance(value, _REAL_TYPES) and not isinstance(value, bool):
        try:
            number = float(value)
        except OverflowError:
            number = math.nan
    else:
        number = math.nan
    if (low <= number if include_low else low < number) and number < high:
        return number
    bounds = "" if (low, high) == (-math.inf, math.inf) else \
        f" in {'[' if include_low else '('}{low:g}, {high:g})"
    raise error(f"{name} must be a finite number{bounds}, got {_shown(value)}")


def _count(value, name: str, *, error: type = InvalidArgument) -> int:
    """value as an int when it is a non-negative integer (a bool is not one);
    else error."""
    if value.__class__ is int and value >= 0:  # the common case, as is
        return value
    if isinstance(value, _INTEGER_TYPES) and not isinstance(value, bool) \
            and value >= 0:
        return int(value)
    raise error(f"{name} must be a non-negative integer, got {_shown(value)}")


def _array(value, name: str, shape: tuple | None = None, *,
           ndim: int | None = None, finite: bool = False,
           positive: bool = False, error: type = DimensionMismatch) -> np.ndarray:
    """value as a float array.

    Entries that do not convert (not numbers, complex, ragged, or too large
    for a float) raise InvalidArgument, unwarned, and so do entries that
    are not finite with ``finite``, or with ``positive`` entries that are
    not finite and above 2^-1024, the positive floats whose reciprocal is
    finite too. A shape other than ``shape``, or a dimension count other
    than ``ndim``, raises error.
    """
    try:
        array = np.asarray(value)
        # a cast to float would drop a complex entry's imaginary part
        real = array.dtype.kind != "c"
        array = array.astype(float, copy=False) if real else array
    except (TypeError, ValueError, OverflowError):
        raise InvalidArgument(f"{name} must be an array of numbers") from None
    if not real:
        raise InvalidArgument(f"{name} must be an array of real numbers, "
                              f"got {array.dtype}")
    if shape is not None and array.shape != shape \
            or ndim is not None and array.ndim != ndim:
        expected = shape if shape is not None else f"{ndim} dimensions"
        raise error(f"{name} has shape {array.shape}, expected {expected}")
    if positive and not np.all((array > _RECIPROCAL_FLOOR) & (array < np.inf)):
        raise InvalidArgument(f"{name} must be finite and above 2^-1024, "
                              f"so that its reciprocal is finite")
    if finite and not np.isfinite(array).all():
        raise InvalidArgument(f"{name} must be finite")
    return array


def _instance(value, kind: type, name: str):
    """value when it is an instance of kind; else InvalidArgument."""
    if isinstance(value, kind):
        return value
    raise InvalidArgument(
        f"{name} must be a {kind.__name__}, got {type(value).__name__}")


def _instances(values, kind: type, name: str) -> tuple:
    """values as a tuple when it iterates over kind instances; else InvalidArgument."""
    values = tuple(values) if isinstance(values, Iterable) else (None,)
    if all(isinstance(value, kind) for value in values):
        return values
    raise InvalidArgument(f"{name} must be a sequence of {kind.__name__}")


def _reject_constant(name: str):
    """``parse_constant`` hook: NaN and +-Infinity are not numbers."""
    raise MalformedDocument(f"non-finite number {name} is not allowed")


def _reject_repeats(pairs: list[tuple[str, object]]) -> dict:
    """``object_pairs_hook``: a repeated key is refused, not read as its last value."""
    record = dict(pairs)
    if len(record) < len(pairs):
        seen = set()
        repeated = next(key for key, _ in pairs if key in seen or seen.add(key))
        raise MalformedDocument(f"repeated key {repeated!r}")
    return record


def _decode_json(text: str):
    """The JSON value of text, else MalformedDocument (also for NaN, Infinity,
    repeated keys, too-long integers, too deep nesting); InvalidArgument if not str."""
    _instance(text, str, "text")
    try:
        return json.loads(text, parse_constant=_reject_constant,
                          object_pairs_hook=_reject_repeats)
    except (ValueError, RecursionError) as exc:
        raise MalformedDocument(f"invalid JSON: {exc}") from exc


def _read_text(path) -> str:
    """The text of the file at path; MalformedDocument naming it if not UTF-8,
    InvalidArgument naming it if it cannot be read (missing, a directory, no
    permission), or if path is not a str or os.PathLike or holds a NUL."""
    try:
        return Path(path).read_text(encoding="utf-8")
    except UnicodeDecodeError as exc:
        raise MalformedDocument(f"{path}: not UTF-8 text: {exc}") from None
    except OSError as exc:
        raise InvalidArgument(f"{path}: cannot read: {exc.strerror or exc}") from None
    except (TypeError, ValueError):  # from Path() or from open()
        raise InvalidArgument(f"path must be a file path, got {path!r}") from None


def _check_keys(record: dict, allowed: set[str], required: set[str], context: str):
    if not isinstance(record, dict):
        raise MalformedDocument(f"{context}: expected an object")
    if not allowed.issuperset(record):
        raise MalformedDocument(
            f"{context}: unknown keys {sorted(set(record) - allowed)}")
    if not record.keys() >= required:
        raise MalformedDocument(
            f"{context}: missing keys {sorted(required - set(record))}")
