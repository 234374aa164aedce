"""The input rules every boundary shares.  An integer is an int or a numpy
integer, never a bool, and is handed on as a Python int; a finite real is a
finite int or float, numpy's included, never a bool.  A boundary states its
interval and the (exception class, message) it raises; the message is
formatted with the refused value.  A numeric array has an integer, float or
complex dtype, never bool, string or object, and is handed on as float64 or
complex128; a real array leaves out complex too, and is handed on as float64.
A random stream is a numpy Generator."""

import math

import numpy as np


def integer(value):
    """`value` as a Python int when it is an integer, else None."""
    ok = isinstance(value, (int, np.integer)) and not isinstance(value, bool)
    return int(value) if ok else None


def count(value, lo: int, hi, message: str, error=ValueError, below=None, above=None) -> int:
    """`value` as a Python int when it is an integer in [lo, hi] (unbounded
    above when hi is None), else raises error(message), formatted with the
    value.  `below`, an (error, message) pair, replaces them for an integer
    out of range, and `above` for one above hi."""
    n = integer(value)
    if n is not None and lo <= n and (hi is None or n <= hi):
        return n
    if n is not None:
        error, message = (above if n >= lo and above else below) or (error, message)
    raise error(message.format(value))


def real(value, lo: float, hi: float, message: str, error=ValueError,
         hi_closed: bool = False) -> None:
    """Raises error(message) unless `value` is a finite real in the open
    interval (lo, hi), or in (lo, hi] with `hi_closed`."""
    finite = (math.isfinite(value) if isinstance(value, (float, np.floating))
              else integer(value) is not None)
    if not (finite and (lo < value < hi or (hi_closed and value == hi))):
        raise error(message.format(value))


def numeric_kind(arr: np.ndarray, what: str, kinds: str = "iufc") -> np.ndarray:
    """`arr` itself, not copied; raises ValueError naming `what` unless its
    dtype is of one of `kinds` (integer, unsigned, float and complex by
    default), so a bool, string or object array is refused instead of parsed."""
    if arr.dtype.kind not in kinds:
        numbers = "integer, real or complex" if "c" in kinds else "integer or real"
        raise ValueError(f"{what} must be {numbers} numbers, not dtype {arr.dtype}")
    return arr


def numeric_dtype(dtype: np.dtype) -> type:
    """The dtype a numeric array of `dtype` is handed on as: complex128 when
    complex, else float64."""
    return np.complex128 if dtype.kind == "c" else np.float64


def numeric(values, what: str) -> np.ndarray:
    """`values` as a new float64 array, complex128 when complex, under the
    `numeric_kind` rule."""
    arr = numeric_kind(np.asarray(values), what)
    return arr.astype(numeric_dtype(arr.dtype))


def reals(values, what: str) -> np.ndarray:
    """`values` as a float64 array, the same array when it already is one,
    under the `numeric_kind` rule without complex."""
    return np.asarray(numeric_kind(np.asarray(values), what, "iuf"), dtype=np.float64)


def generator(rng, who: str) -> None:
    """Raises ValueError unless `rng` is a numpy Generator."""
    if not isinstance(rng, np.random.Generator):
        raise ValueError(f"{who} needs a numpy Generator")
