"""The input rule: how every value a caller hands in is read.

Each scalar is read by one rule, ``read`` with a ``Kind``: a count is an
integer >= 1 (2.0 is one), a seed an integer >= 0, any other scalar a finite
number; a bool is not a number, and a non-finite value is never a parameter.
A vector a caller hands in (a start point, a direction, a density's centre)
is read by ``vector``: n entries, each a finite number by the same rule, or
a FieldError that names the key.  Points from a caller are checked once,
where they enter, by ``points``, which names the expected (N, n) and the
shape it got.  The kinds of a config document's values and of a study's
options live here too, so a document and a direct construction share one
rule.
"""

from __future__ import annotations

import math
import numbers
import sys
from typing import Callable, NamedTuple, Optional

import numpy as np

__all__ = [
    "FieldError", "Kind", "read", "reject_unknown", "vector", "points",
    "MIN_SAMPLES", "enough",
    "COUNT", "SEED", "NUMBER", "POSITIVE",
    "OBJECT", "NUMBERS", "VECTOR", "POINTS", "FLAG", "DIRECTORY",
]


class FieldError(ValueError):
    """Invalid field construction or evaluation request."""


class Kind(NamedTuple):
    """What a number a caller hands in must be: the phrase an error names
    it by, the test of a value (n is the field set's dimension), and what
    the caller is handed for a value that passes."""

    must_be: str
    accepts: Callable[[object, int], bool]
    read: Callable = float


def read(name: str, value, kind: Kind, n: int = 0):
    if not kind.accepts(value, n):
        raise FieldError(f"{name} must be {kind.must_be.format(n=n)}, got {value!r}")
    return kind.read(value)


def reject_unknown(where: str, doc: dict, known) -> None:
    unknown = sorted(set(doc) - set(known))
    if unknown:
        raise FieldError(f"unknown {where} key(s) {unknown}; accepted: {sorted(known)}")


def _is_number(value) -> bool:
    return isinstance(value, numbers.Real) and not isinstance(value, bool)


def _finite(value) -> bool:
    # math.isfinite raises on an int too large for a float; this calls it not finite
    return _is_number(value) and abs(value) <= sys.float_info.max


def _whole(value) -> bool:
    return _finite(value) and value == math.floor(value)


def points(x, n: Optional[int], where: str) -> np.ndarray:
    """A caller's points as the float (N, n) batch evaluators take; with n
    None, a batch of any width n."""
    pts = np.asarray(x, dtype=float)
    if pts.ndim != 2 or n not in (None, pts.shape[1]):
        raise FieldError(f"{where}: points must be an (N, {n or 'n'}) array, "
                         f"got shape {pts.shape}")
    return pts


def vector(v, key: str, n: Optional[int]) -> np.ndarray:
    """A caller's vector as n finite float entries (with n None, any number
    of them).  Each entry is read by the number rule, so a bool or a string
    is not one; any other length, or an entry that is not a finite number,
    raises a FieldError that names ``key``."""
    try:
        entries = np.asarray(v, dtype=object).reshape(-1)
    except ValueError:
        entries = None
    if entries is None or not all(map(_is_number, entries)):
        raise FieldError(f"{key} must be {n or 'n'} numbers, got {v!r}")
    if n not in (None, len(entries)):
        raise FieldError(f"{key} has dimension {len(entries)}, expected n={n}")
    if not all(map(_finite, entries)):
        raise FieldError(f"{key} = {entries.tolist()} is not finite")
    return entries.astype(float)


# a count is an exact integer: 2.0 is 2, and 2.7 is an error, not 2
COUNT = Kind("an integer >= 1", lambda v, n: _whole(v) and v >= 1, int)
SEED = Kind("an integer >= 0", lambda v, n: _whole(v) and v >= 0, int)
NUMBER = Kind("a finite number", lambda v, n: _finite(v))
POSITIVE = Kind("a finite positive number", lambda v, n: _finite(v) and v > 0)

# the kinds of config values and study options beyond the scalars
OBJECT = Kind("an object", lambda v, n: isinstance(v, dict), lambda v: v)
NUMBERS = Kind("a list of numbers",
               lambda v, n: isinstance(v, (list, tuple)) and all(map(_is_number, v)), tuple)
VECTOR = Kind("a list of n = {n} numbers", lambda v, n: NUMBERS.accepts(v, n) and len(v) == n,
              lambda v: np.asarray(v, dtype=float))
POINTS = Kind("[lo, hi, count] of finite numbers with an integer count >= 1",
              lambda v, n: (isinstance(v, (list, tuple)) and len(v) == 3
                            and _finite(v[0]) and _finite(v[1]) and COUNT.accepts(v[2], n)),
              lambda v: np.linspace(float(v[0]), float(v[1]), int(v[2])))
FLAG = Kind("true or false", lambda v, n: isinstance(v, bool), bool)
# an output directory; absent (None) writes no files
DIRECTORY = Kind("a string", lambda v, n: v is None or isinstance(v, str), lambda v: v)

# the fewest samples an estimate is taken from: a density estimate's sample,
# the paths of kernel-bound, and each batch of condition_g_estimate
MIN_SAMPLES = 10_000


def enough(name: str, count: int) -> None:
    """A FieldError that names ``name`` when ``count`` is below MIN_SAMPLES."""
    if count < MIN_SAMPLES:
        raise FieldError(f"{name}={count} is below the {MIN_SAMPLES} samples an estimate needs")
