"""Measure values: exact dyadic rationals or Monte-Carlo estimates."""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from fractions import Fraction
from types import MappingProxyType
from typing import Mapping, Optional

# Fraction("1e-10000000") spends seconds on 10**10000000; a larger exponent
# than this is refused, as int() refuses a string of over 4,300 digits.
MAX_EXPONENT = 4300
_EXPONENT = re.compile(r"[eE]([-+]?\d+(?:_\d+)*)\s*\Z")  # as Fraction reads it


@dataclass(frozen=True)
class MeasureValue:
    """Either an exact rational measure or an estimate with a standard error.

    At least one of `exact` / `estimate` is present.  Exact values come from
    rank computations and never touch floating point.  Values are shared
    (the plane kernel's `_window_value` shares one value per rank), so
    `meta` is kept as a read-only view of a copy of what was passed.
    """

    exact: Optional[Fraction] = None
    estimate: Optional[float] = None
    stderr: Optional[float] = None
    samples: Optional[int] = None
    meta: Mapping = field(default_factory=dict, compare=False)

    def __post_init__(self):
        if self.exact is None and self.estimate is None:
            raise ValueError("measure needs an exact value or an estimate")
        if self.exact is not None and not 0 <= self.exact <= 1:
            raise ValueError(f"exact measure {self.exact} outside [0, 1]")
        object.__setattr__(self, "meta", MappingProxyType(dict(self.meta)))

    @classmethod
    def of_exact(cls, value: Fraction | int, **meta) -> "MeasureValue":
        return cls(exact=value if isinstance(value, Fraction) else Fraction(value), meta=meta)

    @classmethod
    def of_estimate(cls, mean: float, stderr: float, samples: int, **meta) -> "MeasureValue":
        return cls(estimate=float(mean), stderr=float(stderr), samples=samples, meta=meta)

    def as_float(self) -> float:
        return float(self.exact) if self.exact is not None else float(self.estimate)

    def to_json(self) -> dict:
        out: dict = {}
        if self.exact is not None:
            out["exact"] = format_fraction(self.exact)
            out["value"] = float(self.exact)
        if self.estimate is not None:
            out["estimate"] = self.estimate
            out["stderr"] = self.stderr
            out["samples"] = self.samples
        if self.meta:
            out["meta"] = dict(sorted(self.meta.items()))
        return out


def format_fraction(x: Fraction) -> str:
    return str(x.numerator) if x.denominator == 1 else f"{x.numerator}/{x.denominator}"


def parse_fraction(s: str) -> Fraction:
    """Fraction(s), refusing an exponent of magnitude past `MAX_EXPONENT`
    with a message that quotes at most the first 20 characters of `s`."""
    exponent = _EXPONENT.search(s)
    if exponent and abs(int(exponent[1])) > MAX_EXPONENT:
        shown = repr(s[:20]) + ("..." if len(s) > 20 else "")
        raise ValueError(f"exponent of {shown} passes {MAX_EXPONENT}")
    return Fraction(s)
