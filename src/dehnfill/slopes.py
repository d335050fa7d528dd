r"""
Exact arithmetic on slopes of simple closed curves on a torus.

A slope is an element of Q u {inf}, i.e. a point of the rational projective
line, stored as a coprime integer pair ``num/den`` with ``den >= 0`` and
``inf = 1/0``.  All predicates are decided by integer determinant signs;
nothing here ever touches floating point.
"""

import re
from fractions import Fraction
from math import gcd

from ._value import Value, setfield

__all__ = [
    "ProjectiveSlope",
    "SlopeInterval",
    "SlopeParseError",
    "INFINITY",
    "LONGITUDE",
    "distance",
    "canonical_meridian",
    "parse_slope",
    "format_slope",
]


class ProjectiveSlope(Value):
    """A coprime pair ``num/den`` with ``den >= 0``; ``inf`` is ``1/0``."""

    __slots__ = ("num", "den")

    def __init__(self, num: int, den: int):
        if num == 0 and den == 0:
            raise ValueError("0/0 is not a slope")
        if gcd(abs(num), abs(den)) != 1:
            raise ValueError("slope pair must be coprime: %d/%d" % (num, den))
        if den < 0 or (den == 0 and num != 1):
            raise ValueError("slope pair not normalized: %d/%d" % (num, den))
        setfield(self, "num", num)
        setfield(self, "den", den)

    def __eq__(self, other):
        if other.__class__ is ProjectiveSlope:
            return self.num == other.num and self.den == other.den
        return NotImplemented

    def __hash__(self):
        return hash((self.num, self.den))

    @staticmethod
    def of(num, den=1):
        """Build a slope from any integer pair, reducing and normalizing."""
        if num == 0 and den == 0:
            raise ValueError("0/0 is not a slope")
        g = gcd(abs(num), abs(den))
        num, den = num // g, den // g
        if den < 0 or (den == 0 and num < 0):
            num, den = -num, -den
        return ProjectiveSlope(num, den)

    def __str__(self):
        return format_slope(self)

    def __repr__(self):
        return "ProjectiveSlope(%d, %d)" % (self.num, self.den)


INFINITY = ProjectiveSlope(1, 0)
LONGITUDE = ProjectiveSlope(0, 1)


def _det(x: ProjectiveSlope, y: ProjectiveSlope) -> int:
    return x.num * y.den - x.den * y.num


def distance(x: ProjectiveSlope, y: ProjectiveSlope) -> int:
    """Minimal geometric intersection number of two slopes.

    Equals the absolute determinant of the coprime coordinate pairs; it is
    symmetric and vanishes exactly when the slopes agree.
    """
    return abs(_det(x, y))


class SlopeInterval(Value):
    """The arc of the projective line bounded by ``end_a`` and ``end_b`` that
    does not contain ``excluded``.  An endpoint belongs to the arc when its
    closure flag is set; both are open by default."""

    __slots__ = ("end_a", "end_b", "excluded", "closed_a", "closed_b")

    def __init__(
        self,
        end_a: ProjectiveSlope,
        end_b: ProjectiveSlope,
        excluded: ProjectiveSlope,
        closed_a: bool = False,
        closed_b: bool = False,
    ):
        if end_a == end_b:
            raise ValueError("interval endpoints must be distinct")
        if excluded in (end_a, end_b):
            raise ValueError("excluded witness must avoid the endpoints")
        setfield(self, "end_a", end_a)
        setfield(self, "end_b", end_b)
        setfield(self, "excluded", excluded)
        setfield(self, "closed_a", closed_a)
        setfield(self, "closed_b", closed_b)

    def __eq__(self, other):
        if other.__class__ is SlopeInterval:
            return (
                self.end_a == other.end_a
                and self.end_b == other.end_b
                and self.excluded == other.excluded
                and self.closed_a == other.closed_a
                and self.closed_b == other.closed_b
            )
        return NotImplemented

    def __hash__(self):
        return hash((self.end_a, self.end_b, self.excluded, self.closed_a, self.closed_b))

    def _side(self, s: ProjectiveSlope) -> int:
        # Sign of the quadratic form vanishing exactly at the endpoints; the
        # two complementary arcs carry opposite signs.
        return _det(self.end_a, s) * _det(self.end_b, s)

    def contains(self, s: ProjectiveSlope) -> bool:
        if s == self.end_a:
            return self.closed_a
        if s == self.end_b:
            return self.closed_b
        return self._side(s) * self._side(self.excluded) < 0

    def endpoints(self):
        return frozenset((self.end_a, self.end_b))

    def __str__(self):
        return "arc(%s, %s; excluded %s)" % (self.end_a, self.end_b, self.excluded)


def canonical_meridian(delta: ProjectiveSlope):
    """Canonical meridian selection for a degeneracy slope.

    ``delta`` is given in a provisional basis ``(mu0, lambda)`` with
    ``<mu0, lambda> = 1``.  Returns ``(k, new_delta)`` where ``mu0 + k*lambda``
    minimizes the distance to ``delta`` over all integers, and ``new_delta``
    is ``delta`` rewritten in the basis ``(mu0 + k*lambda, lambda)``.  When
    the longitude-distance is 2 there are two minimizers and the tie is
    broken so that ``new_delta = 2/1``.
    """
    if delta == LONGITUDE:
        raise ValueError("degeneracy slope equals longitude")
    u, v = delta.num, delta.den
    if u < 0:
        u, v = -u, -v
    # distance(mu0 + k*lambda, delta) = |v - k*u|; minimize over k.  On the
    # exact tie 2r == u keep the lower k, so the residue is +u/2.
    k = v // u
    r = v - k * u  # 0 <= r < u
    if 2 * r > u:
        k += 1
    new_delta = ProjectiveSlope.of(u, v - k * u)
    return k, new_delta


# Exact-number text has ASCII digits only, not the other digits, decimals,
# exponents and separators that ``int`` and ``Fraction`` take.  A missing
# integer leaves its group of _SLOPE empty; the spans give error positions.
_INTEGER = "[+-]?[0-9]+"
_SLOPE = re.compile("(%s)?(?:(/)(%s)?)?" % (_INTEGER, _INTEGER))
_EXACT = re.compile("%s(?:/[0-9]+)?" % _INTEGER)


class SlopeParseError(ValueError):
    """Raised on malformed slope text; carries the offending position."""

    def __init__(self, text, pos, reason):
        self.text = text
        self.pos = pos
        self.reason = reason
        super().__init__("bad slope %r at position %d: %s" % (text, pos, reason))


def parse_slope(text: str):
    """Parse ``"a/b"``, ``"a"`` or ``"inf"``.

    Returns ``(slope, normalized)`` where ``normalized`` flags input that was
    not already a reduced, den-positive pair (callers may warn on it).
    """
    s = text.strip()
    if s in ("inf", "-inf", "+inf"):
        return INFINITY, False
    if not s:
        raise SlopeParseError(text, 0, "empty")
    m = _SLOPE.match(s)
    if m[1] is None:
        raise SlopeParseError(text, 0, "expected integer")
    if m[2] and m[3] is None:
        raise SlopeParseError(text, m.end(2), "expected integer")
    if m.end() != len(s):
        raise SlopeParseError(text, m.end(), "trailing characters" if m[2] else "expected '/'")
    num, den = int(m[1]), int(m[3] or 1)
    if num == 0 and den == 0:
        raise SlopeParseError(text, 0, "0/0 is not a slope")
    normalized = gcd(abs(num), abs(den)) != 1 or den < 0 or (den == 0 and num != 1)
    return ProjectiveSlope.of(num, den), normalized


def _exact(value, where):
    """A JSON int or ``"a/b"`` string as a ``Fraction``; ``where`` names the
    field in the error."""
    if type(value) is int or isinstance(value, str) and _EXACT.fullmatch(value):
        try:
            return Fraction(value)
        except (ValueError, ZeroDivisionError):
            pass
    raise ValueError('%s: expected an integer or an "a/b" string' % where)


def format_slope(s: ProjectiveSlope) -> str:
    if s.den == 0:
        return "inf"
    if s.den == 1:
        return str(s.num)
    return "%d/%d" % (s.num, s.den)
