"""Text and JSON forms for polynomials over Z4.

Grammar: a sum of terms joined by '+', whitespace ignored.  A term is
one of  coeff | x | x^K | coeff x | coeff x^K  with coeff a single digit
in {0,1,2,3} and K a nonnegative decimal exponent.  Repeated exponents
are summed mod 4.  The JSON alternative is an ascending coefficient
array [c0, c1, ...].

Canonical rendering lists terms by descending exponent, omits zero
terms and unit coefficients, and renders the zero polynomial as "0".

MAX_LENGTH bounds every length an input can ask for: a term exponent,
the length of a coefficient array less one, and the block lengths r
and s (checked by code.validate).  The text and array bounds are
checked before any exponent is converted to an int and before any
coefficient list is built, so a spec can never ask for more than
MAX_LENGTH + 1 coefficients.
"""

from __future__ import annotations

import re

from .errors import PolyParseError
from .z4poly import Poly, canon

MAX_LENGTH = 1 << 16

_TERM = re.compile(r"^(?:([0-3])|([0-3])?x(?:\^(\d+))?)$")


def parse(text: str) -> Poly:
    """Parse the '+'-joined term grammar into a canonical tuple."""
    stripped = re.sub(r"\s+", "", text)
    if not stripped:
        raise PolyParseError("empty polynomial text", rule="poly ::= term ('+' term)*")
    coeffs: dict[int, int] = {}
    for part in stripped.split("+"):
        m = _TERM.match(part)
        if not m:
            if re.search(r"[0-9]x|x\^", part) and re.match(r"^[4-9]", part):
                rule = "coeff in {0,1,2,3}"
            elif part == "":
                rule = "poly ::= term ('+' term)*"
            else:
                rule = "term ::= coeff | x | x^K | coeff x | coeff x^K"
            raise PolyParseError(f"malformed term {part!r}", rule=rule)
        const, coeff, exp = m.groups()
        if const is not None:
            c, k = int(const), 0
        else:
            c = int(coeff) if coeff is not None else 1
            k = _exponent(exp) if exp is not None else 1
        coeffs[k] = (coeffs.get(k, 0) + c) % 4
    deg = max(coeffs)
    return canon(coeffs.get(i, 0) for i in range(deg + 1))


def _exponent(digits: str) -> int:
    """The value of a decimal exponent, checked against MAX_LENGTH on its
    digits first, so an exponent of any length is rejected unconverted."""
    digits = digits.lstrip("0") or "0"
    if len(digits) > len(str(MAX_LENGTH)) or int(digits) > MAX_LENGTH:
        raise PolyParseError(f"term exponent exceeds {MAX_LENGTH}",
                             rule=f"K <= {MAX_LENGTH}")
    return int(digits)


def render(a: Poly) -> str:
    """Canonical descending-exponent rendering."""
    if not a:
        return "0"
    parts = []
    for k in range(len(a) - 1, -1, -1):
        c = a[k]
        if not c:
            continue
        if k == 0:
            parts.append(str(c))
        elif k == 1:
            parts.append("x" if c == 1 else f"{c}x")
        else:
            parts.append(f"x^{k}" if c == 1 else f"{c}x^{k}")
    return "+".join(parts)


def from_json(value) -> Poly:
    """Accept either the string grammar or an ascending coefficient array."""
    if isinstance(value, str):
        return parse(value)
    if isinstance(value, (list, tuple)):
        if not all(isinstance(c, int) and not isinstance(c, bool) for c in value):
            raise PolyParseError("coefficient array entries must be integers",
                                 rule="array ::= [c0, c1, ...]")
        if len(value) > MAX_LENGTH + 1:
            raise PolyParseError(f"coefficient array longer than {MAX_LENGTH + 1}",
                                 rule=f"len(array) <= {MAX_LENGTH + 1}")
        return canon(value)
    raise PolyParseError(f"polynomial must be a string or array, got {type(value).__name__}",
                         rule="poly ::= string | array")
