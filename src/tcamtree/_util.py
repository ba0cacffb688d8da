"""Small arithmetic and formatting helpers."""

from fractions import Fraction


def ceil_div(a: int, b: int) -> int:
    return -(-a // b)


def ceil_log2(n: int) -> int:
    if n < 1:
        raise ValueError("ceil_log2 requires n >= 1")
    return (n - 1).bit_length()


def fixed_decimal_str(value, places: int = 3) -> str:
    """Render a rational with a fixed number of decimal places.

    Deterministic (round-half-even), so reports built from it are byte-stable.
    """
    value = Fraction(value)
    scale = 10 ** places
    q = round(value * scale)
    sign = "-" if q < 0 else ""
    whole, frac = divmod(abs(q), scale)
    return f"{sign}{whole}.{frac:0{places}d}"


def parse_wxd(text: str) -> tuple[int, int]:
    """A `WxD` geometry (width x depth), as given on the command line."""
    w, x, d = text.lower().partition("x")
    if not (x and w.isdigit() and d.isdigit()):
        raise ValueError(f"expected a WxD geometry such as 44x512, got {text!r}")
    return int(w), int(d)
