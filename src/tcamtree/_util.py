"""Small arithmetic and formatting helpers, and the collector pause of bulk builds."""

import gc
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


def parse_decimal(text: str) -> int:
    """The value of `text`, a run of ASCII digits: the one reader of a number in a
    database, a trace or a flag, once the flag's reader takes off its `-`, `/` or `.`.
    A bare `int` would also take a sign, `_` between digits, surrounding whitespace
    and non-ASCII digits, and read `1_0` as 10."""
    if text.isascii() and text.isdigit():
        return int(text)
    raise ValueError(f"invalid literal for int() with base 10: {text!r}")


def parse_wxd(text: str) -> tuple[int, int]:
    """A `WxD` geometry (width x depth), as given on the command line."""
    w, _, d = text.lower().partition("x")
    try:
        return parse_decimal(w), parse_decimal(d)
    except ValueError:
        raise ValueError(f"expected a WxD geometry such as 44x512, got {text!r}") from None


class _PausedGC:
    """Pause Python's cyclic garbage collector for a bulk build: `with paused_gc:`.

    Parsing a database and planning a tree allocate hundreds of thousands of
    objects at once, and the collector traces them again and again while
    they are made, to free nothing: a tree's tables point to their child
    tables, a super-table to its member tables and a state to its tree, and
    nothing points back, so reference counting alone frees them.

    The pause is process-wide, as the collector is.  When the collector is
    already off it does nothing, so nested pauses are no-ops; otherwise it
    disables the collector and turns it back on when the block ends, by
    return or by raise.  Entering and leaving allocate no object (one shared
    instance and static methods: bound methods would be allocated on every
    use), so the pause itself sets off no collection.
    """

    _resume: list[bool] = []   # one flag per open pause: re-enable on exit?

    @staticmethod
    def __enter__():
        _PausedGC._resume.append(gc.isenabled())
        gc.disable()

    @staticmethod
    def __exit__(*exc_info):
        if _PausedGC._resume.pop():
            gc.enable()


paused_gc = _PausedGC()
