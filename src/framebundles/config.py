"""Global enumeration bounds.

Every brute-force operation in the library is desk-scale by design: it either
finishes quickly or rejects its input with :class:`~framebundles.errors.BoundExceeded`.
The knobs below are module-level so a session can raise them deliberately.
"""

from .errors import BoundExceeded

# Largest order for which a dense Cayley table may be materialized (7! = 5040).
# The symmetric-group constructor refuses S_n past the least n with n! above it.
MAX_TABLE_ORDER = 5040

# Largest number of objects an exhaustive enumeration (frames, wreath
# elements, automorphisms of a group-set) may produce.
MAX_ENUMERATION = 20_000

# Largest circle-group work one request may do: angles parsed (k x loops),
# sheet moves of a holonomy (k x |word|), letters transported (|word|) or
# path samples parsed.  A path sample costs about 3 us of a whole
# division-check request when its rates repeat, and about 7 us when every
# rate is new (six-digit denominators), so the bound is 1 to 2 s of that
# work; a letter move costs far less.  A path of that many samples is a
# 10.5 to 12 MB JSON document, and its request peaks at 54 to 65 MB of
# resident memory, as each sample becomes an integer triple while it is
# decoded (2 CPUs, Python 3.11).
MAX_CIRCLE_WORK = 300_000


def _estimate(n: int) -> str:
    """``n`` in decimal, or a power of two below it when ``n`` has too many
    digits for ``str`` (``sys.get_int_max_str_digits``), as 2000! has."""
    try:
        return str(n)
    except ValueError:
        return f"at least 2^{n.bit_length() - 1}"


def check_table_order(order: int, what: str = "group") -> None:
    if order > MAX_TABLE_ORDER:
        raise BoundExceeded(
            f"{what} of order {_estimate(order)} exceeds the table bound {MAX_TABLE_ORDER}"
        )


def check_table_entries(count: int, what: str) -> None:
    """Refuse a table of more entries than the largest Cayley table admitted."""
    if count > MAX_TABLE_ORDER**2:
        raise BoundExceeded(
            f"{what}: {_estimate(count)} entries exceed config.MAX_TABLE_ORDER ** 2 = "
            f"{MAX_TABLE_ORDER**2}"
        )


def check_circle_work(count: int, what: str) -> None:
    if count > MAX_CIRCLE_WORK:
        raise BoundExceeded(
            f"{what}: {_estimate(count)} exceeds config.MAX_CIRCLE_WORK = {MAX_CIRCLE_WORK}"
        )


def check_enumeration(count: int, what: str) -> None:
    if count > MAX_ENUMERATION:
        raise BoundExceeded(
            f"enumerating {_estimate(count)} {what} exceeds the bound {MAX_ENUMERATION}"
        )
