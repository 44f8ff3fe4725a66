"""Global enumeration bounds.

Every brute-force operation in the library is desk-scale by design: it either
finishes quickly or rejects its input with :class:`~framebundles.errors.BoundExceeded`.
The knobs below are module-level so a session can raise them deliberately.
"""

from .errors import BoundExceeded

# Largest order for which a dense Cayley table may be materialized (7! = 5040).
MAX_TABLE_ORDER = 5040

# Largest n accepted by the symmetric-group constructor.
MAX_SYMMETRIC_N = 8

# Largest number of objects an exhaustive enumeration (frames, wreath
# elements, automorphisms of a group-set) may produce.
MAX_ENUMERATION = 20_000


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


def check_enumeration(count: int, what: str) -> None:
    if count > MAX_ENUMERATION:
        raise BoundExceeded(
            f"enumerating {_estimate(count)} {what} exceeds the bound {MAX_ENUMERATION}"
        )
