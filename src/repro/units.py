"""Unit conversion helpers used across the code base.

All sizes are carried internally either as *bytes* (``int``) or as *EPC
pages* (``int``, 4 KiB each), mirroring how the Intel SGX driver accounts
for protected memory.  All simulated durations are ``float`` seconds.

The helpers below keep call-sites readable (``mib(93.5)`` instead of
``int(93.5 * 1024 * 1024)``) and centralise the rounding rules so EPC
accounting never drifts by a partial page.
"""

from __future__ import annotations

KIB = 1024
MIB = 1024 * KIB
GIB = 1024 * MIB

#: Size of one EPC page, fixed by the SGX architecture.
EPC_PAGE_BYTES = 4 * KIB


def kib(n: float) -> int:
    """Return *n* KiB expressed in bytes."""
    return int(n * KIB)


def mib(n: float) -> int:
    """Return *n* MiB expressed in bytes."""
    return int(n * MIB)


def gib(n: float) -> int:
    """Return *n* GiB expressed in bytes."""
    return int(n * GIB)


def bytes_to_mib(n: int) -> float:
    """Return *n* bytes expressed in (fractional) MiB."""
    return n / MIB


def pages(n_bytes: int) -> int:
    """Number of whole EPC pages needed to hold *n_bytes* (round up).

    Allocating any fraction of a page consumes the full page, exactly as
    the SGX driver does.
    """
    if n_bytes < 0:
        raise ValueError(f"negative size: {n_bytes}")
    return -(-n_bytes // EPC_PAGE_BYTES)


def pages_to_bytes(n_pages: int) -> int:
    """Return the byte size spanned by *n_pages* EPC pages."""
    if n_pages < 0:
        raise ValueError(f"negative page count: {n_pages}")
    return n_pages * EPC_PAGE_BYTES


def pages_to_mib(n_pages: int) -> float:
    """Return *n_pages* EPC pages expressed in (fractional) MiB."""
    return pages_to_bytes(n_pages) / MIB


def minutes(n: float) -> float:
    """Return *n* minutes in seconds."""
    return n * 60.0


def hours(n: float) -> float:
    """Return *n* hours in seconds."""
    return n * 3600.0


def fmt_bytes(n: int) -> str:
    """Human-readable rendering of a byte count (``12.0 MiB``)."""
    if n >= GIB:
        return f"{n / GIB:.1f} GiB"
    if n >= MIB:
        return f"{n / MIB:.1f} MiB"
    if n >= KIB:
        return f"{n / KIB:.1f} KiB"
    return f"{n} B"


def fmt_duration(seconds: float) -> str:
    """Human-readable rendering of a duration (``1h 22min``)."""
    seconds = float(seconds)
    if seconds < 0:
        return "-" + fmt_duration(-seconds)
    if seconds < 60:
        return f"{seconds:.1f}s"
    total_minutes, secs = divmod(int(round(seconds)), 60)
    hrs, mins = divmod(total_minutes, 60)
    if hrs == 0:
        return f"{mins}min {secs}s"
    return f"{hrs}h {mins:02d}min"
