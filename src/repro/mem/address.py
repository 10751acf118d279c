"""Address-mapping helpers.

The whole memory system works in units of cache-line addresses ("lines"):
``line = byte_address // line_size``.  Workload generators produce line
addresses directly (the coalescer takes care of byte-level patterns), so
these helpers centralise the mapping from a line to cache sets, L2 banks and
DRAM channels/banks/rows.
"""

from __future__ import annotations

from typing import NamedTuple


def line_of(byte_address: int, line_size: int) -> int:
    """Cache-line address containing ``byte_address``."""
    if byte_address < 0:
        raise ValueError("byte_address must be non-negative")
    return byte_address // line_size


def l2_bank_of(line: int, num_banks: int) -> int:
    """L2 partition a line maps to (low-order interleaving)."""
    return line % num_banks


class DRAMCoordinates(NamedTuple):
    channel: int
    bank: int
    row: int


def dram_location(line: int, channels: int, banks: int,
                  row_lines: int) -> tuple[int, int, int]:
    """Map a line address to a plain ``(channel, bank, row)`` tuple.

    Interleaving is *row-chunked*: ``row_lines`` consecutive lines live in
    one (channel, bank, row), then the next chunk moves to the next channel.
    A sequential stream therefore produces runs of row-buffer hits while
    still spreading across channels and banks at coarse grain — the
    behaviour GPU memory controllers' address hashing aims for.  (Pure
    line-granularity interleaving makes every stream touch every channel,
    which together with many concurrent streams thrashes every row buffer.)
    The DRAM model calls this once per request, so it builds no
    :class:`DRAMCoordinates`.
    """
    chunk = line // row_lines
    return (chunk % channels, (chunk // channels) % banks,
            chunk // (channels * banks))


def dram_coordinates(line: int, channels: int, banks: int, row_lines: int) -> DRAMCoordinates:
    """:func:`dram_location` with named fields."""
    return DRAMCoordinates._make(dram_location(line, channels, banks,
                                               row_lines))
