"""Physical-address decomposition with XOR bank hashing.

Bit layout (low to high): 64-byte line offset, channel bits (cacheline
interleaving across channels, as on the studied SoCs), column bits within
a row, bank bits, row bits. The bank index is XOR-hashed with the low row
bits (paper Table 1: "XOR-based address-to-bank mapping") so that
same-stride streams spread across banks.
"""

from __future__ import annotations

from typing import NamedTuple

from repro.dram.timing import DramTiming
from repro.errors import ConfigurationError


def _log2(value: int, what: str) -> int:
    if value <= 0 or value & (value - 1):
        raise ConfigurationError(f"{what} must be a power of two, got {value}")
    return value.bit_length() - 1


class DecodedAddress(NamedTuple):
    """Coordinates of one cacheline."""

    channel: int
    bank: int
    row: int
    column: int


class AddressMapper:
    """Decodes byte addresses into (channel, bank, row, column)."""

    LINE_BITS = 6  # 64-byte cachelines

    def __init__(self, timing: DramTiming):
        self.timing = timing
        self.channel_bits = _log2(timing.channels, "channels")
        self.bank_bits = _log2(timing.banks_per_channel, "banks_per_channel")
        lines_per_row = timing.row_bytes // 64
        self.column_bits = _log2(lines_per_row, "row_bytes/64")
        # Each field is (address >> its low bit) & its mask. The bit
        # layout is defined here only: CMPSystem.run decodes with these
        # shifts and masks inline.
        self.channel_mask = timing.channels - 1
        self.column_shift = self.LINE_BITS + self.channel_bits
        self.column_mask = lines_per_row - 1
        self.bank_shift = self.column_shift + self.column_bits
        self.bank_mask = timing.banks_per_channel - 1
        self.row_shift = self.bank_shift + self.bank_bits

    def decode(self, address: int) -> DecodedAddress:
        """Map a byte address to its DRAM coordinates."""
        if address < 0:
            raise ConfigurationError(f"address must be >= 0, got {address}")
        row = address >> self.row_shift
        return DecodedAddress(
            (address >> self.LINE_BITS) & self.channel_mask,
            ((address >> self.bank_shift) ^ row) & self.bank_mask,
            row,
            (address >> self.column_shift) & self.column_mask,
        )

    @property
    def line_stride(self) -> int:
        """Byte stride between consecutive cachelines."""
        return 64
