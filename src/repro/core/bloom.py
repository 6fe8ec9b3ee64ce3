"""Address hashing for the paper's single-hash Bloom-style tables.

Two structures in the paper index a small SRAM by a hash of the address:

* the **hash-based Epoch Resolution Table** (Section 3.4), which indexes a
  small SRAM with the low ``n`` bits of the address and keeps one
  epoch-bit-vector per row, and
* the **Store Sequence Bloom Filter (SSBF)** of the Store Vulnerability
  Window re-execution scheme (Section 3.5), which keeps one store sequence
  number per row.

Both reduce a full address to a small index with :class:`AddressHash`.  The
hash granularity is the 8-byte word: the workloads issue word-aligned
accesses, so hashing at byte granularity would waste three index bits and
hashing at line granularity would hide genuine word conflicts.
"""

from __future__ import annotations

from repro.common.errors import ConfigurationError

#: Addresses are hashed at 8-byte-word granularity.
WORD_SHIFT = 3


class AddressHash:
    """Maps byte addresses to ``2**index_bits`` buckets by their low word bits."""

    __slots__ = ("index_bits", "mask")

    def __init__(self, index_bits: int) -> None:
        if not 1 <= index_bits <= 32:
            raise ConfigurationError(f"index_bits must lie in [1, 32], got {index_bits}")
        self.index_bits = index_bits
        self.mask = (1 << index_bits) - 1

    @property
    def num_buckets(self) -> int:
        """Number of distinct hash buckets."""
        return self.mask + 1

    def index(self, address: int) -> int:
        """Return the bucket index for ``address``."""
        return (address >> WORD_SHIFT) & self.mask
