"""Address hashing and Bloom-style filters.

Two structures in the paper use single-hash Bloom filtering:

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

from typing import List

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


class CountingBloomFilter:
    """A single-hash counting Bloom filter over addresses.

    Insertions and removals keep a per-bucket population count so membership
    queries stay correct as entries leave the window (this mirrors how the
    hash-based ERT clears an epoch's contribution when the epoch commits).
    False positives arise exactly as in hardware: two different addresses
    sharing the same low bits.
    """

    __slots__ = ("_hash", "_counts", "_population")

    def __init__(self, index_bits: int) -> None:
        self._hash = AddressHash(index_bits)
        self._counts: List[int] = [0] * self._hash.num_buckets
        self._population = 0

    @property
    def index_bits(self) -> int:
        """Number of address bits used for indexing."""
        return self._hash.index_bits

    @property
    def population(self) -> int:
        """Total number of addresses currently inserted."""
        return self._population

    def insert(self, address: int) -> int:
        """Insert ``address``; return the bucket index used."""
        index = self._hash.index(address)
        self._counts[index] += 1
        self._population += 1
        return index

    def remove(self, address: int) -> None:
        """Remove one previous insertion of ``address``."""
        index = self._hash.index(address)
        if self._counts[index] <= 0:
            raise ConfigurationError(
                f"cannot remove address {address:#x}: bucket {index} is already empty"
            )
        self._counts[index] -= 1
        self._population -= 1

    def may_contain(self, address: int) -> bool:
        """Whether the filter may contain ``address`` (no false negatives)."""
        return self._counts[self._hash.index(address)] > 0

    def clear(self) -> None:
        """Remove every entry."""
        self._counts = [0] * self._hash.num_buckets
        self._population = 0
