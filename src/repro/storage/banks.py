"""Flash bank partitioning (paper Section 3.3).

"In order to maintain fast read access to programs and other data in
secondary storage during the slow erase/write cycles of flash memory, it
may prove necessary to partition flash memory into two or more banks.
One bank would hold read-mostly data, such as application programs,
while others would be used for data that is more frequently written."

A :class:`BankPartition` divides a device's banks into a **write pool**
(absorbs the write/erase churn) and a **read-mostly pool** (programs and
cold data, almost never busy).  With a single bank both pools collapse
onto it and reads inevitably stall behind erases -- the baseline
experiment E8 quantifies.
"""

from __future__ import annotations

from typing import List

from repro.devices.flash import FlashMemory


class BankPartition:
    """Assignment of flash banks to write vs read-mostly pools."""

    def __init__(self, flash: FlashMemory, write_banks: int) -> None:
        """``write_banks`` is how many banks take the write churn.

        The remaining banks form the read-mostly pool.  ``write_banks``
        may equal the device's bank count, in which case there is no
        read-mostly pool and cold data shares banks with the churn
        (the unpartitioned configuration).
        """
        if not 1 <= write_banks <= flash.num_banks:
            raise ValueError(
                f"write_banks={write_banks} outside [1, {flash.num_banks}]"
            )
        self.flash = flash
        self.write_pool: List[int] = list(range(write_banks))
        rest = list(range(write_banks, flash.num_banks))
        # With no dedicated read-mostly banks, cold data lands in the
        # write pool too.
        self.read_mostly_pool: List[int] = rest if rest else list(self.write_pool)
        self.partitioned = bool(rest)

    @classmethod
    def unpartitioned(cls, flash: FlashMemory) -> "BankPartition":
        return cls(flash, write_banks=flash.num_banks)

    def all_banks(self) -> List[int]:
        return list(range(self.flash.num_banks))
