"""Device-level exception types.

These map one-to-one onto the physical failure modes the paper asks the
operating system to hide: flash endurance exhaustion, the
erase-before-write constraint, and power loss wiping volatile storage.
"""

from __future__ import annotations


class DeviceError(Exception):
    """Base class for all device failures."""


class OutOfRangeError(DeviceError):
    """An access touched addresses beyond the device's capacity."""

    def __init__(self, device: str, offset: int, nbytes: int, capacity: int) -> None:
        super().__init__(
            f"{device}: access [{offset}, {offset + nbytes}) exceeds capacity {capacity}"
        )
        self.offset = offset
        self.nbytes = nbytes
        self.capacity = capacity


class WriteBeforeEraseError(DeviceError):
    """A flash program targeted bytes that were not in the erased state.

    Real flash can only clear bits (1 -> 0); rewriting without an erase
    silently corrupts data, so the model makes it a hard error.  The
    storage manager's job (paper section 3.3) is to guarantee this never
    fires in a correctly configured system.
    """

    def __init__(self, device: str, offset: int, nbytes: int) -> None:
        super().__init__(
            f"{device}: program of [{offset}, {offset + nbytes}) hit non-erased bytes"
        )
        self.offset = offset
        self.nbytes = nbytes


class PowerLossError(DeviceError):
    """A DRAM access was attempted while the DRAM had no power."""

    def __init__(self, device: str) -> None:
        super().__init__(f"{device}: no power (DRAM is unpowered)")


class ProgramFailedError(DeviceError):
    """A flash program operation failed at the device level.

    Real flash parts report program failures via a status register;
    transient failures succeed on retry, permanent ones mean the block
    must be retired (Intel Series-2 data-sheet behaviour).
    """

    def __init__(self, device: str, sector: int, transient: bool) -> None:
        kind = "transient" if transient else "permanent"
        super().__init__(f"{device}: {kind} program failure in sector {sector}")
        self.sector = sector
        self.transient = transient


class EraseFailedError(DeviceError):
    """A flash erase operation failed at the device level."""

    def __init__(self, device: str, sector: int, transient: bool) -> None:
        kind = "transient" if transient else "permanent"
        super().__init__(f"{device}: {kind} erase failure in sector {sector}")
        self.sector = sector
        self.transient = transient


class PowerCutError(DeviceError):
    """Power was cut mid-operation (fault injection).

    Unlike :class:`PowerLossError` (device already unpowered), this fires
    *during* an operation: ``torn_bytes`` of a program may have landed,
    or an interrupted erase may have left the sector scrambled.
    """

    def __init__(
        self,
        device: str,
        op_index: int,
        torn_bytes: int = 0,
        torn_erase: bool = False,
    ) -> None:
        super().__init__(
            f"{device}: power cut at device op {op_index} "
            f"(torn_bytes={torn_bytes}, torn_erase={torn_erase})"
        )
        self.op_index = op_index
        self.torn_bytes = torn_bytes
        self.torn_erase = torn_erase
