"""Storage stack: block devices, attach points, the pmem driver, write cache."""

from .block import DEFAULT_IO_BYTES, SECTOR_BYTES, BlockDevice, IoFaultModel
from .hdd import HardDiskDrive, HddGeometry
from .pcie import (
    FLASH_X4_PCIE,
    MRAM_PCIE,
    NVRAM_PCIE,
    PcieAttachedStore,
    PcieCardProfile,
)
from .pmem import PmemBlockDevice, PmemConfig, PmemRegion
from .ssd import SolidStateDrive, SsdProfile
from .writecache import DirectStore, NvWriteCache, WriteCacheConfig

__all__ = [
    "BlockDevice",
    "DEFAULT_IO_BYTES",
    "DirectStore",
    "FLASH_X4_PCIE",
    "HardDiskDrive",
    "HddGeometry",
    "IoFaultModel",
    "MRAM_PCIE",
    "NVRAM_PCIE",
    "NvWriteCache",
    "PcieAttachedStore",
    "PcieCardProfile",
    "PmemBlockDevice",
    "PmemConfig",
    "PmemRegion",
    "SECTOR_BYTES",
    "SolidStateDrive",
    "SsdProfile",
    "WriteCacheConfig",
]
