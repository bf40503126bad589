"""Exception hierarchy for the ConTutto reproduction library.

Every error raised by ``repro`` derives from :class:`ReproError` so callers
can catch library failures with a single ``except`` clause while still being
able to distinguish subsystems.
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for all errors raised by this library."""


class ConfigurationError(ReproError):
    """A system or component was configured with invalid parameters."""


class SimulationError(ReproError):
    """The discrete-event kernel was misused or reached an invalid state."""


class LinkTrainingError(ReproError):
    """DMI link training failed (alignment, FRTL budget, retries exhausted)."""


class FrtlBudgetError(LinkTrainingError):
    """Round-trip latency through the buffer exceeds the host's maximum FRTL."""


class ProtocolError(ReproError):
    """A DMI protocol invariant was violated (bad tag, bad sequence, ...)."""


class ReplayError(ProtocolError):
    """Frame replay could not recover the channel."""


class TelemetryError(ReproError, ValueError):
    """Telemetry misuse: duplicate metric name, kind clash, nested session."""


class MemoryError_(ReproError):
    """A memory-device access was invalid (range, alignment, power state)."""


class AlignmentError(MemoryError_):
    """Access not aligned to the device or protocol granularity."""


class AddressRangeError(MemoryError_):
    """Access outside the device's populated address range."""


class EnduranceExceededError(MemoryError_):
    """A non-volatile cell was written more times than its rated endurance."""


class PowerSequenceError(ReproError):
    """FPGA voltage rails were brought up or torn down out of order."""


class FirmwareError(ReproError):
    """Boot / service-processor operation failed."""


class PlugRuleError(FirmwareError):
    """A card was plugged into a DMI slot the plug rules forbid."""


class AccelError(ReproError):
    """Near-memory accelerator misuse (bad control block, bad opcode...)."""


class AssemblerError(AccelError):
    """Access-processor assembly source could not be assembled."""


class StorageError(ReproError):
    """Block-device or driver-stack failure."""


class ArtifactError(ReproError):
    """A run artifact (JSONL stream, report, profile) is malformed."""
