"""DDR3 SDRAM device with a JEDEC-style bank/row timing model.

The ConTutto card carries two industry-standard DDR3 DIMM slots; the base
design drives them with Altera's soft DDR3 controller (Section 3.3 (v)).
This module models the *device* side: 8 banks per rank, open-row tracking,
and the core timing parameters that decide an access's latency:

* row hit:   CAS latency + data burst,
* row miss:  activate (tRCD) + CAS + burst,
* row conflict: precharge (tRP) + activate + CAS + burst,

plus tRAS (minimum row-open time), tWR (write recovery before precharge)
and periodic refresh (all banks stall for tRFC every tREFI).

Cache-line transfers move 128 bytes over a 64-bit data bus at double data
rate: 16 beats = 8 memory-clock cycles = two BL8 bursts.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Tuple

from ..errors import AlignmentError, ConfigurationError
from .device import MemoryDevice


@dataclass(frozen=True)
class Ddr3Timing:
    """DDR3 timing parameters, in picoseconds.

    Defaults correspond to DDR3-1333 CL9 (tCK = 1.5 ns), a typical DIMM for
    the platform's era.
    """

    tck_ps: int = 1_500          # memory clock period
    cl_cycles: int = 9           # CAS latency
    trcd_cycles: int = 9         # RAS-to-CAS delay (activate)
    trp_cycles: int = 9          # row precharge
    tras_cycles: int = 24        # minimum row active time
    twr_cycles: int = 10         # write recovery
    trfc_ps: int = 160_000       # refresh cycle time (4 Gb parts)
    trefi_ps: int = 7_800_000    # average refresh interval

    @property
    def cas_ps(self) -> int:
        return self.cl_cycles * self.tck_ps

    @property
    def trcd_ps(self) -> int:
        return self.trcd_cycles * self.tck_ps

    @property
    def trp_ps(self) -> int:
        return self.trp_cycles * self.tck_ps

    @property
    def tras_ps(self) -> int:
        return self.tras_cycles * self.tck_ps

    @property
    def twr_ps(self) -> int:
        return self.twr_cycles * self.tck_ps

    def burst_ps(self, nbytes: int) -> int:
        """Data-bus time for ``nbytes`` over a 64-bit DDR bus.

        16 bytes move per clock (8 bytes per edge), so a 128 B line takes
        8 clocks.
        """
        beats = -(-nbytes // 8)           # 8 bytes per beat
        clocks = -(-beats // 2)           # two beats per clock (DDR)
        return clocks * self.tck_ps


DDR3_1333 = Ddr3Timing()
DDR3_1066 = Ddr3Timing(tck_ps=1_875, cl_cycles=7, trcd_cycles=7, trp_cycles=7,
                       tras_cycles=20, twr_cycles=8)
DDR3_1600 = Ddr3Timing(tck_ps=1_250, cl_cycles=11, trcd_cycles=11, trp_cycles=11,
                       tras_cycles=28, twr_cycles=12)


@dataclass
class _Bank:
    open_row: int = -1
    ready_ps: int = 0        # earliest time a new column command may issue
    row_open_since: int = 0  # for tRAS enforcement


class DdrDram(MemoryDevice):
    """A DDR3 DRAM rank: 8 banks, open-page tracking, refresh stalls."""

    technology = "dram"
    non_volatile = False

    NUM_BANKS = 8
    ROW_BYTES = 8 << 10  # 8 KiB page per bank row

    def __init__(
        self,
        capacity_bytes: int,
        timing: Ddr3Timing = DDR3_1333,
        name: str = "",
        refresh_enabled: bool = True,
        ecc_enabled: bool = False,
    ):
        super().__init__(capacity_bytes, name)
        self.timing = timing
        self.refresh_enabled = refresh_enabled
        self.ecc_enabled = ecc_enabled
        self._banks: List[_Bank] = [_Bank() for _ in range(self.NUM_BANKS)]
        self._bus_free_ps = 0
        #: injected per-bank faults: bank -> ("slow", extra_ps) | ("fail", 0)
        self._bank_faults: Dict[int, Tuple[str, int]] = {}
        if ecc_enabled:
            from .backing import SparseBacking

            # one check byte per 8-byte word, stored on the ECC lane
            self._check_backing = SparseBacking(capacity_bytes // 8)
        # Stats
        self.row_hits = 0
        self.row_misses = 0
        self.row_conflicts = 0
        self.refresh_stalls = 0
        self.ecc_corrections = 0
        self.ecc_uncorrectable = 0

    # -- address mapping -----------------------------------------------------

    def _map(self, addr: int) -> Tuple[int, int]:
        """Map a byte address to (bank, row).

        Row bits above bank bits above column bits: consecutive cache lines
        within a row stay in one bank (good locality for streams), and rows
        interleave across banks.
        """
        row_global = addr // self.ROW_BYTES
        bank = row_global % self.NUM_BANKS
        row = row_global // self.NUM_BANKS
        return bank, row

    # -- timing core ---------------------------------------------------------

    def _refresh_penalty(self, start_ps: int) -> int:
        """Push ``start_ps`` past a refresh window if one lands on it.

        We model distributed refresh: in every tREFI interval the device is
        unavailable for the final tRFC.
        """
        if not self.refresh_enabled:
            return start_ps
        t = self.timing
        phase = start_ps % t.trefi_ps
        window_start = t.trefi_ps - t.trfc_ps
        if phase >= window_start:
            self.refresh_stalls += 1
            return start_ps + (t.trefi_ps - phase)
        return start_ps

    def _access_timing(self, addr: int, now_ps: int, is_write: bool, nbytes: int) -> int:
        t = self.timing
        bank_no, row = self._map(addr)
        bank = self._banks[bank_no]

        start = max(now_ps, bank.ready_ps)
        start = self._refresh_penalty(start)
        if self._bank_faults:
            fault = self._bank_faults.get(bank_no)
            if fault is not None and fault[0] == "slow":
                start += fault[1]

        if bank.open_row == row:
            self.row_hits += 1
            column_at = start
        elif bank.open_row == -1:
            self.row_misses += 1
            column_at = start + t.trcd_ps
            bank.row_open_since = start
        else:
            self.row_conflicts += 1
            # respect tRAS before precharging the currently open row
            precharge_at = max(start, bank.row_open_since + t.tras_ps)
            column_at = precharge_at + t.trp_ps + t.trcd_ps
            bank.row_open_since = precharge_at + t.trp_ps
        bank.open_row = row

        # data bus is shared across banks
        data_start = max(column_at + t.cas_ps, self._bus_free_ps)
        finish = data_start + t.burst_ps(nbytes)
        self._bus_free_ps = finish
        recovery = t.twr_ps if is_write else 0
        bank.ready_ps = finish + recovery
        return finish

    # -- MemoryDevice API ------------------------------------------------------

    def read(self, addr: int, nbytes: int, now_ps: int) -> Tuple[bytes, int]:
        self._precheck(addr, nbytes)
        if self._bank_faults:
            bank_no, _ = self._map(addr)
            fault = self._bank_faults.get(bank_no)
            if fault is not None and fault[0] == "fail":
                from .ecc import UncorrectableEccError

                self.ecc_uncorrectable += 1
                raise UncorrectableEccError(
                    f"{self.name}: bank {bank_no} failed (injected fault)"
                )
        if nbytes > self.ROW_BYTES:
            raise AlignmentError(
                f"{self.name}: single access of {nbytes}B exceeds a row"
            )
        finish = self._access_timing(addr, now_ps, is_write=False, nbytes=nbytes)
        data = self._account_read(addr, nbytes)
        if self.ecc_enabled:
            data = self._ecc_verify(addr, data)
        return data, finish

    def write(self, addr: int, data: bytes, now_ps: int) -> int:
        self._precheck(addr, len(data))
        if len(data) > self.ROW_BYTES:
            raise AlignmentError(
                f"{self.name}: single access of {len(data)}B exceeds a row"
            )
        finish = self._access_timing(addr, now_ps, is_write=True, nbytes=len(data))
        self._account_write(addr, data)
        if self.ecc_enabled:
            from .ecc import encode_line

            if addr % 8 or len(data) % 8:
                raise AlignmentError(
                    f"{self.name}: ECC writes must be 8-byte aligned"
                )
            self._check_backing.write(addr // 8, encode_line(data))
        return finish

    # -- ECC (SEC-DED per 64-bit word, see repro.memory.ecc) ----------------

    def _ecc_verify(self, addr: int, data: bytes) -> bytes:
        from .ecc import UncorrectableEccError, decode_line

        if addr % 8 or len(data) % 8:
            raise AlignmentError(f"{self.name}: ECC reads must be 8-byte aligned")
        checks = self._check_backing.read(addr // 8, len(data) // 8)
        try:
            corrected, fixes = decode_line(data, checks)
        except UncorrectableEccError:
            self.ecc_uncorrectable += 1
            raise
        if fixes:
            self.ecc_corrections += fixes
            # write-back correction: scrub the flipped cell
            self.backing.write(addr, corrected)
        return corrected

    def inject_bit_error(self, addr: int, bit: int) -> None:
        """Flip one stored data bit (cosmic ray / weak cell model)."""
        byte = bytearray(self.backing.read(addr + bit // 8, 1))
        byte[0] ^= 1 << (bit % 8)
        self.backing.write(addr + bit // 8, bytes(byte))

    # -- injected bank faults ---------------------------------------------------

    def set_bank_fault(self, bank: int, mode: str, extra_ps: int = 0) -> None:
        """Mark one bank ``"slow"`` (extra access latency) or ``"fail"``
        (reads raise :class:`UncorrectableEccError`; the controller poisons
        the line).  The nil-check on ``_bank_faults`` keeps the clean path
        free of per-access cost."""
        if mode not in ("slow", "fail"):
            raise ConfigurationError(f"{self.name}: bank fault mode {mode!r}")
        if not 0 <= bank < self.NUM_BANKS:
            raise ConfigurationError(f"{self.name}: no bank {bank}")
        if mode == "slow" and extra_ps <= 0:
            raise ConfigurationError(f"{self.name}: slow fault needs extra_ps > 0")
        self._bank_faults[bank] = (mode, extra_ps if mode == "slow" else 0)

    def clear_bank_fault(self, bank: int) -> None:
        self._bank_faults.pop(bank, None)

    # -- diagnostics -----------------------------------------------------------

    def banks_busy(self, now_ps: int) -> int:
        """Banks still serving (or recovering from) an access at ``now_ps``."""
        return sum(1 for bank in self._banks if bank.ready_ps > now_ps)

    def bank_busy(self, bank: int, now_ps: int) -> bool:
        """Whether one bank is serving (or recovering from) an access."""
        return self._banks[bank].ready_ps > now_ps
