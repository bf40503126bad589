"""Tiered hybrid memory: DRAM fast tier + NVM slow tier behind one port.

The paper swaps memory technologies *homogeneously* — a whole ConTutto
card becomes MRAM or NVDIMM.  :class:`TieredMemory` models the next step
(the FPGA hybrid-memory emulation systems in PAPERS.md): one device that
composes a small fast DRAM tier with a large slow NVM tier and migrates
hot pages between them, so a ConTutto card presents DRAM-class latency
for the hot set over NVM-class capacity.

The device keeps the functional+timed :class:`MemoryDevice` contract:

* real bytes live in the *sub-devices'* backings (the tiered layer only
  translates logical pages to tier frames), so migration moves actual
  data and a misrouted page is a data-corruption bug tests can catch;
* timing composes the sub-devices' own models — a demand access pays the
  resident tier's latency, and migration traffic is issued as real
  reads/writes against both tiers, so it competes with demand requests
  through the sub-devices' busy/bank timers exactly like extra bus
  commands would.

Hotness is tracked per logical page with epoch-decayed access counters
(sparse: untouched pages cost nothing), the fast tier runs a CLOCK hand
with reference bits for victim selection, and the *when to migrate*
decision is delegated to a pluggable :mod:`~repro.hybrid.policy`.

Attribution: when an access runs under an enclosing journey (the memory
controller pushes the journey context around the device call), the
device records nested ``tier.migrate`` / ``tier.fast`` / ``tier.slow``
spans inside the ``memory.service`` window — the breakdown layer
subtracts them so the stages still tile the journey with zero residual.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Tuple

from ..errors import ConfigurationError
from ..memory.device import MemoryDevice
from ..telemetry import probe

#: tier indices (page-table encoding)
FAST = 0
SLOW = 1

#: cap on epoch-decay shift: beyond this every counter is zero anyway
_MAX_DECAY_SHIFT = 32


@dataclass(frozen=True)
class TieredConfig:
    """Knobs of the tiered device (exposed through ``repro.tune/v1``)."""

    #: migration granule; logical address space is split into these
    page_bytes: int = 4096
    #: hotness epoch: access counters halve every epoch (simulated time)
    epoch_ps: int = 1_000_000_000
    #: accesses within the decay horizon that make a slow page hot
    promote_threshold: int = 4
    #: migration-traffic allowance per epoch for the ``budget`` policy
    #: (bytes moved; a promotion swap costs two pages)
    migrate_budget_bytes: int = 256 * 1024

    def __post_init__(self) -> None:
        if self.page_bytes <= 0 or self.page_bytes % 128:
            raise ConfigurationError(
                f"tier page_bytes must be a positive multiple of 128, "
                f"got {self.page_bytes}"
            )
        if self.epoch_ps <= 0:
            raise ConfigurationError("tier epoch_ps must be positive")
        if self.promote_threshold < 1:
            raise ConfigurationError("tier promote_threshold must be >= 1")
        if self.migrate_budget_bytes < 0:
            raise ConfigurationError("tier migrate_budget_bytes must be >= 0")


class TierCounts(probe.Counts):
    """Accesses served per tier, and the page migrations run or stalled."""

    METRICS = {
        "fast_hits": "tier.fast_hits",
        "slow_hits": "tier.slow_hits",
        "promotions": "tier.promotions",
        "demotions": "tier.demotions",
        "migrated_bytes": "tier.migrated_bytes",
        "migration_stalls": "tier.migration_stalls",
    }


class TieredMemory(MemoryDevice):
    """Two memory devices behind one address space with page migration."""

    technology = "tiered"
    #: the hot set lives in volatile DRAM — the device as a whole does
    #: not survive power removal even when the slow tier would
    non_volatile = False

    def __init__(
        self,
        fast: MemoryDevice,
        slow: MemoryDevice,
        policy,
        config: TieredConfig = TieredConfig(),
        name: str = "",
    ):
        pb = config.page_bytes
        for tier_name, dev in (("fast", fast), ("slow", slow)):
            if dev.capacity_bytes % pb:
                raise ConfigurationError(
                    f"{tier_name} tier capacity {dev.capacity_bytes} is not "
                    f"a multiple of the {pb}B page"
                )
        if fast.capacity_bytes == 0 or slow.capacity_bytes == 0:
            raise ConfigurationError("both tiers need nonzero capacity")
        super().__init__(fast.capacity_bytes + slow.capacity_bytes, name)
        self.fast = fast
        self.slow = slow
        self.policy = policy
        self.config = config
        fast_pages = fast.capacity_bytes // pb
        slow_pages = slow.capacity_bytes // pb
        total = fast_pages + slow_pages
        # Initial placement is cold-start: the low pages — the ones a
        # workload touches first — begin in the capacity (slow) tier and
        # must *earn* promotion; the fast tier starts holding the top of
        # the address space.  This is how tiering controllers admit new
        # data, and it gives the static policy an honest baseline.
        #: logical page -> resident tier (FAST | SLOW)
        self._page_tier = bytearray(
            bytes([SLOW]) * slow_pages + bytes([FAST]) * fast_pages
        )
        #: logical page -> frame index within its tier
        self._page_frame = list(range(slow_pages)) + list(range(fast_pages))
        #: fast frame -> resident logical page (for victim demotion)
        self._fast_page = list(range(slow_pages, total))
        #: slow frame -> resident logical page
        self._slow_page = list(range(slow_pages))
        #: sparse epoch-decayed access counters (zero entries absent)
        self._heat: Dict[int, int] = {}
        self._epoch = 0
        #: CLOCK state over the fast frames
        self._ref = bytearray(fast_pages)
        self._hand = 0
        #: injected fault state: migrations stall while frozen
        self.migration_frozen = False
        self.counts = TierCounts()
        #: the occupancy sampler reads this as a gauge
        self.hot_slow_pages = 0

    # -- geometry ------------------------------------------------------------

    @property
    def fast_frames(self) -> int:
        return len(self._fast_page)

    @property
    def pages(self) -> int:
        return len(self._page_frame)

    def tier_of(self, page: int) -> int:
        return self._page_tier[page]

    def heat(self, page: int) -> int:
        return self._heat.get(page, 0)

    # -- fault hooks (hybrid.migration_stall) --------------------------------

    def freeze_migration(self) -> None:
        self.migration_frozen = True

    def unfreeze_migration(self) -> None:
        self.migration_frozen = False

    def note_stall(self) -> None:
        """A migration the policy wanted but could not run (frozen tier
        or exhausted budget); demand proceeds from the slow tier."""
        self.counts.migration_stalls += 1

    # -- hotness -------------------------------------------------------------

    def _decay(self, now_ps: int) -> None:
        """Lazy epoch decay: halve every counter once per elapsed epoch."""
        epoch = now_ps // self.config.epoch_ps
        if epoch <= self._epoch:
            return
        shift = min(epoch - self._epoch, _MAX_DECAY_SHIFT)
        self._epoch = epoch
        thr = self.config.promote_threshold
        decayed: Dict[int, int] = {}
        for page, h in self._heat.items():
            nh = h >> shift
            if nh:
                decayed[page] = nh
            if self._page_tier[page] == SLOW and h >= thr > nh:
                self.hot_slow_pages -= 1
        self._heat = decayed

    def _bump(self, page: int) -> None:
        h = self._heat.get(page, 0) + 1
        self._heat[page] = h
        if self._page_tier[page] == SLOW and h == self.config.promote_threshold:
            self.hot_slow_pages += 1

    # -- migration mechanics -------------------------------------------------

    def _clock_victim(self) -> int:
        """Second-chance sweep: clear reference bits until one is cold."""
        n = self.fast_frames
        for _ in range(2 * n):
            frame = self._hand
            self._hand = (self._hand + 1) % n
            if self._ref[frame]:
                self._ref[frame] = 0
            else:
                return frame
        return self._hand

    def promote(self, page: int, start_ps: int) -> int:
        """Swap a hot slow page with a cold fast victim; returns when the
        migration traffic completes.  Both directions are real device
        reads/writes, so concurrent demand accesses queue behind them."""
        pb = self.config.page_bytes
        frame = self._clock_victim()
        victim = self._fast_page[frame]
        sframe = self._page_frame[page]
        fast_addr = frame * pb
        slow_addr = sframe * pb
        hot_data, t_hot = self.slow.read(slow_addr, pb, start_ps)
        cold_data, t_cold = self.fast.read(fast_addr, pb, start_ps)
        loaded = max(t_hot, t_cold)
        t_up = self.fast.write(fast_addr, hot_data, loaded)
        t_down = self.slow.write(slow_addr, cold_data, loaded)
        end_ps = max(t_up, t_down)
        # swap the mappings
        self._page_tier[page] = FAST
        self._page_frame[page] = frame
        self._fast_page[frame] = page
        self._page_tier[victim] = SLOW
        self._page_frame[victim] = sframe
        self._slow_page[sframe] = victim
        self._ref[frame] = 1
        # hot-set accounting: the promoted page leaves the hot-slow set,
        # the victim joins it if it was (still) hot
        thr = self.config.promote_threshold
        if self.heat(page) >= thr:
            self.hot_slow_pages -= 1
        if self.heat(victim) >= thr:
            self.hot_slow_pages += 1
        counts = self.counts
        counts.promotions += 1
        counts.demotions += 1
        counts.migrated_bytes += 2 * pb
        return end_ps

    # -- access path ---------------------------------------------------------

    def _access(self, op: str, addr: int, payload, start_ps: int):
        """One within-page access: decay, bump, migrate, then serve."""
        pb = self.config.page_bytes
        page = addr // pb
        self._decay(start_ps)
        self._bump(page)
        migrate_end = self.policy.maybe_migrate(self, page, start_ps)
        tier = self._page_tier[page]
        frame = self._page_frame[page]
        local = frame * pb + (addr % pb)
        if tier == FAST:
            self._ref[frame] = 1
            self.counts.fast_hits += 1
            device = self.fast
        else:
            self.counts.slow_hits += 1
            device = self.slow
        if op == "read":
            data, end_ps = device.read(local, len(payload), migrate_end)
        else:
            data, end_ps = None, device.write(local, payload, migrate_end)
        trace = probe.session
        if trace is not None:
            journeys = trace.journeys
            jid = journeys.current()
            if jid is not None:
                if migrate_end > start_ps:
                    journeys.stage_span(
                        jid, "tier.migrate", start_ps, migrate_end
                    )
                journeys.stage_span(
                    jid, "tier.fast" if tier == FAST else "tier.slow",
                    migrate_end, end_ps,
                )
        return data, end_ps

    def _chunks(self, addr: int, nbytes: int):
        """Split an access at page boundaries (accesses rarely cross)."""
        pb = self.config.page_bytes
        while nbytes > 0:
            take = min(nbytes, pb - addr % pb)
            yield addr, take
            addr += take
            nbytes -= take

    def read(self, addr: int, nbytes: int, now_ps: int) -> Tuple[bytes, int]:
        self._precheck(addr, nbytes)
        self.reads += 1
        self.bytes_read += nbytes
        parts = []
        t = now_ps
        for chunk_addr, take in self._chunks(addr, nbytes):
            data, t = self._access("read", chunk_addr, bytes(take), t)
            parts.append(data)
        return b"".join(parts), t

    def write(self, addr: int, data: bytes, now_ps: int) -> int:
        self._precheck(addr, len(data))
        self.writes += 1
        self.bytes_written += len(data)
        t = now_ps
        offset = 0
        for chunk_addr, take in self._chunks(addr, len(data)):
            _, t = self._access("write", chunk_addr,
                                data[offset:offset + take], t)
            offset += take
        return t

    # -- power ---------------------------------------------------------------

    def power_off(self) -> None:
        self.powered = False
        self.fast.power_off()
        self.slow.power_off()

    def power_on(self) -> None:
        self.powered = True
        self.fast.power_on()
        self.slow.power_on()
