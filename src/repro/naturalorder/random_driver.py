"""Random cacheline-access workload driver.

Section 6 explains why the paper's stream results sit below the 95 %
efficiency Crisp reports for Direct Rambus systems: "Crisp's
experiments model more random access patterns on a system with many
devices."  This driver reproduces that workload class — independent
cacheline transactions at random addresses, a bounded number
outstanding — so the channel model can be measured under it and the
comparison made quantitative (see ``repro.experiments.channel``).

Unlike the stream baseline, random transactions carry no data
dependences, so the controller issues them back-to-back as fast as the
device/channel accepts them; multi-bank and multi-device parallelism
is the only thing hiding the per-bank dead time.
"""

from __future__ import annotations

import random
from collections import deque
from typing import Deque, Iterator, List

from repro.errors import ConfigurationError
from repro.memsys.address import get_address_mapping
from repro.memsys.config import MemorySystemConfig
from repro.memsys.pagemanager import make_page_manager
from repro.naturalorder.controller import MAX_OUTSTANDING
from repro.rdram.channel import make_memory
from repro.rdram.packets import BusDirection
from repro.rdram.refresh import RefreshEngine
from repro.sim.kernel import (
    BackgroundComponent,
    Component,
    ResultBuilder,
    Simulation,
    TransactionPump,
)
from repro.sim.results import SimulationResult


class RandomAccessDriver:
    """Issues independent random cacheline transactions.

    Args:
        config: Memory organization (geometry may be a channel).
        queue_depth: Maximum outstanding transactions; defaults to the
            device pipeline depth, scaled by the experiment if needed.
        record_trace: Record packets for auditing.
        refresh: Run a background refresh engine alongside the
            transaction stream.
    """

    def __init__(
        self,
        config: MemorySystemConfig,
        queue_depth: int = MAX_OUTSTANDING,
        record_trace: bool = False,
        refresh: bool = False,
    ) -> None:
        if queue_depth < 1:
            raise ConfigurationError("queue depth must be at least 1")
        self.config = config
        self.queue_depth = queue_depth
        self.page_manager = make_page_manager(config)
        self.device = make_memory(
            timing=config.timing,
            geometry=config.geometry,
            record_trace=record_trace,
            page_manager=self.page_manager,
        )
        self.address_map = get_address_mapping(config)
        self.device.mapping = self.address_map
        self.refresh = refresh
        self.refreshes_issued = 0

    def run(
        self,
        num_transactions: int,
        write_fraction: float = 0.0,
        seed: int = 1,
        dense: bool = False,
    ) -> SimulationResult:
        """Execute random cacheline transactions and report bandwidth.

        Args:
            num_transactions: Cacheline transactions to issue.
            write_fraction: Fraction of transactions that are writes.
            seed: PRNG seed (runs are deterministic per seed).
            dense: Visit every cycle in the simulation kernel instead
                of skipping to the next transaction start.

        Returns:
            A result whose ``percent_of_peak`` is the channel
            efficiency under this random load.
        """
        if not 0.0 <= write_fraction <= 1.0:
            raise ConfigurationError("write_fraction must be in [0, 1]")
        self.device.reset()
        self.refreshes_issued = 0
        builder = ResultBuilder(
            kernel="random-access",
            organization=self.config.describe(),
            length=num_transactions,
            stride=1,
            fifo_depth=0,
            alignment="random",
            policy=f"random-q{self.queue_depth}",
        )
        components: List[Component] = []
        if self.refresh:
            refresh_engine = RefreshEngine(self.device)
            components.append(BackgroundComponent(refresh_engine))
        pump = TransactionPump(
            self._transaction_steps(
                num_transactions, write_fraction, seed, builder
            )
        )
        components.append(pump)
        Simulation(
            components,
            done=lambda sim: pump.done,
            max_cycles=20_000 + 500 * max(num_transactions, 1),
            label=f"random-q{self.queue_depth}: org={self.config.describe()}",
            dense=dense,
        ).run()
        if self.refresh:
            self.refreshes_issued = refresh_engine.refreshes_issued

        moved = self.device.bytes_transferred
        return builder.build(
            cycles=builder.last_data_end,
            useful_bytes=moved,
            transferred_bytes=moved,
            packets_issued=(
                num_transactions * self.config.packets_per_cacheline
            ),
            refreshes=self.refreshes_issued,
        )

    def _transaction_steps(
        self,
        num_transactions: int,
        write_fraction: float,
        seed: int,
        builder: ResultBuilder,
    ) -> Iterator[int]:
        """Generate the random transaction stream.

        PRNG draws happen between yields in the exact order the
        original loop made them (line, then direction, per
        transaction), so results are reproducible per seed regardless
        of how the kernel paces the pump.
        """
        rng = random.Random(seed)
        line_bytes = self.config.cacheline_bytes
        total_lines = self.config.geometry.capacity_bytes // line_bytes
        packets = self.config.packets_per_cacheline
        outstanding: Deque[int] = deque()

        for __ in range(num_transactions):
            line = rng.randrange(total_lines)
            direction = (
                BusDirection.WRITE
                if rng.random() < write_fraction
                else BusDirection.READ
            )
            start_at = 0
            if len(outstanding) >= self.queue_depth:
                start_at = outstanding.popleft()
            yield start_at
            data_end = 0
            for offset in range(packets):
                location = self.address_map.decompose(
                    line * line_bytes + offset * 16
                )
                outcome = self.device.issue_access(
                    location.bank,
                    location.row,
                    location.column,
                    start_at,
                    direction,
                    precharge=(
                        self.page_manager.plans_precharge
                        and offset == packets - 1
                    ),
                )
                builder.bank_conflicts += outcome.conflicts
                builder.note_first_data(outcome.access.data.start)
                data_end = outcome.access.data.end
            builder.transactions += 1
            builder.note_data_end(data_end)
            outstanding.append(data_end)
