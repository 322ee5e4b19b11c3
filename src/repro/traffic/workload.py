"""Synthetic multi-client request generation.

Models an open-loop population of clients: arrivals form a merged
Poisson process (exponential inter-arrival gaps at the aggregate
rate), each arrival is attributed to a uniformly chosen client, and
the client picks a cacheline from its private Zipf-distributed hot
set — or, with probability ``1 - hot_fraction``, from the whole
address space.  Everything is drawn from seeded PRNGs in a fixed
order, so a workload is bit-reproducible per seed.

Zipf hot sets concentrate traffic: with exponent ``s``, the k-th
hottest line of a client's set is drawn with weight ``1/k^s``, so a
handful of lines (and therefore banks) absorb most of a hot client's
traffic — the contention pattern bank-budget regulation exists to
contain.
"""

from __future__ import annotations

import bisect
import random
import struct
from dataclasses import dataclass
from itertools import accumulate
from typing import Dict, List, Tuple

from repro.errors import ConfigurationError
from repro.memsys.address import AddressMapping
from repro.rdram.packets import BusDirection


@dataclass(frozen=True)
class Request:
    """One client's cacheline request.

    Attributes:
        arrival: Interface-clock cycle the request enters the system.
        client: Issuing client's index.
        address: Cacheline-aligned byte address.
        direction: READ or WRITE.
    """

    arrival: int
    client: int
    address: int
    direction: BusDirection


@dataclass(frozen=True)
class TrafficWorkload:
    """Parameters of one synthetic client population.

    Attributes:
        clients: Number of concurrent clients.
        requests: Total requests offered over the run.
        mean_gap: Mean cycles between successive arrivals (aggregate
            Poisson rate is ``1 / mean_gap`` requests per cycle).
        zipf_s: Zipf exponent of each client's hot-set distribution
            (larger = more skewed; 0 = uniform over the hot set).
        hot_lines: Cachelines in each client's private hot set.
        hot_fraction: Probability a request targets the client's hot
            set rather than a uniformly random line.
        write_fraction: Fraction of requests that are writes.
        seed: PRNG seed; workloads are bit-reproducible per seed.
    """

    clients: int = 1024
    requests: int = 2048
    mean_gap: float = 4.0
    zipf_s: float = 1.2
    hot_lines: int = 64
    hot_fraction: float = 0.9
    write_fraction: float = 0.25
    seed: int = 1

    def __post_init__(self) -> None:
        if self.clients < 1:
            raise ConfigurationError("need at least one client")
        if self.requests < 1:
            raise ConfigurationError("need at least one request")
        if self.mean_gap <= 0:
            raise ConfigurationError("mean_gap must be positive")
        if self.zipf_s < 0:
            raise ConfigurationError("zipf_s must be non-negative")
        if self.hot_lines < 1:
            raise ConfigurationError("need at least one hot line")
        if not 0.0 <= self.hot_fraction <= 1.0:
            raise ConfigurationError("hot_fraction must be in [0, 1]")
        if not 0.0 <= self.write_fraction <= 1.0:
            raise ConfigurationError("write_fraction must be in [0, 1]")


def _zipf_cdf(hot_lines: int, s: float) -> List[float]:
    """Cumulative Zipf weights for ranks 1..hot_lines."""
    weights = [1.0 / (rank ** s) for rank in range(1, hot_lines + 1)]
    total = sum(weights)
    return [w / total for w in accumulate(weights)]


def _client_hot_set(
    seed: int, client: int, hot_lines: int, total_lines: int
) -> Tuple[int, ...]:
    """A client's private hot set, deterministic per (seed, client).

    The draws are exactly ``hot_lines`` calls of
    ``rng.randrange(total_lines)``: for ``k = total_lines.bit_length()
    <= 32`` each call takes the top ``k`` bits of one 32-bit
    Mersenne Twister output and rejects values ``>= total_lines``.
    Those outputs are drawn here in bulk (``getrandbits`` returns
    consecutive outputs least significant first) and filtered the
    same way; any surplus outputs are discarded with the private
    generator.
    """
    rng = random.Random(seed * 1_000_003 + client * 7_919 + 17)
    if not 1 <= total_lines < 1 << 32:
        # Wider draws span several outputs; an empty range raises.
        return tuple(rng.randrange(total_lines) for _ in range(hot_lines))
    shift = 32 - total_lines.bit_length()
    # word >> shift < total_lines  <=>  word < total_lines << shift
    limit = total_lines << shift
    drawn: List[int] = []
    while len(drawn) < hot_lines:
        # At least half of all outputs are accepted; ask for enough
        # that one batch almost always suffices.
        count = 2 * (hot_lines - len(drawn)) + 8
        words = struct.unpack(
            f"<{count}I",
            rng.getrandbits(32 * count).to_bytes(4 * count, "little"),
        )
        drawn += [word >> shift for word in words if word < limit]
    return tuple(drawn[:hot_lines])


def generate_requests(
    workload: TrafficWorkload, mapping: AddressMapping
) -> List[Request]:
    """Draw the workload's full request list, sorted by arrival.

    Args:
        workload: Population parameters.
        mapping: The system's address mapping; its capacity bounds the
            address space and its config fixes the cacheline size.

    Returns:
        ``workload.requests`` requests in arrival order.
    """
    line_bytes = mapping.config.cacheline_bytes
    total_lines = mapping.capacity_bytes // line_bytes
    hot_lines = min(workload.hot_lines, total_lines)
    rng = random.Random(workload.seed)
    cdf = _zipf_cdf(hot_lines, workload.zipf_s)
    hot_sets: Dict[int, Tuple[int, ...]] = {}
    requests: List[Request] = []
    clock = 0.0
    for _ in range(workload.requests):
        clock += rng.expovariate(1.0 / workload.mean_gap)
        client = rng.randrange(workload.clients)
        if rng.random() < workload.hot_fraction:
            hot = hot_sets.get(client)
            if hot is None:
                hot = _client_hot_set(
                    workload.seed, client, hot_lines, total_lines
                )
                hot_sets[client] = hot
            # bisect can land one past the end when rounding leaves
            # cdf[-1] marginally below 1.0; clamp to the coldest rank.
            rank = min(bisect.bisect_left(cdf, rng.random()), hot_lines - 1)
            line = hot[rank]
        else:
            line = rng.randrange(total_lines)
        direction = (
            BusDirection.WRITE
            if rng.random() < workload.write_fraction
            else BusDirection.READ
        )
        requests.append(
            Request(
                arrival=int(clock),
                client=client,
                address=line * line_bytes,
                direction=direction,
            )
        )
    return requests
