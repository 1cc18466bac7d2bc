"""Admission control: bounded queues, priority classes, backpressure.

The gateway never buffers without bound. Each (profile, kernel) pair
owns one :class:`KernelQueue` with a hard capacity; when it is full the
request is refused *at admission time* with 429 + ``Retry-After``
rather than parked. Two priority classes share each queue:

* ``interactive`` requests may use the whole queue, including a
  reserved headroom slice that batch traffic can never consume, and
  are always dequeued first;
* ``batch`` requests are capped below the reserve line, so a flood of
  bulk work cannot starve interactive admission.

Queues are plain data guarded by the event loop (one dispatcher task
consumes; the transport produces); nothing here blocks.
"""

from __future__ import annotations

import asyncio
from collections import deque
from dataclasses import dataclass
from typing import Deque, Dict, Iterator, Optional, Tuple

from repro.service.kernels import KERNELS
from repro.service.protocol import (
    PRIORITY_INTERACTIVE,
    KernelRequest,
    ServiceReject,
)


@dataclass(frozen=True)
class AdmissionPolicy:
    """Capacity knobs for every per-kernel queue.

    Attributes:
        capacity: slots batch traffic may occupy.
        high_reserve: extra slots only interactive traffic may use, so
            an interactive request is admitted while batch is refused.
        retry_after: backpressure hint (seconds) on queue-full refusals.
    """

    capacity: int = 16
    high_reserve: int = 4
    retry_after: float = 0.25

    def __post_init__(self) -> None:
        if self.capacity < 1:
            raise ValueError(f"capacity must be >= 1, got {self.capacity}")
        if self.high_reserve < 0:
            raise ValueError(
                f"high_reserve must be >= 0, got {self.high_reserve}"
            )
        if self.retry_after <= 0:
            raise ValueError(
                f"retry_after must be > 0, got {self.retry_after}"
            )

    @property
    def total_capacity(self) -> int:
        return self.capacity + self.high_reserve


class KernelQueue:
    """One kernel's bounded two-priority queue on one profile."""

    __slots__ = ("policy", "_interactive", "_batch")

    def __init__(self, policy: AdmissionPolicy) -> None:
        self.policy = policy
        self._interactive: Deque[KernelRequest] = deque()
        self._batch: Deque[KernelRequest] = deque()

    def __len__(self) -> int:
        return len(self._interactive) + len(self._batch)

    def offer(self, request: KernelRequest) -> None:
        """Admit ``request`` or raise a 429 :class:`ServiceReject`.

        The decision is made here, synchronously, at admission time —
        a refused request never occupies memory or a worker.
        """
        if request.priority == PRIORITY_INTERACTIVE:
            if len(self) >= self.policy.total_capacity:
                raise ServiceReject(
                    429,
                    "queue_full",
                    f"{request.kernel} queue at capacity "
                    f"({self.policy.total_capacity})",
                    retry_after=self.policy.retry_after,
                )
            self._interactive.append(request)
        else:
            if len(self._batch) >= self.policy.capacity:
                raise ServiceReject(
                    429,
                    "queue_full",
                    f"{request.kernel} batch queue at capacity "
                    f"({self.policy.capacity})",
                    retry_after=self.policy.retry_after,
                )
            self._batch.append(request)

    def take(self) -> Optional[KernelRequest]:
        """Highest-priority admitted request, or None when empty."""
        if self._interactive:
            return self._interactive.popleft()
        if self._batch:
            return self._batch.popleft()
        return None

    def drain(self) -> Iterator[KernelRequest]:
        """Remove and yield everything still queued (shutdown path)."""
        while True:
            request = self.take()
            if request is None:
                return
            yield request


class ProfileQueues:
    """All kernel queues of one device profile, plus the wakeup signal.

    The dispatcher awaits :meth:`next`; producers call :meth:`offer`
    from the event loop. Round-robin across kernels keeps one hot
    kernel from starving the rest at equal priority.
    """

    def __init__(
        self, policy: Optional[AdmissionPolicy] = None
    ) -> None:
        self.policy = policy or AdmissionPolicy()
        self.queues: Dict[str, KernelQueue] = {
            kernel: KernelQueue(self.policy) for kernel in KERNELS
        }
        self._wakeup = asyncio.Event()
        self._rr = 0
        self.closed = False

    def __len__(self) -> int:
        return sum(len(q) for q in self.queues.values())

    def depths(self) -> Dict[str, int]:
        return {kernel: len(q) for kernel, q in self.queues.items()}

    def offer(self, request: KernelRequest) -> None:
        if self.closed:
            raise ServiceReject(
                503,
                "draining",
                "gateway is draining; retry against another instance",
                retry_after=self.policy.retry_after,
            )
        self.queues[request.kernel].offer(request)
        self._wakeup.set()

    def close(self) -> None:
        """Refuse new work; queued work remains to be drained."""
        self.closed = True
        self._wakeup.set()

    def _take(self) -> Optional[Tuple[str, KernelRequest]]:
        names = list(self.queues)
        for step in range(len(names)):
            name = names[(self._rr + step) % len(names)]
            request = self.queues[name].take()
            if request is not None:
                self._rr = (self._rr + step + 1) % len(names)
                return name, request
        return None

    async def next(self) -> Optional[KernelRequest]:
        """The next admitted request, or None once closed and empty."""
        while True:
            taken = self._take()
            if taken is not None:
                return taken[1]
            if self.closed:
                return None
            self._wakeup.clear()
            await self._wakeup.wait()


__all__ = ["AdmissionPolicy", "KernelQueue", "ProfileQueues"]
