"""Request deadlines: a monotonic-clock budget carried through a call.

Every request the kernel gateway admits carries a :class:`Deadline`;
the dispatcher checks it before occupying a ``CoruscantSystem``, the
retry loop refuses to sleep past it, and the resilient executor's
ladder (:meth:`~repro.resilience.executor.ResilientExecutor.execute`)
stops retrying once it has expired. The clock is injectable so tests
can drive time by hand instead of sleeping.
"""

from __future__ import annotations

import math
import time
from typing import Callable, Optional


class Deadline:
    """A point in monotonic time work must finish by.

    Args:
        budget: seconds from *now* until expiry; ``math.inf`` (via
            :meth:`never`) means no deadline.
        clock: monotonic time source (injectable for tests).
    """

    __slots__ = ("_clock", "expires_at")

    def __init__(
        self,
        budget: float,
        clock: Callable[[], float] = time.monotonic,
    ) -> None:
        if not budget >= 0:  # also refuses NaN, which never expires
            raise ValueError(f"budget must be >= 0, got {budget}")
        self._clock = clock
        self.expires_at = clock() + budget

    @classmethod
    def never(
        cls, clock: Callable[[], float] = time.monotonic
    ) -> "Deadline":
        """A deadline that never expires (infinite budget)."""
        return cls(math.inf, clock=clock)

    @property
    def expired(self) -> bool:
        return self._clock() >= self.expires_at

    def remaining(self) -> float:
        """Seconds left, clamped at 0.0 (never negative)."""
        return max(0.0, self.expires_at - self._clock())

    def allows(self, duration: float) -> bool:
        """Whether ``duration`` seconds still fit inside the budget.

        The retry loop's guard: a backoff sleep longer than the
        remaining budget is pointless — the work would expire mid-sleep
        — so it is refused up front instead of slept through.
        """
        return self.remaining() >= duration

    def as_timeout(self, cap: Optional[float] = None) -> Optional[float]:
        """The remaining budget as a timeout value, optionally capped.

        Returns ``None`` for an infinite deadline with no cap (the
        idiom blocking APIs expect).
        """
        remaining = self.remaining()
        if math.isinf(remaining):
            return cap
        return remaining if cap is None else min(cap, remaining)

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"Deadline(remaining={self.remaining():.3f}s)"


__all__ = ["Deadline"]
