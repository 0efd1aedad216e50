"""Per-tenant submission quotas for the remote front door.

A classic token bucket per tenant: every submission spends ``cost`` tokens
(recorded on the job as ``JobRecord.cost``), buckets refill continuously at
``refill_per_s`` up to ``capacity``, and an empty
bucket means the submission is rejected *before* it ever reaches the queue —
HTTP 429 plus a terminal ``rejected`` event, so abusive tenants cannot
starve the pool for everyone else.

Queue-level overload protection (the bounded pending queue) lives in
:class:`repro.serve.JobQueue` itself via ``ServeConfig.max_pending``; this
module only handles the per-tenant fairness dimension.
"""

from __future__ import annotations

import threading
import time

from repro.errors import QuotaExceeded


class TenantQuota:
    """Thread-safe token buckets keyed by tenant name.

    Unknown tenants start with a full bucket of ``capacity`` tokens.  With
    ``refill_per_s=0`` the buckets never refill — useful for deterministic
    tests and hard per-process caps.
    """

    def __init__(
        self,
        capacity: float,
        refill_per_s: float = 0.0,
        *,
        clock=time.monotonic,
    ):
        if capacity <= 0:
            raise ValueError(f"quota capacity must be positive, got {capacity}")
        if refill_per_s < 0:
            raise ValueError(f"refill rate must be >= 0, got {refill_per_s}")
        self.capacity = float(capacity)
        self.refill_per_s = float(refill_per_s)
        self._clock = clock
        self._lock = threading.Lock()
        #: tenant -> (tokens remaining, last refill timestamp)
        self._buckets: dict[str, tuple[float, float]] = {}
        self.charged = 0
        self.rejected = 0

    def _refreshed_locked(self, tenant: str, now: float) -> float:
        tokens, last = self._buckets.get(tenant, (self.capacity, now))
        if self.refill_per_s > 0 and now > last:
            tokens = min(self.capacity, tokens + (now - last) * self.refill_per_s)
        return tokens

    def try_charge(self, tenant: str, cost: float = 1.0) -> bool:
        """Spend ``cost`` tokens from ``tenant``'s bucket if it can afford it."""
        now = self._clock()
        with self._lock:
            tokens = self._refreshed_locked(tenant, now)
            if tokens + 1e-9 >= cost:
                self._buckets[tenant] = (tokens - cost, now)
                self.charged += 1
                return True
            self._buckets[tenant] = (tokens, now)
            self.rejected += 1
            return False

    def charge(self, tenant: str, cost: float = 1.0) -> None:
        """Like :meth:`try_charge` but raises :class:`QuotaExceeded`."""
        if not self.try_charge(tenant, cost):
            raise QuotaExceeded(
                f"tenant {tenant!r} is out of quota tokens "
                f"(cost {cost:g} > {self.remaining(tenant):g} remaining of "
                f"{self.capacity:g})",
                tenant=tenant,
            )

    def remaining(self, tenant: str) -> float:
        """Tokens ``tenant`` could spend right now (refill applied, no charge)."""
        now = self._clock()
        with self._lock:
            return self._refreshed_locked(tenant, now)

    def snapshot(self) -> dict:
        """JSON-able view: config, counters and per-tenant remaining tokens."""
        now = self._clock()
        with self._lock:
            return {
                "capacity": self.capacity,
                "refill_per_s": self.refill_per_s,
                "charged": self.charged,
                "rejected": self.rejected,
                "tenants": {
                    tenant: round(self._refreshed_locked(tenant, now), 6)
                    for tenant in self._buckets
                },
            }
