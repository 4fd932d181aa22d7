"""Retry policy for request/response calls over the simulated fabric.

The seed reproduction surfaced every transport fault directly as a
:class:`~repro.net.network.DeliveryError` at the caller.  This module is
the client-side half of the fault-tolerance layer: a declarative
:class:`RetryPolicy` (attempt budget, exponential backoff with jitter,
per-call timeout implemented with simulation timers) and
:func:`with_retry`, the coroutine that executes an attempt factory under
a policy.  :class:`~repro.wsrf.client.WsrfClient` drives its retries
through it.  The notification redelivery path
(``NotificationProducer._redeliver`` in :mod:`repro.wsn.base_notification`)
takes only the policy — its attempt budget and ``delay_for`` — and runs
its own loop, because exhausting the budget there drops the subscriber
instead of raising.

Only transport-level faults (``DeliveryError``, including
:class:`CallTimeout`) are retried; SOAP faults are application answers
and propagate immediately.  Because a lost *response* still executed the
call server-side, retried operations are at-least-once — callers must be
idempotent or tolerate re-execution (all testbed operations are).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional

from repro.net.network import DeliveryError


class CallTimeout(DeliveryError):
    """A request/response call exceeded its per-call timeout."""


@dataclass(frozen=True, slots=True)
class RetryPolicy:
    """How a client retries transport faults on request/response calls."""

    #: total attempts, including the first (1 = no retries)
    max_attempts: int = 3
    #: backoff before the first retry (s)
    base_delay_s: float = 0.05
    #: multiplier applied per subsequent retry
    backoff_factor: float = 2.0
    #: backoff ceiling (s)
    max_delay_s: float = 2.0
    #: uniform jitter as a fraction of the delay (0.1 → ±10%)
    jitter: float = 0.1
    #: per-attempt timeout in simulated seconds; None = wait forever
    timeout_s: Optional[float] = None

    def __post_init__(self) -> None:
        if self.max_attempts < 1:
            raise ValueError(f"max_attempts must be >= 1, got {self.max_attempts!r}")
        if self.base_delay_s < 0 or self.max_delay_s < 0:
            raise ValueError("backoff delays must be >= 0")
        if self.backoff_factor < 1.0:
            raise ValueError(
                f"backoff_factor must be >= 1, got {self.backoff_factor!r}"
            )
        if not 0.0 <= self.jitter < 1.0:
            raise ValueError(f"jitter must be in [0, 1), got {self.jitter!r}")
        if self.timeout_s is not None and self.timeout_s <= 0:
            raise ValueError(f"timeout_s must be positive, got {self.timeout_s!r}")

    def delay_for(self, failures: int, rng=None) -> float:
        """Backoff after the *failures*-th consecutive failure (1-based).

        Exponential in the failure count, capped at ``max_delay_s``,
        with symmetric uniform jitter drawn from *rng* (deterministic
        when the caller seeds it; no jitter when *rng* is None).
        """
        if failures < 1:
            raise ValueError(f"failures is 1-based, got {failures!r}")
        delay = min(
            self.base_delay_s * self.backoff_factor ** (failures - 1),
            self.max_delay_s,
        )
        if rng is not None and self.jitter > 0.0 and delay > 0.0:
            delay *= 1.0 + self.jitter * (2.0 * float(rng.random()) - 1.0)
        return max(0.0, delay)

    def disabled(self) -> "RetryPolicy":
        """This policy with retries off (single attempt, no timeout)."""
        return RetryPolicy(
            max_attempts=1,
            base_delay_s=self.base_delay_s,
            backoff_factor=self.backoff_factor,
            max_delay_s=self.max_delay_s,
            jitter=self.jitter,
            timeout_s=None,
        )


def with_retry(
    env,
    policy: RetryPolicy,
    make_attempt: Callable[[], object],
    rng=None,
    on_retry: Optional[Callable[[int, BaseException], None]] = None,
):
    """Coroutine: run ``make_attempt()`` under *policy* until it succeeds.

    *make_attempt* must return a **fresh** simulation coroutine per call
    (each attempt is an independent exchange).  A transport fault
    (:class:`DeliveryError`) consumes an attempt and backs off; anything
    else propagates.  With ``policy.timeout_s`` set, an attempt that has
    not completed within the window is abandoned (its client-side
    process is killed; any server-side work it triggered keeps running
    detached) and counted as a :class:`CallTimeout` failure.

    ``on_retry(failures, exc)`` is called before each backoff sleep —
    the hook the network stats counter hangs off.
    """
    failures = 0
    while True:
        proc = env.process(make_attempt())
        try:
            if policy.timeout_s is None:
                value = yield proc
                return value
            yield env.any_of([proc, env.timeout(policy.timeout_s)])
            if proc.triggered:
                return proc.value
            proc.kill(f"call abandoned after {policy.timeout_s}s timeout")
            raise CallTimeout(
                f"no response within {policy.timeout_s}s (attempt {failures + 1})"
            )
        except DeliveryError as exc:
            failures += 1
            if failures >= policy.max_attempts:
                raise
            if on_retry is not None:
                on_retry(failures, exc)
            yield env.timeout(policy.delay_for(failures, rng))
