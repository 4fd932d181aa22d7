"""Deterministic link-level fault injection for the simulated fabric.

The paper's testbed ran on a real campus network where "machines reboot
and links drop".  :class:`~repro.net.host.Host` models whole-host
failure (``host.down``) and :class:`~repro.net.network.Network` models
partitions; this module adds the third failure mode — lossy, slow links
— as an opt-in :class:`FaultInjector` attached to the network.

Every decision is drawn from one seeded ``numpy`` generator, so a chaos
run is a pure function of (seed, topology, workload): the same
configuration replays the same drops at the same instants, which is
what makes the chaos/property test suite deterministic.

Semantics per transport:

- request/response (:meth:`Network.request`): a dropped request or
  response leg surfaces as a :class:`~repro.net.network.DeliveryError`
  at the caller once the message's wire time has elapsed — retries see
  the failure, they do not hang.  A dropped *response* means the server
  already executed the call: retried operations are at-least-once.
- one-way (:meth:`Network.send_one_way`): a dropped message is lost
  silently, exactly the §4.1 fire-and-forget contract.
- bulk transfers ride an established session and are not dropped (the
  RPC that set the session up was already subject to loss); they do
  observe ``extra_latency_s``.

Loopback traffic (src == dst) never traverses a link and is exempt —
this keeps a service's one-way self-messages (e.g. the Scheduler's
Activate kick) off the chaos path, mirroring a real host's loopback
interface.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional, Tuple

import numpy as np


@dataclass(frozen=True, slots=True)
class LinkFaultPlan:
    """The fault profile of one directed link (or the default for all)."""

    #: probability that any single message on the link is lost
    drop_probability: float = 0.0
    #: deterministic extra one-way latency added to the link (s)
    extra_latency_s: float = 0.0

    def __post_init__(self) -> None:
        if not 0.0 <= self.drop_probability <= 1.0:
            raise ValueError(
                f"drop_probability must be in [0, 1], got {self.drop_probability!r}"
            )
        if self.extra_latency_s < 0.0:
            raise ValueError(
                f"extra_latency_s must be >= 0, got {self.extra_latency_s!r}"
            )


class FaultInjector:
    """Seeded per-link fault decisions, attached via ``Network.inject_faults``."""

    def __init__(
        self,
        rng: Optional[np.random.Generator] = None,
        seed: int = 0,
        default: Optional[LinkFaultPlan] = None,
    ) -> None:
        self.rng = rng if rng is not None else np.random.default_rng(seed)
        self.default = default or LinkFaultPlan()
        self._links: Dict[Tuple[str, str], LinkFaultPlan] = {}
        #: total messages this injector decided to drop
        self.drops = 0
        #: total uniform draws consumed (diagnostic for determinism checks)
        self.draws = 0

    # -- configuration ----------------------------------------------------------

    def set_link(
        self, a: str, b: str, plan: LinkFaultPlan, symmetric: bool = True
    ) -> None:
        """Override the fault profile of the a→b link (both ways by default)."""
        self._links[(a, b)] = plan
        if symmetric:
            self._links[(b, a)] = plan

    def clear_link(self, a: str, b: str) -> None:
        self._links.pop((a, b), None)
        self._links.pop((b, a), None)

    def plan_for(self, src: str, dst: str) -> LinkFaultPlan:
        return self._links.get((src, dst), self.default)

    # -- decisions ---------------------------------------------------------------

    def should_drop(self, src: str, dst: str) -> bool:
        """Decide the fate of one message on the src→dst link.

        Consumes one RNG draw iff the link is lossy, so adding lossless
        links to a topology never perturbs the drop sequence elsewhere.
        """
        if src == dst:
            return False
        p = self.plan_for(src, dst).drop_probability
        if p <= 0.0:
            return False
        self.draws += 1
        dropped = float(self.rng.random()) < p
        if dropped:
            self.drops += 1
        return dropped

    def extra_latency(self, src: str, dst: str) -> float:
        if src == dst:
            return 0.0
        return self.plan_for(src, dst).extra_latency_s
