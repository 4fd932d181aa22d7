"""Batched WS-Notification fan-out (the performance layer's third leg).

The Fig. 3 walkthrough's step-9 broadcast sends one one-way wsnt:Notify
per subscriber per event; ``bench_scale`` shows the resulting linear
central-message growth at the broker.  :class:`NotificationBatcher`
coalesces every Notify bound for one subscriber within a fixed window
(:data:`BATCH_WINDOW_S`) into a single multi-message Notify (the WS-BaseNotification
schema allows any number of NotificationMessages per Notify, and every
consumer in this codebase already parses the multi-message form).

Semantics, and what the differential harness checks:

- **Ordering within a subscriber is preserved** — events are flushed in
  publish order, and a consumer iterating ``parse_notify_body`` handles
  them in that order.  Batching only *delays* delivery by at most the
  window; it never reorders one subscriber's stream.
- **Cross-subscriber timing may change** — subscriber A's flush timer
  and subscriber B's are independent, so the interleaving of deliveries
  across consumers (a thing one-way messaging never guaranteed) can
  differ from the unbatched run.  This is why the differential harness
  compares outcomes, traces and final state — not packet timelines.
- **Loss semantics are unchanged** — a batch is sent fire-and-forget
  (or through the producer's bounded redelivery when that is enabled);
  an unreachable consumer loses the whole batch exactly as it would
  have lost each individual Notify.
- A subscriber paused or dropped *after* an event was enqueued still
  receives that event: the unbatched producer would already have sent
  it at publish time.
"""

from __future__ import annotations

from typing import Dict, List, Tuple

from repro.wsn.base_notification import (
    NotificationProducer,
    Subscription,
    build_notify_batch_body,
)
from repro.xmlx import Element


#: how long a subscriber's first queued event waits for company (s)
BATCH_WINDOW_S = 0.05


class NotificationBatcher:
    """Per-subscriber coalescing window over a NotificationProducer."""

    def __init__(self, producer: NotificationProducer) -> None:
        self.producer = producer
        #: pending (topic, payload) events per subscription resource id
        self._pending: Dict[str, List[Tuple[str, Element]]] = {}
        #: counters for the obs registry
        self.batches_sent = 0
        self.notifications_batched = 0
        self.max_batch_size = 0

    def enqueue(self, sub: Subscription, topic_path: str, payload: Element) -> None:
        """Queue one event for *sub*; the first event opens the window.

        The payload is copied immediately: the publisher keeps ownership
        of its tree and may mutate it before the window elapses.
        """
        queue = self._pending.get(sub.resource_id)
        if queue is None:
            queue = self._pending[sub.resource_id] = []
            env = self.producer.wrapper.env
            env.process(self._flush_after_window(sub))
        queue.append((topic_path, payload.copy()))
        self.notifications_batched += 1

    def drop_pending(self) -> None:
        """Forget every un-flushed batch (host restart).

        An open window's events only ever lived in process memory; the
        crash loses them exactly as it would lose an in-flight one-way
        Notify.  Pending flush timers from the old boot find their
        queues gone and send nothing.
        """
        self._pending.clear()

    def _flush_after_window(self, sub: Subscription):
        wrapper = self.producer.wrapper
        yield wrapper.env.timeout(BATCH_WINDOW_S)
        events = self._pending.pop(sub.resource_id, [])
        if not events:
            return
        self.batches_sent += 1
        self.max_batch_size = max(self.max_batch_size, len(events))
        body = build_notify_batch_body(events, wrapper.service_epr())
        obs = wrapper.machine.network.obs
        span = None
        if obs is not None:
            span = obs.start_span(
                "wsn.batch_flush",
                attrs={
                    "service": wrapper.path,
                    "subscription": sub.resource_id,
                    "size": len(events),
                },
            )
        self.producer.send(sub, body, parent_span=span)
        if span is not None:
            obs.finish(span)


def enable_batching(wrapper) -> NotificationBatcher:
    """Attach a coalescing batcher to a wrapper's notification producer.

    Composes with ``enable_redelivery``: batches go through the
    producer's bounded-redelivery path when one is configured.
    """
    producer = wrapper.notification_producer
    producer.batcher = NotificationBatcher(producer)
    return producer.batcher
