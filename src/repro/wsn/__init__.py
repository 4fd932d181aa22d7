"""WS-Notification: asynchronous messaging between services and clients.

Implements the three specs the paper uses:

- **WS-BaseNotification** — Subscribe/Notify; subscriptions are
  WS-Resources (pausable and lifetime-managed);
- **WS-Topics** — topic trees with Simple, Concrete and Full dialects;
- **WS-BrokeredNotification** — the NotificationBroker "multicast
  mechanism" of §4.3: producers send one Notify to the broker, the
  broker fans out to every matching subscriber.

Service authors never see message formats: ``self.notify(topic, payload)``
is the paper's "single function that services may invoke"; clients use a
:class:`NotificationListener` — "one of WSRF.NET's light-weight
notification receivers" (§4.6) — to receive WS-Notification-compliant
messages over HTTP on their own host.
"""

from repro.wsn.topics import (
    CONCRETE_DIALECT,
    FULL_DIALECT,
    SIMPLE_DIALECT,
    TopicExpression,
    TopicExpressionError,
)
from repro.wsn.base_notification import (
    NotificationConsumerPortType,
    NotificationProducerPortType,
    SubscriptionManagerPortType,
    attach_notification_producer,
    build_notify_batch_body,
    build_notify_body,
    build_subscribe_body,
    parse_notify_body,
)
from repro.wsn.batching import NotificationBatcher
from repro.wsn.consumer import NotificationListener, ReceivedNotification
from repro.wsn.broker import (
    DemandPublisherPortType,
    NotificationBrokerService,
    RegisterPublisherPortType,
)

__all__ = [
    "CONCRETE_DIALECT",
    "FULL_DIALECT",
    "SIMPLE_DIALECT",
    "DemandPublisherPortType",
    "NotificationBatcher",
    "NotificationBrokerService",
    "NotificationConsumerPortType",
    "NotificationListener",
    "NotificationProducerPortType",
    "ReceivedNotification",
    "RegisterPublisherPortType",
    "SubscriptionManagerPortType",
    "TopicExpression",
    "TopicExpressionError",
    "attach_notification_producer",
    "build_notify_batch_body",
    "build_notify_body",
    "build_subscribe_body",
    "parse_notify_body",
]
