"""The simulated network fabric and its two SOAP transports."""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass, field, fields
from typing import Any, Dict, Optional, Set, Tuple, Union

from repro.net.host import Host
from repro.net.params import NetworkParams
from repro.net.uri import Uri, UriError
from repro.sim import Environment
from repro.soap.envelope import EnvelopeCache
from repro.xmlx import WireText
from repro.xmlx.writer import utf8_size


class DeliveryError(RuntimeError):
    """Connection refused / host down / partitioned / message dropped."""


def _utf8_size(payload: Union[str, WireText]) -> int:
    """The UTF-8 size of *payload*: a spliced message knows its own,
    without joining or encoding its text."""
    return payload.size if isinstance(payload, WireText) else utf8_size(payload)


@dataclass(slots=True)
class NetworkStats:
    """Aggregate traffic and fault counters for the benchmark harness."""

    messages: int = 0
    bytes: int = 0
    by_scheme: Dict[str, int] = field(default_factory=lambda: defaultdict(int))
    by_category: Dict[str, int] = field(default_factory=lambda: defaultdict(int))
    bytes_by_category: Dict[str, int] = field(default_factory=lambda: defaultdict(int))
    #: injected message losses (drops still consume wire time/bandwidth)
    drops: int = 0
    drops_by_link: Dict[Tuple[str, str], int] = field(
        default_factory=lambda: defaultdict(int)
    )
    #: delivery failures by cause: "drop" | "partition" | "host-down" |
    #: "refused" | "rejected" (a one-way message dropped at its endpoint)
    faults: Dict[str, int] = field(default_factory=lambda: defaultdict(int))
    #: client-side retries taken under a RetryPolicy
    retries: int = 0
    #: broker-side notification redelivery attempts
    redeliveries: int = 0

    def record(self, scheme: str, size: int, category: str) -> None:
        self.messages += 1
        self.bytes += size
        self.by_scheme[scheme] += 1
        self.by_category[category] += 1
        self.bytes_by_category[category] += size

    def record_drop(self, src: str, dst: str) -> None:
        self.drops += 1
        self.drops_by_link[(src, dst)] += 1
        self.faults["drop"] += 1

    def record_fault(self, kind: str) -> None:
        self.faults[kind] += 1

    def reset(self) -> None:
        # Derived from the dataclass fields so counters added later can
        # never silently survive a reset and corrupt benchmark deltas.
        for f in fields(self):
            value = getattr(self, f.name)
            if isinstance(value, dict):
                value.clear()
            else:
                setattr(self, f.name, 0)


@dataclass(frozen=True, slots=True)
class DeliveryContext:
    """Metadata handed to a server with each inbound message."""

    source_host: str
    scheme: str
    one_way: bool
    path: str = "/"
    #: WS-Addressing MessageID of the carried envelope ("" when unknown);
    #: lets server-side spans correlate to the in-flight network span
    message_id: str = ""


class Network:
    """Full-mesh fabric of :class:`Host` objects.

    The two public coroutines are :meth:`request` (request/response) and
    :meth:`send_one_way` (fire-and-forget, §4.1's "one-way message"), both
    addressed by URI.  soap.tcp connections are cached per
    (source, destination, port) triple so only the first message pays the
    session handshake — the WSE TCP behaviour the paper exploits.
    """

    def __init__(
        self,
        env: Environment,
        params: Optional[NetworkParams] = None,
    ) -> None:
        self.env = env
        self.params = params or NetworkParams()
        self.hosts: Dict[str, Host] = {}
        self.stats = NetworkStats()
        self._tcp_sessions: Set[Tuple[str, str, int]] = set()
        self._partitions: Set[Tuple[str, str]] = set()
        #: opt-in deterministic link faults (see repro.net.faults)
        self.fault_injector = None
        #: attached repro.obs.Observability, or None = observation off
        #: (every instrumentation site guards on this being non-None)
        self.obs: Optional[Any] = None
        #: attached repro.gridapp.tracing.EventTrace (the numbered Fig. 3
        #: steps), or None
        self.trace: Optional[Any] = None
        #: the utilization samplers' shared timers (repro.gridapp.utilization)
        self.sampler_timers: Optional[Any] = None
        #: the envelope hand-off (docs/performance.md): endpoints pass it
        #: to SoapEnvelope.serialize/deserialize, so the receiver of a
        #: message encoded on this fabric adopts the sender's tree
        self.codec = EnvelopeCache()
        #: the parsed destination per address sent to (a Uri is
        #: immutable): the deployment's endpoints, never an unroutable one
        self._routes: Dict[str, Uri] = {}

    def inject_faults(
        self,
        drop_probability: float = 0.0,
        extra_latency_s: float = 0.0,
        seed: int = 0,
        rng=None,
    ):
        """Attach a seeded :class:`~repro.net.faults.FaultInjector`.

        Returns the injector so callers can add per-link overrides.
        Passing ``drop_probability=0`` with no overrides yields a
        fault-free injector (useful to pre-wire chaos harnesses).
        """
        from repro.net.faults import FaultInjector, LinkFaultPlan

        self.fault_injector = FaultInjector(
            rng=rng,
            seed=seed,
            default=LinkFaultPlan(
                drop_probability=drop_probability,
                extra_latency_s=extra_latency_s,
            ),
        )
        return self.fault_injector

    def clear_faults(self) -> None:
        self.fault_injector = None

    # -- topology ---------------------------------------------------------------

    def add_host(self, name: str) -> Host:
        if name in self.hosts:
            raise ValueError(f"duplicate host name {name!r}")
        host = Host(self, name)
        self.hosts[name] = host
        return host

    def host(self, name: str) -> Host:
        try:
            return self.hosts[name]
        except KeyError:
            raise DeliveryError(f"unknown host {name!r}") from None

    def partition(self, a: str, b: str) -> None:
        """Sever connectivity between hosts *a* and *b* (both directions)."""
        self._partitions.add((a, b))
        self._partitions.add((b, a))

    def heal(self, a: str, b: str) -> None:
        self._partitions.discard((a, b))
        self._partitions.discard((b, a))

    def latency_between(self, a: str, b: str) -> float:
        base = self.params.latency_s
        if self.fault_injector is not None:
            base += self.fault_injector.extra_latency(a, b)
        return base

    def _check_reachable(self, src: str, dst: str) -> Host:
        if self.host(src).down:
            self.stats.record_fault("host-down")
            raise DeliveryError(f"source host {src!r} is down")
        if (src, dst) in self._partitions:
            self.stats.record_fault("partition")
            raise DeliveryError(f"network partition between {src!r} and {dst!r}")
        dest = self.host(dst)
        if dest.down:
            self.stats.record_fault("host-down")
            raise DeliveryError(f"host {dst!r} is down")
        return dest

    def _message_dropped(self, src: str, dst: str) -> bool:
        """Decide (and account) the loss of one message on src→dst.

        The decision is drawn when the send is initiated so the RNG
        sequence is independent of NIC queueing order; the caller still
        charges the wire time before acting on a drop (the bytes left
        the NIC and vanished in the fabric).
        """
        if self.fault_injector is None or not self.fault_injector.should_drop(src, dst):
            return False
        self.stats.record_drop(src, dst)
        return True

    # -- transports ----------------------------------------------------------------

    def _connect_cost(self, scheme: str, src: str, dst: str, port: int) -> float:
        p = self.params
        if scheme == "http":
            # Every HTTP exchange pays connection establishment.
            return p.http_connect_s + self.latency_between(src, dst)
        if scheme == "soap.tcp":
            key = (src, dst, port)
            if key in self._tcp_sessions:
                return 0.0
            self._tcp_sessions.add(key)
            return p.soaptcp_connect_s + self.latency_between(src, dst)
        raise DeliveryError(f"no transport for scheme {scheme!r}")

    def _overhead(self, scheme: str) -> int:
        return (
            self.params.http_overhead_B
            if scheme == "http"
            else self.params.soaptcp_overhead_B
        )

    def drop_tcp_sessions(self, host: str) -> None:
        """Forget cached soap.tcp sessions touching *host* (e.g. restart)."""
        self._tcp_sessions = {
            key for key in self._tcp_sessions if key[0] != host and key[1] != host
        }

    def _transmit(self, src: Host, dst_name: str, scheme: str, size: int, category: str):
        """Move *size* payload bytes from *src* to *dst_name*; a coroutine."""
        params = self.params
        duration = params.transfer_time(size, self._overhead(scheme))
        finish = src.reserve_tx(duration)
        # Wait for the NIC to drain, then for propagation.
        yield self.env.timeout(max(0.0, finish - self.env.now))
        yield self.env.timeout(self.latency_between(src.name, dst_name))
        self.stats.record(scheme, size + self._overhead(scheme), category)

    def _open_send(self, name: str, src_host: str, url: str, category: str, message_id):
        """What both transports start with: the parsed target, the
        sending host and the send's span (None with observation off)."""
        uri = self._routes.get(url)
        if uri is None:
            try:
                uri = Uri.parse(url)
                if not uri.is_network:
                    raise UriError(f"{uri.scheme}:// names no network endpoint")
            except UriError as exc:
                # An address nobody can be reached at (a subscriber's
                # ConsumerReference, say) is a refused delivery, each
                # time: only a route is kept.
                self.stats.record_fault("refused")
                raise DeliveryError(f"cannot route {url!r}: {exc}") from None
            self._routes[url] = uri
        src = self.host(src_host)
        span = None
        if self.obs is not None:
            span = self.obs.start_span(
                name,
                message_id=message_id,
                attrs={
                    "scheme": uri.scheme,
                    "category": category,
                    "source": src_host,
                    "target": uri.host,
                },
            )
        return uri, src, span

    def request(
        self,
        src_host: str,
        url: str,
        payload: Union[str, WireText],
        category: str = "rpc",
        message_id: Optional[str] = None,
    ):
        """Request/response exchange; returns the response text.

        Returns a coroutine (``yield from`` it, or wrap with
        ``env.process``).  Raises :class:`DeliveryError` if *url*
        cannot be routed, the destination is unreachable or nothing
        listens on the port — and nothing else for what the payload
        says: every endpoint answers a bad message with a fault envelope
        (:mod:`repro.soap.endpoint`).  A bug in a handler still
        propagates to the caller; that is not input.  *message_id* (the
        envelope's WS-Addressing MessageID, when the caller has one)
        correlates the network span with the sender's.
        """
        uri, src, span = self._open_send("net.request", src_host, url, category, message_id)
        obs = self.obs
        leg = None
        try:
            dest = self._check_reachable(src_host, uri.host)
            port = uri.port or 80

            connect = self._connect_cost(uri.scheme, src_host, uri.host, port)
            if connect:
                yield self.env.timeout(connect)

            size = _utf8_size(payload)
            # Sender-side XML serialization cost.
            yield self.env.timeout(self.params.xml_cost(size))
            request_dropped = self._message_dropped(src_host, uri.host)
            if obs is not None:
                leg = obs.start_span(
                    "net.transit", parent=span,
                    attrs={"leg": "request", "scheme": uri.scheme},
                )
            yield from self._transmit(src, uri.host, uri.scheme, size, category)
            if leg is not None:
                obs.finish(leg)
            if request_dropped:
                raise DeliveryError(
                    f"request dropped on link {src_host!r}->{uri.host!r}"
                )

            server = dest.server_on(port)
            if server is None:
                self.stats.record_fault("refused")
                raise DeliveryError(f"connection refused: {uri.host}:{port}")
            # Receiver-side parse cost.
            yield self.env.timeout(self.params.xml_cost(size))
            ctx = DeliveryContext(
                source_host=src_host, scheme=uri.scheme, one_way=False,
                path=uri.path, message_id=message_id or "",
            )
            # The one handler that runs in a process of its own: with_retry
            # kills an abandoned attempt, and the server's work runs on.
            response = yield self.env.process(server.handle(payload, ctx))
            if dest.down:
                # The server executed, but the host died before its
                # reply left: the caller sees a reset, not an answer
                # from a dead machine (write-ahead contract, reply leg).
                self.stats.record_fault("host-down")
                raise DeliveryError(
                    f"host {uri.host!r} went down before replying"
                )
            if response is None:
                response = ""
            resp_size = _utf8_size(response)
            yield self.env.timeout(self.params.xml_cost(resp_size))
            # NOTE: the server has already executed by now — losing the
            # response leg makes a retried call at-least-once.
            response_dropped = self._message_dropped(uri.host, src_host)
            if obs is not None:
                leg = obs.start_span(
                    "net.transit", parent=span,
                    attrs={"leg": "response", "scheme": uri.scheme},
                )
            yield from self._transmit(dest, src_host, uri.scheme, resp_size, category)
            if leg is not None:
                obs.finish(leg)
            if response_dropped:
                raise DeliveryError(
                    f"response dropped on link {uri.host!r}->{src_host!r}"
                )
            yield self.env.timeout(self.params.xml_cost(resp_size))
            return response
        finally:
            if span is not None:
                obs.finish(span)
            if leg is not None:  # an attempt abandoned in transit
                obs.finish(leg)

    def bulk_transfer(
        self,
        src_host: str,
        dst_host: str,
        scheme: str,
        size: int,
        category: str = "bulk",
    ):
        """Coroutine: move *size* raw bytes between hosts.

        Used for file payloads too large to embed in SOAP envelopes
        (synthetic benchmark files): the wire time and traffic stats are
        charged exactly as if the bytes had been streamed, without
        materializing them.  An existing transport session is assumed
        (callers do an RPC first, which establishes it).
        """
        if scheme not in ("http", "soap.tcp"):
            raise DeliveryError(f"no transport for scheme {scheme!r}")
        src = self.host(src_host)
        self._check_reachable(src_host, dst_host)
        # Bulk streams ride an established session and are not subject to
        # injected drops (the set-up RPC already was); extra link latency
        # still applies via latency_between.
        yield from self._transmit(src, dst_host, scheme, size, category)

    def send_one_way(
        self,
        src_host: str,
        url: str,
        payload: Union[str, WireText],
        category: str = "oneway",
        message_id: Optional[str] = None,
    ):
        """Fire-and-forget message: returns once the payload is delivered.

        Returns a coroutine.  The paper's one-way message "closes the
        connection immediately after sending"; the sender does not wait
        for the handler to run and sees :class:`DeliveryError` only (no
        route, unreachable, nothing listening).  A message the endpoint
        will not act on is counted and dropped there
        (:mod:`repro.soap.endpoint`); a bug in a handler ends the
        handler's own detached process and so stops the run.
        """
        uri, src, span = self._open_send("net.oneway", src_host, url, category, message_id)
        obs = self.obs
        handed_off = False
        try:
            dest = self._check_reachable(src_host, uri.host)
            port = uri.port or 80

            connect = self._connect_cost(uri.scheme, src_host, uri.host, port)
            if connect:
                yield self.env.timeout(connect)
            size = _utf8_size(payload)
            yield self.env.timeout(self.params.xml_cost(size))
            dropped = self._message_dropped(src_host, uri.host)
            yield from self._transmit(src, uri.host, uri.scheme, size, category)
            if dropped:
                # Fire-and-forget: the sender gets no error — the message
                # is simply never delivered (§4.1 one-way loss semantics).
                if span is not None:
                    span.attrs["dropped"] = True
                return None

            server = dest.server_on(port)
            if server is None:
                self.stats.record_fault("refused")
                raise DeliveryError(f"connection refused: {uri.host}:{port}")
            ctx = DeliveryContext(
                source_host=src_host, scheme=uri.scheme, one_way=True,
                path=uri.path, message_id=message_id or "",
            )

            def _deliver():
                # Parse cost is the receiver's problem; runs detached.
                # The span's ownership moved here: it stays open until the
                # handler finishes, so server-side spans can parent to it.
                try:
                    yield self.env.timeout(self.params.xml_cost(size))
                    yield from server.handle(payload, ctx)
                except DeliveryError:
                    # The receiving host died mid-handling (crash-restart
                    # zombie abort): for a one-way message that is the
                    # same as a drop — nobody is owed an answer.
                    self.stats.record_fault("host-down")
                finally:
                    if span is not None:
                        obs.finish(span)

            self.env.process(_deliver())
            handed_off = True
            return None
        finally:
            if span is not None and not handed_off:
                obs.finish(span)
