"""SOAP 1.1 message layer.

Envelopes are real XML: every message crossing the simulated network is
serialized to the text :func:`repro.xmlx.to_string` writes for it (its
size drives transfer time), so header processing (WS-Addressing routing,
WS-Security tokens, WSRF EPR resolution) happens against documents
exactly as in the paper's ASP.NET stack.  The receiver of a message
this process encoded is handed a ready envelope of its own
(:class:`EnvelopeCache`), a typed value in it as a value
(:func:`typed_value`), and the text is joined only if someone reads
it; any other text is parsed.

Two message-exchange patterns, matching §4.1 of the paper:

- request/response — ordinary web-method calls; the caller blocks until
  the reply envelope arrives;
- one-way — "closes the connection immediately after sending the
  message", used for file-upload requests and notifications; distinct
  from a void-returning method, which still sends an empty reply.
"""

from repro.soap.envelope import EnvelopeCache, SoapEnvelope
from repro.soap.fault import SoapFault
from repro.soap.types import (
    TypedValue,
    from_typed_element,
    to_typed_element,
    typed_value,
    write_typed,
)

__all__ = [
    "EnvelopeCache",
    "SoapEnvelope",
    "SoapFault",
    "TypedValue",
    "from_typed_element",
    "to_typed_element",
    "typed_value",
    "write_typed",
]
