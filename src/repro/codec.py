"""The wire codec: JSON for every frame one party writes for another.

Veil's domains exchange frames through pages the less-privileged side
writes (the hypervisor-shared GHCB and the IDCBs, paper section 5.2),
and the fleet's hosts exchange them over an untrusted fabric.  Every
such frame, sealed channel payload and audit record is JSON, and this
module is its one codec:

* :func:`encode` writes sorted keys with the default ``", "`` and
  ``": "`` separators;
* :func:`encode_compact` writes sorted keys with the fabric's ``","``
  and ``":"``;
* :func:`decode` reads bytes the caller does not trust.

Each encoder gives exactly the bytes of ``json.dumps(obj,
sort_keys=True)`` with its separators, but is built once, from the C
encoder when the interpreter has one, instead of once per call.

:func:`decode` refuses bad UTF-8, bad JSON and nesting deeper than
:data:`MAX_DEPTH` with one :class:`~repro.errors.CodecError` (a
``ValueError``, carrying ``json``'s own text for bad UTF-8 and bad
JSON), and otherwise returns exactly what ``json.loads`` returns.  The
depth check runs before the parser does.  The parser recurses once per
level and would stop at the interpreter's recursion limit, which
depends on how deep the caller's stack already is; checked first, the
verdict on a frame is the same from any caller.  Each caller maps the
error to its own outcome: a halted CVM, an error reply or ``None``.
"""

from __future__ import annotations

import json
from itertools import accumulate
from json import encoder as _json_encoder

from .errors import CodecError

#: Deepest nesting of arrays and objects :func:`decode` accepts.  The
#: deepest legitimate frame nests 3 levels (an enclave layout); the
#: parser's own recursion at this bound stays far below the
#: interpreter's limit from any realistic call depth.
MAX_DEPTH = 32


def _encoder(name: str, separators: tuple[str, str], doc: str):
    """``json.dumps(obj, sort_keys=True, separators=separators)`` as
    UTF-8 bytes, with the encoder built once."""
    generic = json.JSONEncoder(sort_keys=True, separators=separators)
    make = _json_encoder.c_make_encoder
    if make is None:
        def encode(obj) -> bytes:
            return generic.encode(obj).encode("utf-8")
    else:
        # The C encoder ``JSONEncoder.encode`` builds on every call, with
        # the same arguments.  It returns its output as chunks, and it
        # leaves a container's circular-reference marker behind when it
        # raises, so the markers are cleared after every call.  One
        # encoder serves one call at a time: the simulator runs on one
        # thread.
        markers: dict = {}
        c_encode = make(markers, generic.default,
                        _json_encoder.encode_basestring_ascii, None,
                        generic.key_separator, generic.item_separator,
                        True, False, True)

        def encode(obj) -> bytes:
            try:
                return "".join(c_encode(obj, 0)).encode("utf-8")
            finally:
                markers.clear()
    encode.__name__ = encode.__qualname__ = name
    encode.__doc__ = doc
    return encode


encode = _encoder("encode", (", ", ": "), """Sorted-key JSON of ``obj``
with the default separators: ``json.dumps(obj, sort_keys=True)`` as
bytes.""")

encode_compact = _encoder("encode_compact", (",", ":"), """Sorted-key
JSON of ``obj`` with the fleet fabric's compact separators:
``json.dumps(obj, sort_keys=True, separators=(",", ":"))`` as bytes.""")

_NOT_BRACKETS = bytes(byte for byte in range(256) if byte not in b"[]{}")
_STEP = {ord("["): 1, ord("{"): 1, ord("]"): -1, ord("}"): -1}


def _nesting(data: bytes) -> int:
    """The deepest nesting the parser could reach on ``data``.

    Brackets outside strings, counted left to right: exact for valid
    JSON, and never below what the parser reaches before it stops on
    invalid JSON.  With the escaped backslashes and then the escaped
    quotes removed, every quote left opens or closes a string, so the
    text outside strings is every other piece between quotes (an
    unterminated string runs to the end).  Each step runs in C.
    """
    unescaped = data.replace(b"\\\\", b"").replace(b'\\"', b"")
    outside = b"".join(unescaped.split(b'"')[::2])
    brackets = outside.translate(None, _NOT_BRACKETS)
    return max(accumulate(map(_STEP.__getitem__, brackets)), default=0)


def decode(data: bytes):
    """The JSON value ``data`` holds, checked before it is parsed.

    Raises :class:`~repro.errors.CodecError` when ``data`` is not UTF-8,
    nests deeper than :data:`MAX_DEPTH`, or is not JSON.  The value need
    not be an object.
    """
    try:
        text = data.decode("utf-8")
    except UnicodeDecodeError as bad:
        raise CodecError(str(bad)) from bad
    # A frame with few brackets cannot nest deeply; only one with more
    # than MAX_DEPTH of them is scanned.
    if (data.count(b"[") + data.count(b"{") > MAX_DEPTH and
            _nesting(data) > MAX_DEPTH):
        raise CodecError(f"nesting deeper than {MAX_DEPTH} levels")
    try:
        return json.loads(text)
    except ValueError as bad:
        raise CodecError(str(bad)) from bad
