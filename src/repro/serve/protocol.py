"""The ``repro serve`` wire protocol: line-delimited JSON RPC.

One message per line, each line one JSON object, over a local stream
socket.  Three message shapes travel the wire:

* **Request** (client → master)::

      {"id": 3, "method": "submit", "params": {"spec": {...},
       "priority": 5, "stream": true}}

* **Response** (master → client, matched by ``id``)::

      {"id": 3, "ok": true, "result": {"rid": 12, ...}}
      {"id": 3, "ok": false, "error": {"code": "bad_params",
       "message": "..."}}

* **Stream event** (master → subscribed client, tagged by run id)::

      {"stream": 12, "event": "point", "row": {...}}
      {"stream": 12, "event": "state", "state": "done", ...}

The framing rules are deliberately strict, because a long-lived master
must shrug off anything a confused (or hostile) client throws at it:

* a line is at most :data:`MAX_LINE_BYTES`; longer input is discarded
  up to the next newline and answered with an ``oversized`` error —
  the connection survives, the master's memory is bounded;
* every malformed frame — truncated JSON, a non-object, a missing or
  mistyped field, an unknown method, an unknown parameter — maps to a
  structured error response (see the ``E_*`` codes), never to a
  master-side exception;
* requests are validated *before* they acquire any server state, so a
  rejected ``submit`` can never leak a run id.

Parsing is split into small pure functions (:func:`decode`,
:func:`parse_request`, :class:`LineReader`) precisely so the test
battery can fuzz them without a socket in sight.
"""

import json

__all__ = [
    "MAX_LINE_BYTES",
    "PROTOCOL_SCHEMA",
    "LineReader",
    "Oversized",
    "ProtocolError",
    "decode",
    "encode",
    "error_response",
    "parse_request",
    "request",
    "response",
    "stream_event",
]

PROTOCOL_SCHEMA = 1

#: Hard per-line ceiling (requests *and* responses).  Generous enough
#: for a many-thousand-point campaign spec, small enough that a
#: newline-free firehose cannot balloon the master.
MAX_LINE_BYTES = 1 << 20

# -- error codes -----------------------------------------------------------

E_PARSE = "parse_error"          #: line is not valid JSON
E_OVERSIZED = "oversized"        #: line exceeded MAX_LINE_BYTES
E_BAD_REQUEST = "bad_request"    #: frame shape wrong (not an object, ...)
E_BAD_PARAMS = "bad_params"      #: params missing/mistyped/unknown
E_UNKNOWN_METHOD = "unknown_method"
E_NOT_FOUND = "not_found"        #: no such run id
E_BAD_STATE = "bad_state"        #: run exists but transition is illegal
E_SHUTTING_DOWN = "shutting_down"
E_SERVER = "server_error"        #: master-side bug, reported not fatal


class ProtocolError(Exception):
    """A violation of the wire protocol, carrying its error code."""

    def __init__(self, code, message):
        super().__init__(message)
        self.code = code
        self.message = message


# -- parameter validation --------------------------------------------------

def _typename(value):
    return type(value).__name__


def _check_int(value):
    # bool is an int subclass; a priority of `true` is a client bug we
    # want surfaced, not silently coerced.
    return isinstance(value, int) and not isinstance(value, bool)


def _check_number(value):
    return ((isinstance(value, (int, float))
             and not isinstance(value, bool)))


def _check_str(value):
    return isinstance(value, str)


def _check_bool(value):
    return isinstance(value, bool)


def _check_dict(value):
    return isinstance(value, dict)


_CHECKS = {
    "int": _check_int,
    "number": _check_number,
    "str": _check_str,
    "bool": _check_bool,
    "dict": _check_dict,
}

#: method -> {param: (required, type tag, nullable)}
METHOD_PARAMS = {
    "hello": {},
    "submit": {
        "spec": (True, "dict", False),
        "priority": (False, "int", False),
        "jobs": (False, "int", True),
        "point_timeout_s": (False, "number", True),
        "chunk_size": (False, "int", True),
        "stream": (False, "bool", False),
        "out": (False, "str", True),
    },
    "queue": {},
    "status": {"rid": (False, "int", False)},
    "cancel": {"rid": (True, "int", False)},
    "pause": {"rid": (True, "int", False)},
    "requeue": {"rid": (True, "int", False)},
    "subscribe": {"rid": (True, "int", False)},
    "shutdown": {},
    # Runner-facing methods (repro runner or a local pool runner <->
    # master).  Rows travel as plain dicts — batch kernel stats ride
    # the same method as result rows, tagged by their "__batch__" key.
    "runner_register": {
        "name": (False, "str", True),
        "pid": (False, "int", True),
        "slots": (False, "int", True),
    },
    "runner_lease": {"runner": (True, "int", False)},
    "runner_row": {
        "runner": (True, "int", False),
        "chunk": (True, "int", False),
        "epoch": (True, "int", False),
        "row": (True, "dict", False),
    },
    "runner_heartbeat": {"runner": (True, "int", False)},
}


def parse_request(obj):
    """Validate a decoded frame as a request; ``(id, method, params)``.

    Raises :class:`ProtocolError` on any violation.  Validation is
    strict — unknown parameters are rejected, ``bool`` does not pass
    for ``int`` — so protocol drift between client and master surfaces
    as a clean error instead of a silent misbehaviour.
    """
    request_id = obj.get("id")
    if not isinstance(request_id, (int, str, type(None))) \
            or isinstance(request_id, bool):
        raise ProtocolError(
            E_BAD_REQUEST, f"id must be an int, string or null, "
                           f"not {_typename(request_id)}")
    method = obj.get("method")
    if not isinstance(method, str):
        raise ProtocolError(
            E_BAD_REQUEST, "request needs a string 'method' field")
    params = obj.get("params", {})
    if not isinstance(params, dict):
        raise ProtocolError(
            E_BAD_REQUEST, f"params must be an object, "
                           f"not {_typename(params)}")
    schema = METHOD_PARAMS.get(method)
    if schema is None:
        raise ProtocolError(
            E_UNKNOWN_METHOD,
            f"unknown method {method!r} (know: "
            f"{', '.join(sorted(METHOD_PARAMS))})")
    for name in params:
        if name not in schema:
            raise ProtocolError(
                E_BAD_PARAMS, f"{method}: unknown parameter {name!r}")
    for name, (required, tag, nullable) in schema.items():
        if name not in params:
            if required:
                raise ProtocolError(
                    E_BAD_PARAMS, f"{method}: missing required "
                                  f"parameter {name!r}")
            continue
        value = params[name]
        if value is None and nullable:
            continue
        if not _CHECKS[tag](value):
            raise ProtocolError(
                E_BAD_PARAMS,
                f"{method}: parameter {name!r} must be {tag}"
                f"{' or null' if nullable else ''}, "
                f"got {_typename(value)}")
    return request_id, method, params


# -- message builders ------------------------------------------------------

def request(method, params=None, request_id=0):
    return {"id": request_id, "method": method, "params": params or {}}


def response(request_id, result):
    return {"id": request_id, "ok": True, "result": result}


def error_response(request_id, code, message):
    return {"id": request_id, "ok": False,
            "error": {"code": code, "message": message}}


def stream_event(rid, event, **fields):
    record = {"stream": rid, "event": event}
    record.update(fields)
    return record


# -- framing ---------------------------------------------------------------

def encode(message):
    """One message as a complete wire line (bytes, newline included)."""
    line = json.dumps(message, sort_keys=True,
                      separators=(",", ":"), default=str)
    data = line.encode("utf-8") + b"\n"
    if len(data) > MAX_LINE_BYTES:
        raise ProtocolError(
            E_OVERSIZED, f"encoded message is {len(data)} bytes "
                         f"(limit {MAX_LINE_BYTES})")
    return data


def decode(line):
    """One wire line back into a message dict (raises on violations)."""
    if isinstance(line, str):
        line = line.encode("utf-8")
    if len(line) > MAX_LINE_BYTES:
        raise ProtocolError(
            E_OVERSIZED, f"line is {len(line)} bytes "
                         f"(limit {MAX_LINE_BYTES})")
    try:
        obj = json.loads(line.decode("utf-8"))
    except (UnicodeDecodeError, ValueError) as exc:
        raise ProtocolError(E_PARSE, f"not a JSON line: {exc}") from exc
    if not isinstance(obj, dict):
        raise ProtocolError(
            E_BAD_REQUEST, f"frame must be a JSON object, "
                           f"not {_typename(obj)}")
    return obj


class Oversized:
    """Yielded by :class:`LineReader` in place of a too-long line."""

    __slots__ = ("size",)

    def __init__(self, size):
        self.size = size

    def __repr__(self):
        return f"Oversized({self.size})"


class LineReader:
    """Incremental newline framer over arbitrary byte chunks.

    Feed whatever ``recv`` returned; get back complete lines (without
    the newline) plus :class:`Oversized` markers for lines that blew
    the budget.  An oversized line is emitted as **one** marker the
    moment the budget breaks, and everything up to its terminating
    newline is discarded without buffering — a newline-free flood
    costs O(chunk), not O(stream).
    """

    def __init__(self, max_line=MAX_LINE_BYTES):
        self.max_line = max_line
        self._buffer = bytearray()
        self._discarding = False

    def feed(self, data):
        """Absorb ``data``; return the newly-complete items."""
        items = []
        self._buffer += data
        while True:
            newline = self._buffer.find(b"\n")
            if newline < 0:
                if self._discarding:
                    # Still inside the poisoned line: drop what we have.
                    self._buffer.clear()
                elif len(self._buffer) > self.max_line:
                    items.append(Oversized(len(self._buffer)))
                    self._discarding = True
                    self._buffer.clear()
                break
            line = bytes(self._buffer[:newline])
            del self._buffer[:newline + 1]
            if self._discarding:
                # The tail of a line already reported as oversized.
                self._discarding = False
                continue
            if len(line) > self.max_line:
                items.append(Oversized(len(line)))
                continue
            if line.strip():
                items.append(line)
        return items
