"""A small blocking client for the solver server's JSON-lines protocol.

Used by ``python -m repro.smtlib --server HOST:PORT``, the traffic-replay
benchmark and the test-suite.  One :class:`ServeClient` wraps one TCP
connection; requests are answered in completion order, so a client that
wants simple semantics (this one) sends one request at a time and matches
the ``id``.  Thread safety: use one client per thread.
"""

from __future__ import annotations

import socket
from typing import Any, Dict, Optional, Sequence

from .protocol import DEFAULT_PORT, MAX_LINE_BYTES, decode_line, encode_line


class ServeError(RuntimeError):
    """Connection-level or protocol-level failure talking to the server."""


class ServeClient:
    """One blocking connection to a running :mod:`repro.serve` server."""

    def __init__(
        self, host: str = "127.0.0.1", port: int = DEFAULT_PORT, timeout: Optional[float] = 300.0
    ) -> None:
        self.host = host
        self.port = port
        try:
            self._sock = socket.create_connection((host, port), timeout=timeout)
        except OSError as error:
            raise ServeError(f"cannot connect to {host}:{port}: {error}") from None
        self._file = self._sock.makefile("rb")
        self._next_id = 0

    # ------------------------------------------------------------------
    def close(self) -> None:
        try:
            self._file.close()
        finally:
            self._sock.close()

    def __enter__(self) -> "ServeClient":
        return self

    def __exit__(self, *_exc) -> None:
        self.close()

    # ------------------------------------------------------------------
    def request(self, payload: Dict[str, Any]) -> Dict[str, Any]:
        """Send one request object, block for its response object."""
        self._next_id += 1
        request_id = self._next_id
        payload = dict(payload)
        payload.setdefault("id", request_id)
        try:
            self._sock.sendall(encode_line(payload))
            while True:
                line = self._file.readline(MAX_LINE_BYTES + 2)
                if not line:
                    raise ServeError("server closed the connection mid-request")
                response = decode_line(line)
                # Sequential use means the next response is ours, but be
                # defensive about stray ids (e.g. after a timeout skew).
                if response.get("id") in (payload["id"], None):
                    return response
        except (OSError, ValueError) as error:
            raise ServeError(f"request failed: {error}") from None

    # ------------------------------------------------------------------
    def solve(
        self,
        script: str,
        name: str = "",
        timeout: Optional[float] = None,
        inject: Sequence[Dict[str, Any]] = (),
    ) -> Dict[str, Any]:
        """Submit one SMT-LIB script; returns the solve response object."""
        payload: Dict[str, Any] = {"op": "solve", "script": script}
        if name:
            payload["name"] = name
        if timeout is not None:
            payload["timeout"] = timeout
        if inject:
            payload["inject"] = list(inject)
        return self.request(payload)

    def ping(self) -> Dict[str, Any]:
        return self.request({"op": "ping"})

    def stats(self) -> Dict[str, Any]:
        """Server-level counters (jobs, dedup, abandoned jobs, restarts)."""
        return self.request({"op": "stats"})

    def shutdown(self) -> Dict[str, Any]:
        """Ask the server to drain and exit cleanly."""
        return self.request({"op": "shutdown"})


def parse_host_port(value: str) -> tuple:
    """Parse ``HOST:PORT`` (or bare ``HOST``, on :data:`DEFAULT_PORT`) into a
    ``(host, port)`` pair."""
    if ":" in value:
        host, _, port_text = value.rpartition(":")
        try:
            return (host or "127.0.0.1", int(port_text))
        except ValueError:
            raise ServeError(f"bad port in {value!r}") from None
    return (value or "127.0.0.1", DEFAULT_PORT)
