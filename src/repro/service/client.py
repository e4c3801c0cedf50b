"""Client for a running analysis daemon (TCP transport).

Small by design: connect, send request lines, read response lines. Used
by ``repro client``, the CI smoke job, and the service tests; any
language that can write a JSON line to a socket can do the same.
"""

from __future__ import annotations

import socket
import time
from typing import Any, Dict, Optional

from repro.service.protocol import DEFAULT_TENANT, Request, encode_line, is_error

#: default window for establishing the TCP connection; a daemon that is
#: still binding its port is retried with deterministic exponential
#: backoff (0.05, 0.1, 0.2, ... seconds, no jitter) until it elapses
DEFAULT_CONNECT_TIMEOUT = 5.0

CONNECT_BACKOFF_BASE = 0.05


class ServiceConnectionError(ConnectionError):
    """Could not reach (or lost) the daemon."""


class ServiceClient:
    """One connection to a daemon; request ids are assigned per client.

    ``connect_timeout`` bounds the whole connection-establishment phase:
    a refused connection (daemon spawned but not yet listening) is
    retried with deterministic exponential backoff until the deadline,
    so spawning a daemon and connecting to it does not race. ``timeout``
    is the per-request socket timeout once connected.
    """

    def __init__(
        self,
        host: str = "127.0.0.1",
        port: int = 0,
        timeout: Optional[float] = 30.0,
        connect_timeout: Optional[float] = DEFAULT_CONNECT_TIMEOUT,
        _sleep=time.sleep,
        _clock=time.monotonic,
    ):
        self.host = host
        self.port = port
        self._next_id = 0
        self.connect_attempts = 0
        budget = connect_timeout if connect_timeout is not None else 0.0
        deadline = _clock() + budget
        attempt = 0
        while True:
            self.connect_attempts = attempt + 1
            try:
                self._sock = socket.create_connection(
                    (host, port), timeout=timeout
                )
                break
            except OSError as exc:
                delay = CONNECT_BACKOFF_BASE * (2 ** attempt)
                if _clock() + delay > deadline:
                    raise ServiceConnectionError(
                        f"cannot connect to daemon at {host}:{port} "
                        f"after {self.connect_attempts} attempt(s): {exc}"
                    ) from exc
                _sleep(delay)
                attempt += 1
        self._reader = self._sock.makefile("r", encoding="utf-8")

    def call(
        self,
        method: str,
        params: Optional[Dict[str, Any]] = None,
        tenant: str = DEFAULT_TENANT,
    ) -> dict:
        """Send one request, wait for its response dict (result or error)."""
        self._next_id += 1
        request = Request(
            id=self._next_id, method=method, params=params or {}, tenant=tenant
        )
        try:
            self._sock.sendall(encode_line(request.to_json()).encode("utf-8"))
            line = self._reader.readline()
        except OSError as exc:
            raise ServiceConnectionError(f"daemon connection lost: {exc}") from exc
        if not line:
            raise ServiceConnectionError("daemon closed the connection")
        import json

        response = json.loads(line)
        if not isinstance(response, dict):
            raise ServiceConnectionError(f"malformed response: {line!r}")
        return response

    def result(
        self,
        method: str,
        params: Optional[Dict[str, Any]] = None,
        tenant: str = DEFAULT_TENANT,
    ) -> Any:
        """Like :meth:`call` but unwraps ``result`` and raises on ``error``."""
        response = self.call(method, params, tenant=tenant)
        if is_error(response):
            error = response["error"]
            raise ServiceRequestError(error.get("code"), error.get("message"), error)
        return response.get("result")

    def close(self) -> None:
        try:
            self._reader.close()
        except OSError:
            pass
        try:
            self._sock.close()
        except OSError:
            pass

    def __enter__(self) -> "ServiceClient":
        return self

    def __exit__(self, *exc) -> None:
        self.close()


class ServiceRequestError(Exception):
    """The daemon answered with a protocol ``error`` object."""

    def __init__(self, code: Optional[int], message: Optional[str], error: dict):
        super().__init__(f"[{code}] {message}")
        self.code = code
        self.error = error


__all__ = [
    "ServiceClient",
    "ServiceConnectionError",
    "ServiceRequestError",
]
