"""Minimal JSON-lines socket protocol: submit/status/result/cancel/health.

One request is one JSON object on one line; the response is one JSON
object on one line.  Connections are per-request (the client connects,
sends, reads, closes), which keeps both ends trivial to reason about
under chaos — there is no connection state to corrupt.

Transport is a Unix-domain socket by default (the natural fit for a
host-local service and for tests), or TCP when the address is given as
``host:port``.  The protocol is deliberately tiny: anything that needs
evolution rides inside the request/response objects, guarded by
``proto`` versions.

Requests::

    {"op": "submit", "scenario": {...},
     "trace": {"trace_id": ..., "client_t0": ...},
     "profile": false}                           -> job_id + disposition
    {"op": "status", "job_id": "job-000001"}     -> job view
    {"op": "result", "job_id": "job-000001"}     -> result summary
    {"op": "cancel", "job_id": "job-000001"}     -> job view
    {"op": "jobs"}                               -> every job + counts
    {"op": "health"}                             -> liveness + queue stats
    {"op": "metrics", "window": 60}              -> live registry + ring
    {"op": "trace", "job_id": "job-000001"}      -> the job's trace records

The optional ``trace`` object on ``submit`` is the wire form of a
client-minted :class:`~repro.obs.live.TraceContext`; the service
journals it with the job so the client, queue and worker spans stitch
into one tree (``repro report trace --job``).

Responses carry ``{"ok": true, ...}`` or ``{"ok": false, "error": msg}``.
"""

from __future__ import annotations

import asyncio
import json
import socket
import time
from pathlib import Path
from typing import Callable, Dict, Optional, Tuple, Union

PROTO_VERSION = 1

MAX_REQUEST_BYTES = 4 * 1024 * 1024
"""Oversize-request guard (a scenario spec is a few KB)."""

Address = Union[str, Path, Tuple[str, int]]


class ProtocolError(RuntimeError):
    """The peer broke the framing or returned an error response."""


def parse_address(value: Union[str, Path]) -> Address:
    """``host:port`` becomes a TCP tuple, everything else a socket path."""
    text = str(value)
    if ":" in text and "/" not in text:
        host, _, port = text.rpartition(":")
        if port.isdigit():
            return (host or "127.0.0.1", int(port))
    return Path(text)


class ProtocolServer:
    """Asyncio JSON-lines server delegating to one handler callable.

    The handler receives the decoded request dict and returns the
    response dict; every exception it raises is turned into an
    ``{"ok": false}`` response rather than a dropped connection.
    """

    def __init__(
        self, address: Address, handler: Callable[[dict], dict]
    ) -> None:
        self.address = address
        self.handler = handler
        self._server: Optional[asyncio.AbstractServer] = None

    async def start(self) -> None:
        if isinstance(self.address, tuple):
            self._server = await asyncio.start_server(
                self._handle, host=self.address[0], port=self.address[1]
            )
        else:
            path = Path(self.address)
            path.parent.mkdir(parents=True, exist_ok=True)
            if path.exists():
                path.unlink()
            self._server = await asyncio.start_unix_server(
                self._handle, path=str(path)
            )

    async def stop(self) -> None:
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
            self._server = None
        if not isinstance(self.address, tuple):
            try:
                Path(self.address).unlink()
            except OSError:
                pass

    async def _handle(
        self,
        reader: asyncio.StreamReader,
        writer: asyncio.StreamWriter,
    ) -> None:
        try:
            line = await reader.readline()
            if not line or len(line) > MAX_REQUEST_BYTES:
                return
            try:
                request = json.loads(line.decode("utf-8"))
                if not isinstance(request, dict):
                    raise ValueError("request must be a JSON object")
            except (ValueError, UnicodeDecodeError) as exc:
                response = {"ok": False, "error": f"bad request: {exc}"}
            else:
                try:
                    response = self.handler(request)
                except Exception as exc:  # handler bug -> error response
                    response = {
                        "ok": False,
                        "error": f"{type(exc).__name__}: {exc}",
                    }
            response.setdefault("proto", PROTO_VERSION)
            writer.write(
                json.dumps(response, sort_keys=True).encode("utf-8") + b"\n"
            )
            await writer.drain()
        finally:
            writer.close()
            try:
                await writer.wait_closed()
            except (ConnectionError, OSError):
                pass


class ServiceClient:
    """Synchronous per-request client (CLI, tests, chaos harness)."""

    def __init__(
        self, address: Union[str, Path, Tuple[str, int]], timeout: float = 30.0
    ) -> None:
        self.address = (
            address if isinstance(address, tuple) else parse_address(address)
        )
        self.timeout = timeout

    # -- transport ----------------------------------------------------------

    def request(self, payload: Dict[str, object]) -> Dict[str, object]:
        """One round-trip; raises :class:`ProtocolError` on failure."""
        if isinstance(self.address, tuple):
            sock = socket.create_connection(self.address, self.timeout)
        else:
            sock = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
            try:
                sock.settimeout(self.timeout)
                sock.connect(str(self.address))
            except BaseException:
                sock.close()
                raise
        try:
            sock.sendall(
                json.dumps(payload, sort_keys=True).encode("utf-8") + b"\n"
            )
            chunks = []
            while True:
                chunk = sock.recv(65536)
                if not chunk:
                    break
                chunks.append(chunk)
                if chunk.endswith(b"\n"):
                    break
        finally:
            sock.close()
        blob = b"".join(chunks)
        if not blob:
            raise ProtocolError("connection closed without a response")
        try:
            response = json.loads(blob.decode("utf-8"))
        except (ValueError, UnicodeDecodeError) as exc:
            raise ProtocolError(f"undecodable response: {exc}") from None
        if not isinstance(response, dict):
            raise ProtocolError("response is not a JSON object")
        if not response.get("ok", False):
            raise ProtocolError(str(response.get("error", "unknown error")))
        return response

    # -- operations ---------------------------------------------------------

    def submit(
        self,
        scenario: Dict[str, object],
        *,
        trace: Optional[Dict[str, object]] = None,
        profile: bool = False,
    ) -> Dict[str, object]:
        payload: Dict[str, object] = {"op": "submit", "scenario": scenario}
        if trace is not None:
            payload["trace"] = trace
        if profile:
            payload["profile"] = True
        return self.request(payload)

    def status(self, job_id: str) -> Dict[str, object]:
        return self.request({"op": "status", "job_id": job_id})

    def result(self, job_id: str) -> Dict[str, object]:
        return self.request({"op": "result", "job_id": job_id})

    def cancel(self, job_id: str) -> Dict[str, object]:
        return self.request({"op": "cancel", "job_id": job_id})

    def jobs(self) -> Dict[str, object]:
        return self.request({"op": "jobs"})

    def health(self) -> Dict[str, object]:
        return self.request({"op": "health"})

    def metrics(self, window: int = 60) -> Dict[str, object]:
        """Live registry snapshot + ring window + watchdog state."""
        return self.request({"op": "metrics", "window": window})

    def trace(self, job_id: str, limit: int = 5000) -> Dict[str, object]:
        """The trace records of one job from the service event log."""
        return self.request(
            {"op": "trace", "job_id": job_id, "limit": limit}
        )

    # -- convenience --------------------------------------------------------

    def alive(self) -> bool:
        """True when a health round-trip succeeds."""
        try:
            self.health()
            return True
        except (ProtocolError, OSError):
            return False

    def wait_ready(self, timeout: float = 10.0) -> None:
        """Block until the service answers health checks."""
        deadline = time.monotonic() + timeout
        while time.monotonic() < deadline:
            if self.alive():
                return
            time.sleep(0.05)
        raise TimeoutError(
            f"service at {self.address} not ready after {timeout} s"
        )

    def wait_for(
        self,
        job_id: str,
        states=("DONE", "FAILED", "CANCELLED", "QUARANTINED"),
        timeout: float = 120.0,
        poll_s: float = 0.1,
    ) -> Dict[str, object]:
        """Poll until the job reaches one of ``states``; returns its view."""
        deadline = time.monotonic() + timeout
        while time.monotonic() < deadline:
            job = self.status(job_id)["job"]
            if job["state"] in states:
                return job
            time.sleep(poll_s)
        raise TimeoutError(
            f"{job_id} did not reach {states} within {timeout} s"
        )
