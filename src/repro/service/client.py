"""Minimal asyncio JSON/HTTP client for the routing service.

The container ships no HTTP client library, and a load generator needs
thousands of keep-alive requests per second — this is the smallest thing
that does that job.  One :class:`ServiceClient` owns one connection and
issues requests serially (HTTP/1.1 without pipelining); concurrency comes
from running many clients, which is exactly what the repository benchmark
(``servebench/``) and the service tests do.

``request`` returns ``(status, payload, raw_body)`` — the raw bytes are
what the differential checks compare against locally serialized payloads.
"""

from __future__ import annotations

import asyncio
import json
from typing import Any

__all__ = ["ServiceClient"]


class ServiceClient:
    """One keep-alive connection to a :class:`RoutingService`."""

    def __init__(self, host: str, port: int) -> None:
        self.host = host
        self.port = port
        self._reader: asyncio.StreamReader | None = None
        self._writer: asyncio.StreamWriter | None = None

    async def __aenter__(self) -> "ServiceClient":
        await self.connect()
        return self

    async def __aexit__(self, *exc: object) -> None:
        await self.close()

    async def connect(self) -> None:
        """Open (or re-open) the connection."""
        await self.close()
        self._reader, self._writer = await asyncio.open_connection(
            self.host, self.port
        )

    async def close(self) -> None:
        """Close the connection if open."""
        if self._writer is not None:
            self._writer.close()
            try:
                await self._writer.wait_closed()
            except (ConnectionResetError, BrokenPipeError):
                pass
        self._reader = None
        self._writer = None

    async def request(
        self, method: str, path: str, payload: Any = None
    ) -> tuple[int, Any, bytes]:
        """Issue one request; returns ``(status, decoded payload, raw body)``."""
        if self._reader is None or self._writer is None:
            await self.connect()
        assert self._reader is not None and self._writer is not None
        body = (
            json.dumps(payload, sort_keys=True).encode("utf-8")
            if payload is not None
            else b""
        )
        head = (
            f"{method} {path} HTTP/1.1\r\n"
            f"Host: {self.host}:{self.port}\r\n"
            "Content-Type: application/json\r\n"
            f"Content-Length: {len(body)}\r\n"
            "\r\n"
        )
        self._writer.write(head.encode("latin-1") + body)
        await self._writer.drain()
        return await self._read_response()

    async def get(self, path: str) -> tuple[int, Any, bytes]:
        """``GET path``."""
        return await self.request("GET", path)

    async def post(self, path: str, payload: Any) -> tuple[int, Any, bytes]:
        """``POST path`` with a JSON body."""
        return await self.request("POST", path, payload)

    async def _read_response(self) -> tuple[int, Any, bytes]:
        assert self._reader is not None
        status_line = await self._reader.readline()
        if not status_line:
            raise ConnectionError("server closed the connection")
        parts = status_line.decode("latin-1").split(" ", 2)
        if len(parts) < 2:
            raise ConnectionError(f"malformed status line {status_line!r}")
        status = int(parts[1])
        length = 0
        keep_alive = True
        while True:
            line = await self._reader.readline()
            if line in (b"\r\n", b"\n", b""):
                break
            name, _, value = line.decode("latin-1").partition(":")
            name = name.strip().lower()
            if name == "content-length":
                length = int(value.strip())
            elif name == "connection" and value.strip().lower() == "close":
                keep_alive = False
        raw = await self._reader.readexactly(length) if length else b""
        payload = json.loads(raw) if raw else None
        if not keep_alive:
            await self.close()
        return status, payload, raw
