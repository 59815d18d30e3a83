"""Async client for one detection-service worker connection.

Thin request-response wrapper over :mod:`repro.service.protocol`: every
call writes one framed request and awaits its response on the same
connection.  :meth:`ServiceClient.tick` is the frontend's round: one
``tick`` request carries the round's frames for every session on the
worker, and its response carries the ingest verdicts, the tick report
and the decision records, so a round costs one message each way.
:meth:`ServiceClient.pipeline` writes a whole batch of requests before
reading any response; every call goes through it.

Transport failures (refused, reset, EOF mid-conversation) surface as
:class:`~repro.errors.WorkerUnavailableError` — the frontend's trigger
for re-homing the dead worker's sessions.  A response with ``ok: false``
raises :class:`RemoteOpError` carrying the worker-side exception class
name, so callers can tell a resume miss from a protocol breach.
"""

from __future__ import annotations

import asyncio
from typing import Any, Dict, List, Mapping, Optional, Tuple

from repro.errors import ProtocolError, ServiceError, WorkerUnavailableError
from repro.fleet.session import SessionSpec, TelemetryFrame
from repro.service.config import DEFAULT_MAX_FRAME_BYTES
from repro.service.protocol import (
    frame_to_wire,
    read_message,
    request,
    spec_to_wire,
    write_message,
)


class RemoteOpError(ServiceError):
    """A worker answered an operation with an error response."""

    def __init__(self, op: str, kind: str, detail: str) -> None:
        super().__init__(f"{op} failed on worker ({kind}): {detail}")
        self.op = op
        self.kind = kind


class ServiceClient:
    """One persistent connection to one worker's RPC port."""

    def __init__(
        self,
        host: str,
        port: int,
        name: Optional[str] = None,
        max_frame_bytes: int = DEFAULT_MAX_FRAME_BYTES,
    ) -> None:
        self.host = host
        self.port = port
        self.name = name or f"{host}:{port}"
        self.max_frame_bytes = max_frame_bytes
        self._reader: Optional[asyncio.StreamReader] = None
        self._writer: Optional[asyncio.StreamWriter] = None
        self._next_id = 0

    async def connect(self) -> "ServiceClient":
        try:
            self._reader, self._writer = await asyncio.open_connection(
                self.host, self.port
            )
        except (ConnectionError, OSError) as exc:
            raise WorkerUnavailableError(self.name, f"connect: {exc}") from exc
        return self

    @property
    def connected(self) -> bool:
        return self._writer is not None

    async def close(self) -> None:
        if self._writer is None:
            return
        writer, self._writer, self._reader = self._writer, None, None
        writer.close()
        try:
            await writer.wait_closed()
        except (ConnectionError, OSError):
            pass  # peer already gone; nothing left to release

    # -- request/response --------------------------------------------------------

    async def pipeline(
        self, batch: List[Tuple[str, Dict[str, Any]]]
    ) -> List[Dict[str, Any]]:
        """Send a whole batch, then collect the responses, in order.

        One write burst + one read burst = one round trip for the whole
        batch.  Any transport failure raises
        :class:`WorkerUnavailableError`; any ``ok: false`` response
        raises :class:`RemoteOpError` for its operation.
        """
        if self._writer is None or self._reader is None:
            raise WorkerUnavailableError(self.name, "not connected")
        ids: List[int] = []
        try:
            for op, fields in batch:
                msg_id = self._next_id
                self._next_id += 1
                ids.append(msg_id)
                await write_message(
                    self._writer, request(op, msg_id, **fields)
                )
            responses: List[Dict[str, Any]] = []
            for (op, _), msg_id in zip(batch, ids):
                response = await read_message(
                    self._reader, max_bytes=self.max_frame_bytes
                )
                if response is None:
                    raise WorkerUnavailableError(
                        self.name, f"EOF awaiting {op} response"
                    )
                if response.get("id") != msg_id:
                    raise ProtocolError(
                        f"response id {response.get('id')!r} does not match "
                        f"request id {msg_id}"
                    )
                responses.append(response)
            # Only raise after the whole batch is drained, so one failed
            # operation cannot desynchronize the request/response stream.
            for (op, _), response in zip(batch, responses):
                if not response.get("ok"):
                    raise RemoteOpError(
                        op,
                        str(response.get("kind", "ServiceError")),
                        str(response.get("error", "unknown error")),
                    )
            return responses
        except (ConnectionError, OSError, asyncio.IncompleteReadError) as exc:
            await self.close()
            raise WorkerUnavailableError(self.name, str(exc)) from exc

    async def call(self, op: str, **fields: Any) -> Dict[str, Any]:
        return (await self.pipeline([(op, fields)]))[0]

    # -- typed convenience wrappers ----------------------------------------------

    async def register(self, spec: SessionSpec) -> str:
        response = await self.call("register", spec=spec_to_wire(spec))
        return str(response["session_id"])

    async def resume(self, spec: SessionSpec) -> Dict[str, Any]:
        return await self.call("resume", spec=spec_to_wire(spec))

    async def ingest(self, session_id: str, frame: TelemetryFrame) -> bool:
        response = await self.call(
            "ingest", session_id=session_id, frame=frame_to_wire(frame)
        )
        return bool(response["accepted"])

    async def tick(
        self, tick: int, frames: Optional[Mapping[str, TelemetryFrame]] = None
    ) -> Dict[str, Any]:
        """One round: ingest ``frames`` (session id → frame), then tick."""
        wire = {sid: frame_to_wire(frame) for sid, frame in (frames or {}).items()}
        return await self.call("tick", tick=tick, frames=wire)

    async def checkpoint(self, session_id: str, tick: int) -> int:
        response = await self.call(
            "checkpoint", session_id=session_id, tick=tick
        )
        return int(response["version"])

    async def drain(self) -> List[str]:
        response = await self.call("drain")
        return list(response["checkpointed"])

    async def fingerprints(self) -> Dict[str, Dict[str, Any]]:
        return dict((await self.call("fingerprints"))["fingerprints"])

    async def health(self) -> Dict[str, Any]:
        return dict((await self.call("health"))["status"])

    async def shutdown(self) -> None:
        await self.call("shutdown")
