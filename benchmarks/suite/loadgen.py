"""Open-loop load generator of the serve-mix workload.

One asyncio process sends the seeded schedule of
:func:`workloads.serve_schedule` over two connections to a running
``repro serve``.  Each request is sent when it is due, whether or not
earlier ones were answered, and its latency is timed *from when it was
due*: a stall in the server then shows in every request that queued
behind it, and a late generator shows in ``lag_s`` instead of hiding
inside the latency.
"""

from __future__ import annotations

import asyncio
import json
import time
from typing import List, Optional, Sequence, Tuple

CONNECTIONS = 2
#: A request unanswered this long counts as dropped.
REQUEST_TIMEOUT_S = 60.0


class Connection:
    """One newline-JSON connection; responses matched by ``request_id``."""

    def __init__(self, host: str, port: int) -> None:
        self.host = host
        self.port = port
        self.reader = self.writer = None
        self.pending = {}
        self.ops: Optional[asyncio.Queue] = None
        self.reader_task: Optional[asyncio.Task] = None

    async def connect(self) -> None:
        self.reader, self.writer = await asyncio.open_connection(self.host, self.port)
        self.ops = asyncio.Queue()
        self.reader_task = asyncio.get_running_loop().create_task(self.read_loop())

    async def read_loop(self) -> None:
        try:
            while True:
                line = await self.reader.readline()
                if not line:
                    break
                message = json.loads(line)
                if "op" in message:
                    self.ops.put_nowait(message)
                    continue
                future = self.pending.pop(message.get("request_id", ""), None)
                if future is not None and not future.done():
                    future.set_result(message)
        finally:
            # The server went away: whatever is still pending is dropped.
            for future in self.pending.values():
                if not future.done():
                    future.set_result(None)
            self.pending.clear()

    async def request(self, payload: dict) -> Optional[dict]:
        future = asyncio.get_running_loop().create_future()
        self.pending[payload["request_id"]] = future
        self.writer.write((json.dumps(payload) + "\n").encode())
        await self.writer.drain()
        return await future

    async def op(self, name: str) -> dict:
        self.writer.write((json.dumps({"op": name}) + "\n").encode())
        await self.writer.drain()
        return await self.ops.get()

    async def close(self) -> None:
        if self.writer is not None:
            self.writer.close()
            try:
                await self.writer.wait_closed()
            except ConnectionError:
                pass
        if self.reader_task is not None:
            await asyncio.gather(self.reader_task, return_exceptions=True)


async def run_load(
    host: str,
    port: int,
    schedule: Sequence[Tuple[float, dict]],
    warm: Sequence[dict] = (),
    timeout_s: float = REQUEST_TIMEOUT_S,
) -> dict:
    """Warm the server with ``warm``, replay ``schedule``, then ask the
    server to drain.

    Returns the warm-up responses, one record per scheduled request
    (``payload``, ``response`` -- None when dropped --, ``latency_s``
    from due time, ``lag_s`` of the generator, ``service_s`` from send
    to answer), and the window from the first due time to the last
    answer.
    """
    connections = [Connection(host, port) for _ in range(CONNECTIONS)]
    try:
        for connection in connections:
            await connection.connect()
        warmed = []
        for index, spec in enumerate(warm):
            payload = {"op": "plan", "request_id": f"warm-{index}", **spec}
            response = await asyncio.wait_for(
                connections[0].request(payload), timeout_s
            )
            warmed.append({"payload": payload, "response": response})

        async def one(connection: Connection, payload: dict, due: float) -> dict:
            sent = time.perf_counter()
            try:
                response = await asyncio.wait_for(connection.request(payload), timeout_s)
            except asyncio.TimeoutError:
                response = None
            done = time.perf_counter()
            return {
                "payload": payload,
                "response": response,
                "latency_s": done - due,
                "lag_s": sent - due,
                "service_s": done - sent,
                "done_s": done,
            }

        start = time.perf_counter()
        tasks: List[asyncio.Task] = []
        for index, (due_s, payload) in enumerate(schedule):
            due = start + due_s
            delay = due - time.perf_counter()
            if delay > 0:
                await asyncio.sleep(delay)
            connection = connections[index % len(connections)]
            tasks.append(asyncio.ensure_future(one(connection, payload, due)))
        records = list(await asyncio.gather(*tasks))
        end = max((record["done_s"] for record in records), default=start)
        await asyncio.wait_for(connections[0].op("drain"), timeout_s)
        return {"warm": warmed, "requests": records, "window_s": end - start}
    finally:
        for connection in connections:
            await connection.close()
