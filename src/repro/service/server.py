"""The asyncio planning server (``repro serve``, DESIGN.md §5.9).

Request lifecycle, shared by the ``plan`` and ``fleet`` ops::

    connection -> decode frame
      -> admission: parse -> drain gate -> deadline -> build job + key
                 -> exact-cache hit (answered here, never queued)
                 -> saturation gate -> bounded queue
      -> worker -> exact-cache re-check -> queue-expiry check
                -> circuit breaker gate
                -> one plan attempt (executor thread, cooperative deadline)
                -> degradation ladder (stale cache -> heuristic -> refusal)
      -> response frame

Every admitted request is answered exactly once, within its deadline
regime: a fresh plan, an exact cache hit, an explicitly ``degraded``
stale/heuristic plan, or a one-line refusal.  Nothing is silently
dropped — the load harness (`scripts/service_bench.py`) asserts this.
A request gets one planning attempt: the planner is a deterministic
in-process function of the request, so a second attempt on the same
request would fail the same way.

Concurrency model: one event loop; ``workers`` asyncio workers each
drive one planning call at a time on a same-width thread pool.  The
planner is pure Python, so threads serialize on the GIL — the pool
buys *cancellation and queueing semantics* (a planning call blocks a
thread, not the loop; deadlines fire inside the evaluator via the
``cancel_check`` seam), not CPU parallelism.  The degradation ladder
runs on a separate single-thread executor so a breaker-open burst of
stuck planning threads cannot starve the cheap fallback path.

Ops (JSON-lines; any object without an ``op`` is a plan request):

* ``{"op": "plan", ...PlanRequest fields}`` -> PlanResponse
* ``{"op": "fleet", ...FleetRequest fields}`` -> FleetResponse: the
  joint multi-tenant planner through the same lifecycle; its degraded
  rung is the per-tenant heuristic fleet (no exact cache — a fleet
  answer depends on every tenant, so plan-cache reuse happens inside
  the planner, not at the response layer)
* ``{"op": "health"}`` -> readiness + breaker/cache/queue snapshot,
  answered immediately (never queued behind planning work)
* ``{"op": "stats"}`` -> full counter dump
* ``{"op": "drain"}`` -> begin graceful drain (also wired to SIGTERM):
  finish in-flight and queued work, refuse new plans, flush a
  cache-stats summary line, then close.
"""

from __future__ import annotations

import asyncio
import signal
import sys
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from typing import Callable, Optional

from repro.service.api import (
    FleetRequest,
    FleetResponse,
    PlanRequest,
    PlanResponse,
    RequestError,
    SOURCE_CACHE,
    SOURCE_FRESH,
    SOURCE_HEURISTIC,
    SOURCE_STALE_CACHE,
    decode_message,
    encode_message,
    family_key,
    strategy_digest,
)
from repro.service.core import (
    CacheEntry,
    PlanningCore,
    StrategyCache,
    heuristic_fleet,
    heuristic_plan,
    make_entry,
)
from repro.service.resilience import (
    ChaosSchedule,
    CircuitBreaker,
    Deadline,
    DeadlineExceeded,
)


@dataclass(frozen=True)
class ServerConfig:
    """Everything `repro serve` can tune, with service-grade defaults."""

    host: str = "127.0.0.1"
    port: int = 0  # 0 = pick a free port; the bound port is printed
    workers: int = 2
    queue_limit: int = 16
    #: Applied when a request carries no ``deadline_s``; None = unbounded.
    default_deadline_s: Optional[float] = 30.0
    check: bool = False
    cache_entries: int = 256
    breaker_threshold: int = 3
    breaker_cooldown_s: float = 2.0
    chaos: Optional[ChaosSchedule] = None

    def __post_init__(self) -> None:
        if self.workers < 1:
            raise ValueError(f"workers must be >= 1, got {self.workers}")
        if self.queue_limit < 1:
            raise ValueError(
                f"queue_limit must be >= 1, got {self.queue_limit}"
            )


@dataclass
class ServiceStats:
    """Lifetime counters, dumped by the ``stats`` op and the drain line."""

    received: int = 0
    served: int = 0
    fresh: int = 0
    cache_hits: int = 0
    stale_serves: int = 0
    heuristic_serves: int = 0
    degraded: int = 0
    refused: int = 0
    rejected_saturated: int = 0
    rejected_draining: int = 0
    errors: int = 0
    deadline_misses: int = 0
    queue_expired: int = 0

    def to_dict(self) -> dict:
        return dict(self.__dict__)


@dataclass(frozen=True)
class _Op:
    """What differs between the two planning ops (``plan``, ``fleet``).

    :class:`PlanningServer` runs one lifecycle for both and never
    branches on the op; it calls these instead.  The callables reach
    ``build_job`` and ``StrategyCache.get`` by attribute at call time,
    and the lifecycle looks ``core_method`` up on the server's core per
    attempt, so wrappers installed on those classes after import (the
    benchmark's span tracer) still see every call.
    """

    request_cls: type
    response_cls: type
    #: The PlanningCore method that plans one request.
    core_method: str
    #: request -> its planning input (``_Ticket.spec``).
    build: Callable
    #: (cache, ticket) -> the exact cached answer, or None.
    hit: Callable
    #: (cache, fresh answer) -> None.
    keep: Callable
    #: (cache, ticket) -> a stale answer for the ladder, or None.
    stale: Callable
    #: ticket -> the heuristic answer (runs on the fallback executor).
    heuristic: Callable
    #: (ticket, answer) -> the op's own response fields.
    fields: Callable

    def reply(
        self,
        request_id: str,
        status: str,
        reason: str,
        elapsed_s: float = 0.0,
    ) -> dict:
        """A response without a plan: an error or a refusal."""
        return self.response_cls(
            request_id=request_id,
            status=status,
            reason=reason,
            elapsed_s=elapsed_s,
        ).to_dict()


@dataclass(frozen=True)
class _Ticket:
    """One admitted planning request, built once at admission."""

    op: _Op
    request: object  # PlanRequest or FleetRequest
    spec: object  # what ``op.build`` made: a JobConfig or a FleetSpec
    key: str  # request.fingerprint(spec)
    deadline: Deadline


def _heuristic_entry(ticket: _Ticket) -> CacheEntry:
    # Deliberately NOT cached: a heuristic plan must never be
    # mistaken for the planner's answer on a later exact hit.
    return make_entry(
        ticket.spec, *heuristic_plan(ticket.spec), fingerprint=ticket.key
    )


def _plan_fields(ticket: _Ticket, entry: CacheEntry) -> dict:
    return dict(
        fingerprint=entry.fingerprint,
        model=entry.model_name,
        iteration_time=entry.iteration_time,
        baseline_iteration_time=entry.baseline_iteration_time,
        strategy_digest=entry.digest,
        options=entry.options_text,
        compressed_tensors=entry.compressed_tensors,
        num_tensors=entry.num_tensors,
    )


def _fleet_fields(ticket: _Ticket, result) -> dict:
    return dict(
        fingerprint=ticket.key,
        mode=result.mode,
        converged=result.converged,
        oscillated=result.oscillated,
        rounds=result.rounds,
        aggregate_throughput=result.aggregate_throughput,
        selfish_aggregate_throughput=result.selfish_aggregate_throughput,
        worst_slowdown=result.worst_slowdown,
        tenants=tuple(
            {
                "name": plan.name,
                "model": plan.model,
                "source": plan.source,
                "iteration_time": plan.contended_time,
                "nominal_time": plan.nominal_time,
                "slowdown": plan.slowdown,
                "throughput": plan.throughput,
                "strategy_digest": strategy_digest(plan.strategy),
                "contention": plan.contention.describe(),
            }
            for plan in result.tenants
        ),
        timelines_checked=result.timelines_checked,
    )


_OPS = {
    "plan": _Op(
        request_cls=PlanRequest,
        response_cls=PlanResponse,
        core_method="plan_request",
        build=lambda request: request.build_job(),
        hit=lambda cache, ticket: cache.get(ticket.key),
        keep=lambda cache, entry: cache.put(entry),
        stale=lambda cache, ticket: cache.get_stale(family_key(ticket.spec)),
        heuristic=_heuristic_entry,
        fields=_plan_fields,
    ),
    # A fleet answer couples every tenant, so fleets skip the strategy
    # cache (plan reuse happens inside the planner); the degraded rung
    # is the per-tenant heuristic fleet.
    "fleet": _Op(
        request_cls=FleetRequest,
        response_cls=FleetResponse,
        core_method="plan_fleet_request",
        build=lambda request: request.build_fleet(),
        hit=lambda cache, ticket: None,
        keep=lambda cache, result: None,
        stale=lambda cache, ticket: None,
        heuristic=lambda ticket: heuristic_fleet(ticket.spec),
        fields=_fleet_fields,
    ),
}


class PlanningServer:
    """Newline-delimited-JSON planning service over TCP.

    Construct, ``await start()``, then ``await wait_drained()`` (or use
    :meth:`run` which does both plus signal wiring).  All mutable state
    is touched only from the event loop thread.
    """

    def __init__(self, config: ServerConfig) -> None:
        self.config = config
        self.core = PlanningCore(check=config.check)
        self.cache = StrategyCache(max_entries=config.cache_entries)
        self.breaker = CircuitBreaker(
            failure_threshold=config.breaker_threshold,
            cooldown_s=config.breaker_cooldown_s,
        )
        self.stats = ServiceStats()
        # Created in start(): on Python 3.9 asyncio primitives bind the
        # loop they were constructed under, which must be the running one.
        self.queue: Optional["asyncio.Queue"] = None
        self._drained: Optional[asyncio.Event] = None
        self.draining = False
        self.drain_reason = ""
        self.in_flight = 0
        self.port: Optional[int] = None
        self._server: Optional[asyncio.base_events.Server] = None
        self._workers: list = []
        self._drain_task: Optional[asyncio.Task] = None
        self._executor = ThreadPoolExecutor(
            max_workers=config.workers, thread_name_prefix="plan"
        )
        # The degradation ladder must stay responsive even when every
        # planning thread is wedged in a slow evaluation, so it gets
        # its own (single) thread.
        self._fallback_executor = ThreadPoolExecutor(
            max_workers=1, thread_name_prefix="fallback"
        )

    # -- lifecycle -----------------------------------------------------

    async def start(self) -> None:
        self.queue = asyncio.Queue(maxsize=self.config.queue_limit)
        self._drained = asyncio.Event()
        self._server = await asyncio.start_server(
            self._handle_connection, self.config.host, self.config.port
        )
        self.port = self._server.sockets[0].getsockname()[1]
        self._workers = [
            asyncio.get_running_loop().create_task(self._worker(i))
            for i in range(self.config.workers)
        ]

    def install_signal_handlers(self) -> None:
        loop = asyncio.get_running_loop()
        for signum in (signal.SIGTERM, signal.SIGINT):
            loop.add_signal_handler(
                signum,
                self.request_drain,
                f"signal {signal.Signals(signum).name}",
            )

    async def run(self) -> None:
        """Start, announce the port, and serve until drained."""
        await self.start()
        self.install_signal_handlers()
        print(
            f"repro serve: listening on {self.config.host}:{self.port} "
            f"(workers={self.config.workers} "
            f"queue_limit={self.config.queue_limit})",
            flush=True,
        )
        if self.config.chaos is not None and self.config.chaos.active:
            print(
                f"repro serve: CHAOS ACTIVE ({self.config.chaos.describe()})",
                flush=True,
            )
        await self.wait_drained()

    async def wait_drained(self) -> None:
        await self._drained.wait()

    def request_drain(self, reason: str = "drain requested") -> None:
        """Begin graceful drain: finish in-flight + queued, refuse new."""
        if self.draining:
            return
        self.draining = True
        self.drain_reason = reason
        self._drain_task = asyncio.get_running_loop().create_task(
            self._finish_drain()
        )

    async def _finish_drain(self) -> None:
        await self.queue.join()
        # Blocking puts: with a queue smaller than the worker count the
        # sentinels drain through as workers consume them and exit.
        for _ in self._workers:
            await self.queue.put(None)
        await asyncio.gather(*self._workers, return_exceptions=True)
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
        self._executor.shutdown(wait=False)
        self._fallback_executor.shutdown(wait=False)
        cache = self.cache.stats()
        print(
            f"repro serve: drained ({self.drain_reason}); "
            f"served {self.stats.served} "
            f"({self.stats.fresh} fresh, {self.stats.cache_hits} cached, "
            f"{self.stats.degraded} degraded, {self.stats.refused} refused, "
            f"{self.stats.rejected_saturated + self.stats.rejected_draining} "
            f"rejected); cache hit rate {cache['hit_rate']:.1%} "
            f"({cache['entries']} entries, {cache['stale_hits']} stale serves)",
            flush=True,
        )
        self._drained.set()

    # -- wire handling -------------------------------------------------

    async def _handle_connection(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        write_lock = asyncio.Lock()
        pending = set()

        async def answer(line: bytes) -> None:
            response = await self.dispatch_line(line)
            async with write_lock:
                writer.write(encode_message(response))
                try:
                    await writer.drain()
                except ConnectionError:
                    pass

        try:
            while True:
                line = await reader.readline()
                if not line:
                    break
                if not line.strip():
                    continue
                # One task per frame so a pipelining client gets
                # concurrent planning, not per-connection serialization.
                task = asyncio.get_running_loop().create_task(answer(line))
                pending.add(task)
                task.add_done_callback(pending.discard)
            if pending:
                await asyncio.gather(*pending, return_exceptions=True)
        except asyncio.CancelledError:
            # Event-loop shutdown cancels handler tasks mid-read; the
            # stream protocol retrieves our result, so propagating the
            # cancellation would be logged as a callback error.
            pass
        finally:
            writer.close()
            try:
                await writer.wait_closed()
            except (ConnectionError, asyncio.CancelledError):
                # Drain closes the listener while handlers are winding
                # down; a cancelled close is a clean exit here.
                pass

    async def dispatch_line(self, line: bytes) -> dict:
        try:
            message = decode_message(line)
        except RequestError as error:
            self.stats.errors += 1
            return PlanResponse(status="error", reason=str(error)).to_dict()
        return await self.dispatch(message)

    async def dispatch(self, message: dict) -> dict:
        op = message.get("op", "plan")
        # Introspection is answered inline — it must work precisely
        # when the queue is saturated or the planner is wedged.
        if op == "health":
            return self.health()
        if op == "stats":
            return {"op": "stats", **self.snapshot()}
        if op == "drain":
            self.request_drain("drain op received")
            return {"op": "drain", "status": "draining"}
        if isinstance(op, str) and op in _OPS:  # a wire op may not hash
            return await self.submit(message)
        self.stats.errors += 1
        return PlanResponse(
            status="error", reason=f"unknown op {op!r}"
        ).to_dict()

    def health(self) -> dict:
        return {
            "op": "health",
            "status": "ok",
            "ready": not self.draining and not self.queue.full(),
            "draining": self.draining,
            "queue_depth": self.queue.qsize(),
            "queue_limit": self.config.queue_limit,
            "in_flight": self.in_flight,
            "workers": self.config.workers,
            "served": self.stats.served,
            "breaker": self.breaker.snapshot(),
            "cache": self.cache.stats(),
        }

    def snapshot(self) -> dict:
        return {
            **self.stats.to_dict(),
            "queue_depth": self.queue.qsize(),
            "in_flight": self.in_flight,
            "draining": self.draining,
            "breaker": self.breaker.snapshot(),
            "cache": self.cache.stats(),
        }

    # -- admission + planning lifecycle -------------------------------

    async def submit(self, message: dict) -> dict:
        """Admission: parse, drain gate, deadline, build the job and its
        key, answer an exact-cache hit, saturation gate, queue."""
        op = _OPS[message.get("op", "plan")]
        self.stats.received += 1
        request_id = str(message.get("request_id", ""))
        try:
            request = op.request_cls.from_dict(message)
        except RequestError as error:
            self.stats.errors += 1
            return op.reply(request_id, "error", str(error))
        if self.draining:
            self.stats.rejected_draining += 1
            return op.reply(
                request.request_id,
                "rejected",
                f"draining ({self.drain_reason}): "
                f"refusing new {op.request_cls.NOUN} requests",
            )
        budget = (
            request.deadline_s
            if request.deadline_s is not None
            else self.config.default_deadline_s
        )
        try:
            deadline = Deadline(budget)
        except ValueError as error:
            self.stats.errors += 1
            return op.reply(request.request_id, "error", str(error))
        try:
            spec = op.build(request)
            ticket = _Ticket(
                op, request, spec, request.fingerprint(spec), deadline
            )
        except RequestError as error:
            self.stats.errors += 1
            return op.reply(
                request.request_id, "error", str(error), deadline.elapsed()
            )
        # A hit is the plan a fresh run would select, so it is answered
        # here, ahead of queued fresh plans and even when the queue is
        # full.  A miss is counted once, by the lookup at dequeue.
        if ticket.key in self.cache:
            return self._cache_hit(ticket)
        if self.queue.full():
            self.stats.rejected_saturated += 1
            return op.reply(
                request.request_id,
                "rejected",
                f"admission control: queue saturated "
                f"({self.queue.qsize()} queued, limit "
                f"{self.config.queue_limit}); retry later",
            )
        future = asyncio.get_running_loop().create_future()
        self.queue.put_nowait((ticket, future))
        return await future

    async def _worker(self, index: int) -> None:
        while True:
            item = await self.queue.get()
            if item is None:
                self.queue.task_done()
                return
            ticket, future = item
            self.in_flight += 1
            try:
                response = await self._process(ticket)
            except Exception as error:  # the answer-every-request net
                self.stats.errors += 1
                response = ticket.op.reply(
                    ticket.request.request_id,
                    "error",
                    f"internal error: {type(error).__name__}: {error}",
                    ticket.deadline.elapsed(),
                )
            finally:
                self.in_flight -= 1
                self.queue.task_done()
            if not future.done():
                future.set_result(response)

    def _cache_hit(self, ticket: _Ticket) -> Optional[dict]:
        """The exact-cache answer, or None (a counted lookup)."""
        entry = ticket.op.hit(self.cache, ticket)
        if entry is None:
            return None
        self.stats.cache_hits += 1
        return self._answer(ticket, entry, SOURCE_CACHE, attempts=0)

    async def _process(self, ticket: _Ticket) -> dict:
        """Queue expiry, breaker gate, one planning attempt, ladder."""
        # An identical request may have been planned while this one
        # was queued.
        hit = self._cache_hit(ticket)
        if hit is not None:
            return hit
        deadline = ticket.deadline
        if deadline.expired():
            # Spent its whole budget queued: planning would only miss
            # harder.  Not an evaluator failure, so the breaker is not
            # charged; the ladder still answers within this turn.
            self.stats.queue_expired += 1
            return await self._degraded(
                ticket,
                f"deadline of {deadline.budget_s:.3f}s expired "
                f"after {deadline.elapsed():.3f}s in queue",
            )

        if not self.breaker.allow():
            return await self._degraded(
                ticket,
                f"circuit breaker open "
                f"({self.breaker.consecutive_failures} consecutive "
                f"failures); planner bypassed",
            )

        try:
            answer = await asyncio.get_running_loop().run_in_executor(
                self._executor, self._attempt, ticket
            )
        except DeadlineExceeded as error:
            self.stats.deadline_misses += 1
            self.breaker.record_failure()
            return await self._degraded(ticket, str(error))
        except Exception:
            # Any other planner failure is charged too, so that a
            # half-open probe never stays in flight; the worker's net
            # answers the request.
            self.breaker.record_failure()
            raise
        self.breaker.record_success()
        ticket.op.keep(self.cache, answer)
        self.stats.fresh += 1
        return self._answer(ticket, answer, SOURCE_FRESH)

    def _attempt(self, ticket: _Ticket):
        """The planning attempt on an executor thread (chaos applies)."""
        deadline = ticket.deadline
        chaos = self.config.chaos
        if chaos is not None and chaos.slows(ticket.request.request_id):
            self._chaos_sleep(chaos.slow_seconds, deadline)
        deadline.check()
        plan = getattr(self.core, ticket.op.core_method)
        return plan(ticket.request, cancel_check=deadline.check)

    @staticmethod
    def _chaos_sleep(seconds: float, deadline: Deadline) -> None:
        """Injected evaluator slowness, still deadline-cancellable."""
        end = time.monotonic() + seconds
        while True:
            deadline.check()
            left = end - time.monotonic()
            if left <= 0:
                return
            time.sleep(min(0.02, left))

    async def _degraded(self, ticket: _Ticket, reason: str) -> dict:
        """The degradation ladder: stale plan -> heuristic -> refusal."""
        stale = ticket.op.stale(self.cache, ticket)
        if stale is not None:
            self.stats.degraded += 1
            self.stats.stale_serves += 1
            return self._answer(
                ticket, stale, SOURCE_STALE_CACHE, degraded=True, reason=reason
            )
        try:
            answer = await asyncio.get_running_loop().run_in_executor(
                self._fallback_executor, ticket.op.heuristic, ticket
            )
        except Exception as error:
            self.stats.refused += 1
            return ticket.op.reply(
                ticket.request.request_id,
                "rejected",
                f"{reason}; heuristic fallback also failed: {error}",
                ticket.deadline.elapsed(),
            )
        self.stats.degraded += 1
        self.stats.heuristic_serves += 1
        return self._answer(
            ticket, answer, SOURCE_HEURISTIC, degraded=True, reason=reason
        )

    def _answer(
        self,
        ticket: _Ticket,
        answer,
        source: str,
        degraded: bool = False,
        reason: Optional[str] = None,
        attempts: int = 1,
    ) -> dict:
        self.stats.served += 1
        return ticket.op.response_cls(
            request_id=ticket.request.request_id,
            status="ok",
            reason=reason,
            source=source,
            degraded=degraded,
            attempts=attempts,
            elapsed_s=ticket.deadline.elapsed(),
            **ticket.op.fields(ticket, answer),
        ).to_dict()


def serve(config: ServerConfig) -> int:
    """Blocking entry point for ``repro serve``."""
    try:
        asyncio.run(PlanningServer(config).run())
    except KeyboardInterrupt:  # pragma: no cover - interactive escape
        print("repro serve: interrupted", file=sys.stderr)
        return 1
    return 0


__all__ = ["PlanningServer", "ServerConfig", "ServiceStats", "serve"]
