"""Training-engine fault supervision: injection, retry, degradation.

Production DDL runs do not get to assume healthy compressors and full
worker membership for the whole job.  This module supplies the
:class:`~repro.training.engine.DataParallelTrainer` with a supervision
layer:

* :class:`CompressorFault` — the exception class the trainer treats as
  a (possibly transient) compression failure.
* :class:`CompressorFaultSpec` / :class:`TrainingSupervisor` — scripted
  fault injection (per-tensor, per-step, transient or permanent), retry
  policy with exponential backoff, and scheduled worker dropout.
* :class:`FlakyCompressor` — a wrapper that makes a real compressor
  raise :class:`CompressorFault` on chosen ``compress()`` call indices,
  for tests that want the failure to originate inside the compressor
  rather than from the injection hook.

The degradation contract (tested in ``tests/training/``): when retries
are exhausted for a tensor, the trainer permanently falls back to
``NoCompression`` *for that tensor only*, on every worker, reusing the
same error-feedback state — the accumulated residual is flushed into
the next exact update (not dropped) and then zeroed (not
double-applied), and the run keeps all replicas bitwise-identical.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.compression.base import CompressedTensor, Compressor


class CompressorFault(RuntimeError):
    """A gradient compressor failed (kernel fault, OOM, worker error)."""


@dataclass(frozen=True)
class CompressorFaultSpec:
    """Scripted compressor failures for one tensor.

    Attributes:
        tensor: the tensor (parameter name) whose compression fails.
        step: first training step at which compress attempts fail.
        failures: number of consecutive failing *attempts* (a transient
            fault that heals after retries); ``None`` means every
            attempt from ``step`` on fails (a permanent fault — the
            trainer will exhaust retries and degrade the tensor).
    """

    tensor: str
    step: int = 0
    failures: Optional[int] = None

    def __post_init__(self) -> None:
        if self.step < 0:
            raise ValueError(f"step must be >= 0, got {self.step}")
        if self.failures is not None and self.failures < 1:
            raise ValueError(
                f"failures must be >= 1 or None, got {self.failures}"
            )


@dataclass
class TrainingSupervisor:
    """Fault-injection schedule plus the trainer's resilience policy.

    Attributes:
        compressor_faults: scripted per-tensor compressor failures.
        worker_dropout: ``{worker index: step}`` — the worker leaves the
            job at the start of that step and never returns; remaining
            workers carry the iteration (gradient averaged over the
            active membership).
        max_retries: compress attempts retried per (step, tensor) before
            the tensor is degraded to the fallback compressor.
        retry_backoff: simulated seconds of the first retry's backoff;
            retry ``k`` waits ``retry_backoff * 2**(k-1)``.  Accumulated
            into :attr:`backoff_seconds` and surfaced on the trainer's
            time axis.
    """

    compressor_faults: Sequence[CompressorFaultSpec] = ()
    worker_dropout: Dict[int, int] = field(default_factory=dict)
    max_retries: int = 2
    retry_backoff: float = 0.05

    #: Total simulated backoff delay spent on retries.
    backoff_seconds: float = 0.0
    #: (step, tensor, message) log of every fault observed.
    fault_log: List[Tuple[int, str, str]] = field(default_factory=list)
    _consumed: Dict[str, int] = field(default_factory=dict)

    def __post_init__(self) -> None:
        if self.max_retries < 0:
            raise ValueError(f"max_retries must be >= 0, got {self.max_retries}")
        if self.retry_backoff < 0:
            raise ValueError(
                f"retry_backoff must be >= 0, got {self.retry_backoff}"
            )
        for worker, step in self.worker_dropout.items():
            if worker < 0 or step < 0:
                raise ValueError(
                    f"worker_dropout entries must be non-negative, "
                    f"got {{{worker}: {step}}}"
                )
        self._specs = {spec.tensor: spec for spec in self.compressor_faults}

    # -- injection -------------------------------------------------------

    def inject(self, step: int, tensor: str) -> None:
        """Raise :class:`CompressorFault` if the schedule says so."""
        spec = self._specs.get(tensor)
        if spec is None or step < spec.step:
            return
        if spec.failures is not None:
            consumed = self._consumed.get(tensor, 0)
            if consumed >= spec.failures:
                return
            self._consumed[tensor] = consumed + 1
        raise CompressorFault(
            f"injected compressor fault: tensor {tensor!r} at step {step}"
        )

    # -- policy ----------------------------------------------------------

    def record_fault(self, step: int, tensor: str, message: str) -> None:
        self.fault_log.append((step, tensor, message))

    def backoff(self, attempt: int) -> None:
        """Charge the exponential backoff of retry ``attempt`` (1-based)."""
        self.backoff_seconds += self.retry_backoff * (2 ** (attempt - 1))

    def active_workers(self, step: int, workers: int) -> List[int]:
        """Worker indices still in the job at ``step``."""
        active = [
            w
            for w in range(workers)
            if w not in self.worker_dropout or step < self.worker_dropout[w]
        ]
        if not active:
            raise RuntimeError(
                f"all {workers} workers dropped by step {step}; "
                f"training cannot continue"
            )
        return active

    # -- checkpointing ---------------------------------------------------

    def state_dict(self) -> Dict:
        """The supervisor's *mutable* accounting, for checkpointing.

        The schedule (fault specs, dropout, retry policy) is
        configuration, reconstructed by whoever builds the supervisor;
        what must survive a crash is the accounting the curve's time
        axis and the injection bookkeeping depend on: accumulated
        backoff seconds, the fault log, and how many scripted failures
        each tensor has already consumed.
        """
        return {
            "backoff_seconds": self.backoff_seconds,
            "fault_log": [list(entry) for entry in self.fault_log],
            "consumed": dict(self._consumed),
        }

    def load_state_dict(self, state: Dict) -> None:
        """Restore the accounting captured by :meth:`state_dict`."""
        self.backoff_seconds = float(state["backoff_seconds"])
        self.fault_log = [
            (int(step), str(tensor), str(message))
            for step, tensor, message in state["fault_log"]
        ]
        self._consumed = {
            str(tensor): int(count)
            for tensor, count in state["consumed"].items()
        }


class FlakyCompressor(Compressor):
    """Wrap a compressor so chosen ``compress()`` calls raise.

    Call indices count every compress invocation across workers and
    tensors (deterministic: the trainer iterates workers and tensors in
    a fixed order).  ``fail_calls`` lists transiently failing indices;
    ``fail_from`` makes every call at or after that index fail.
    """

    is_identity = False

    def __init__(
        self,
        inner: Compressor,
        fail_calls: Sequence[int] = (),
        fail_from: Optional[int] = None,
    ):
        self.inner = inner
        self.name = f"flaky-{inner.name}"
        self.work_factor = inner.work_factor
        self.calls = 0
        self.faults_raised = 0
        self._fail_calls = frozenset(fail_calls)
        self._fail_from = fail_from

    def compress(
        self, tensor: np.ndarray, seed: Optional[int] = None
    ) -> CompressedTensor:
        call = self.calls
        self.calls += 1
        if call in self._fail_calls or (
            self._fail_from is not None and call >= self._fail_from
        ):
            self.faults_raised += 1
            raise CompressorFault(f"injected fault on compress call {call}")
        return self.inner.compress(tensor, seed=seed)

    def decompress(self, compressed: CompressedTensor) -> np.ndarray:
        return self.inner.decompress(compressed)

    def compressed_nbytes(self, num_elements: int) -> int:
        return self.inner.compressed_nbytes(num_elements)

    def state_dict(self) -> Dict:
        """Call-counter state, so a checkpointed run resumes with the
        same fault schedule position (the failure indices are counted
        over the whole job, not one process lifetime)."""
        return {"calls": self.calls, "faults_raised": self.faults_raised}

    def load_state_dict(self, state: Dict) -> None:
        self.calls = int(state["calls"])
        self.faults_raised = int(state["faults_raised"])
