"""Deterministic fault injection.

The Q-Graph paper assumes a healthy cluster; the ROADMAP's standing-query
direction (millions of long-lived queries) does not survive that assumption —
a single lost barrier ack would strand the engine forever.  This module is
the *injection* half of the fault-tolerance subsystem: a :class:`FaultPlan`
describes, ahead of time and on its own seeded RNG stream, which workers
crash when, whether the controller goes down, and with what probabilities
vertex-message batches and control messages are dropped or duplicated.

Everything is injected through the engine's :class:`~repro.simulation.events
.EventQueue` and a dedicated ``default_rng([seed, 0xFA17])`` stream (the same
convention as the workload mix stream ``0x51C`` and the churn stream
``0xC4C4``), so faulted runs stay bit-reproducible and a zero-fault plan is
event-for-event identical to running with no fault layer at all — the engine
normalizes a no-op plan to ``None`` at construction.

Semantics implemented by the engine (:mod:`repro.engine.engine`):

* **Worker crash-stop** — from ``WorkerCrash.time`` the worker accepts no
  tasks; in-flight computes on it are lost (their acks never arrive).  With
  a ``downtime`` the worker rejoins empty-handed after that long; without
  one it never returns.
* **Message drop/duplication** — reliable-transport model: a dropped batch
  is retransmitted after an ack timeout (delay, not loss of content); a
  duplicated batch costs wire time and is discarded by the receiver.
  Answers are therefore timing-affected but content-identical by
  construction on the data plane.
* **Control loss** — barrier acks and per-barrier stats reports are lost
  with the given probabilities; the control plane retries with exponential
  backoff (``CONTROL_RETRY_*`` in :mod:`repro.engine.engine`), so a loss
  delays rather than strands a barrier.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Tuple

import numpy as np

from repro.errors import SimulationError

__all__ = ["WorkerCrash", "ControllerCrash", "FaultPlan", "FAULT_STREAM_KEY"]

#: sub-stream key for ``np.random.default_rng([seed, FAULT_STREAM_KEY])`` —
#: keeps fault draws independent of the workload (0x51C) and churn (0xC4C4)
#: streams for the same scenario seed
FAULT_STREAM_KEY = 0xFA17


@dataclass(frozen=True)
class WorkerCrash:
    """One scheduled crash-stop failure of a worker.

    ``downtime is None`` means the worker never recovers; otherwise it
    rejoins (with no vertices — repartitioning re-populates it) after
    ``downtime`` seconds of virtual time.
    """

    time: float
    worker: int
    downtime: Optional[float] = None

    def __post_init__(self) -> None:
        if self.time < 0:
            raise SimulationError("crash time must be >= 0")
        if self.worker < 0:
            raise SimulationError("crash worker must be >= 0")
        if self.downtime is not None and self.downtime <= 0:
            raise SimulationError("crash downtime must be > 0 (or None)")


@dataclass(frozen=True)
class ControllerCrash:
    """A crash of the MAPE controller.

    While the controller is down the engine degrades gracefully to static
    operation: no repartitions are planned and per-barrier stats reports are
    lost; adaptivity resumes when the controller recovers.
    """

    time: float
    downtime: Optional[float] = None

    def __post_init__(self) -> None:
        if self.time < 0:
            raise SimulationError("controller crash time must be >= 0")
        if self.downtime is not None and self.downtime <= 0:
            raise SimulationError("controller downtime must be > 0 (or None)")


def _check_probability(name: str, value: float) -> None:
    if not 0.0 <= value < 1.0:
        raise SimulationError(f"{name} must be in [0, 1), got {value}")


@dataclass(frozen=True)
class FaultPlan:
    """A deterministic schedule of injected faults.

    Attributes
    ----------
    seed:
        Seeds the engine-side fault RNG stream
        (``default_rng([seed, 0xFA17])``) used for per-batch drop/duplicate
        and per-message control-loss draws.
    crashes / controller_crashes:
        Pre-scheduled crash-stop failures, injected as ordinary events.
    message_drop / message_duplicate:
        Per-batch probabilities that a vertex-message batch is dropped (and
        retransmitted) or delivered twice, on every link.
    control_loss:
        Per-message loss probability for barrier acks (including the
        redundant all-worker acks of ``GLOBAL_PER_QUERY``).
    report_loss:
        Per-barrier loss probability for worker->controller stats reports
        (planning quality degrades; answers are unaffected).
    """

    seed: int = 0
    crashes: Tuple[WorkerCrash, ...] = ()
    controller_crashes: Tuple[ControllerCrash, ...] = ()
    message_drop: float = 0.0
    message_duplicate: float = 0.0
    control_loss: float = 0.0
    report_loss: float = 0.0

    def __post_init__(self) -> None:
        _check_probability("message_drop", self.message_drop)
        _check_probability("message_duplicate", self.message_duplicate)
        _check_probability("control_loss", self.control_loss)
        _check_probability("report_loss", self.report_loss)

    # ------------------------------------------------------------------
    def has_crashes(self) -> bool:
        """Whether any worker crash is scheduled (requires checkpointing)."""
        return bool(self.crashes)

    def is_noop(self) -> bool:
        """True when the plan injects nothing at all.

        A no-op plan must be indistinguishable from running without a fault
        layer; the engine normalizes it to ``None`` so not even RNG
        construction differs.
        """
        return (
            not self.crashes
            and not self.controller_crashes
            and self.message_drop == 0.0
            and self.message_duplicate == 0.0
            and self.control_loss == 0.0
            and self.report_loss == 0.0
        )

    def make_rng(self) -> np.random.Generator:
        """The plan's private RNG stream (independent of workload/churn)."""
        return np.random.default_rng([self.seed, FAULT_STREAM_KEY])

    def validate_for(self, num_workers: int) -> None:
        """Check crash targets against the cluster size."""
        for crash in self.crashes:
            if crash.worker >= num_workers:
                raise SimulationError(
                    f"FaultPlan crashes worker {crash.worker} but the cluster "
                    f"has only {num_workers} workers"
                )
        permanent = {c.worker for c in self.crashes if c.downtime is None}
        if len(permanent) >= num_workers:
            raise SimulationError(
                "FaultPlan permanently crashes every worker — nothing left "
                "to recover onto"
            )
