"""Runtime simulation sanitizer — cheap, epoch-guarded invariant checks.

The discrete-event engine's correctness rests on invariants that normal
tests only probe indirectly: STOP/START migration must not lose or
duplicate messages, barrier epochs only ever advance, halted workers never
compute, the controller's scope store never references dead vertices, and
the dense kernel buffers always match the CSR after a topology flush.
PRs 1–5 each shipped a regression test *after* one of these was silently
broken (stale acks, scope leaks, stranded barriers); the sanitizer turns
them into machine-checked assertions that run with the real workload, the
way TSan gates concurrent systems.

Enable it per engine with ``EngineConfig(sanitizer=True)`` or globally
with ``REPRO_SANITIZER=1`` in the environment (how CI runs the tier-1
suite).  Checks are woven into the engine at low-frequency points —
repartition barriers, graph flushes, barrier acks — so the overhead stays
well under 2x; violations raise a structured :class:`SanitizerError`
carrying the invariant name and the event context.

Invariant catalog
-----------------
``message-conservation``
    Rebucketing a query's mailboxes across a repartition preserves the
    multiset of addressed vertices (combining is deferred to consumption,
    so no two entries merge on the way).
``mailbox-homing``
    After a rebucket, every mailbox entry lives on ``assignment[vertex]``.
``epoch-monotonicity``
    A query's barrier epoch never decreases.
``halted-compute``
    No compute task executes on a halted worker (or for a halted query)
    while a STOP/START barrier is in progress.
``scope-liveness``
    Scope-store entries are always a subset of the live vertex ids.
``state-shape``
    Dense per-query state buffers and the vertex assignment match the
    graph's vertex count after every delta flush.
``csr-integrity``
    The cached ``csr()``/``csr_in()`` views only change at a legitimate
    delta flush (catches out-of-band mutation of the shared arrays).
``crash-epoch``
    No compute executes on a crashed worker, and no barrier ack issued
    before a crash-recovery rollback (epoch at or below the rollback
    fence) is ever accepted — a dead worker's pre-crash traffic must not
    complete a post-recovery barrier.
``recovery-conservation``
    Restoring a checkpoint reproduces the checkpointed message multiset
    exactly and homes every restored mailbox entry on the post-recovery
    assignment — conservation is re-established after recovery.
"""

from __future__ import annotations

import os
from typing import TYPE_CHECKING, Any, Dict, List, Optional, Tuple

import numpy as np

from repro.engine.kernels import ArrayMailbox
from repro.errors import EngineError

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.engine.engine import QGraphEngine
    from repro.engine.query import QueryRuntime

__all__ = ["SanitizerError", "SimulationSanitizer", "sanitizer_enabled"]

#: environment switch CI uses to run the whole tier-1 suite sanitized
ENV_FLAG = "REPRO_SANITIZER"


def sanitizer_enabled(config_value: Optional[bool]) -> bool:
    """Resolve the three-state config knob against the environment.

    ``True``/``False`` win outright; ``None`` (the default) defers to the
    ``REPRO_SANITIZER`` environment variable so an unmodified test-suite
    run can be sanitized wholesale.
    """
    if config_value is not None:
        return config_value
    return os.environ.get(ENV_FLAG, "").strip() not in ("", "0", "false", "off")


class SanitizerError(EngineError):
    """A simulation invariant was violated (structured context attached).

    Attributes
    ----------
    invariant:
        Catalog name of the broken invariant (e.g. ``"epoch-monotonicity"``).
    time:
        Virtual time of the violating event, when known.
    query_id / worker:
        The query / worker involved, when the invariant is scoped to one.
    details:
        Free-form diagnostic payload (expected vs. observed values).
    """

    def __init__(
        self,
        invariant: str,
        message: str,
        *,
        time: Optional[float] = None,
        query_id: Optional[int] = None,
        worker: Optional[int] = None,
        details: Optional[Dict[str, Any]] = None,
    ) -> None:
        self.invariant = invariant
        self.time = time
        self.query_id = query_id
        self.worker = worker
        self.details = dict(details or {})
        context = [f"invariant={invariant}"]
        if time is not None:
            context.append(f"t={time:.6f}")
        if query_id is not None:
            context.append(f"query={query_id}")
        if worker is not None:
            context.append(f"worker={worker}")
        if self.details:
            context.append(f"details={self.details}")
        super().__init__(f"[sanitizer] {message} ({', '.join(context)})")


def _mailbox_fingerprint(boxes: Dict[int, ArrayMailbox]) -> np.ndarray:
    """Order-insensitive fingerprint of one mailbox generation: the sorted
    multiset of addressed vertices (mailboxes defer combining, so
    rebucketing must preserve every raw entry)."""
    vertices, _messages = ArrayMailbox.concat_all(list(boxes.values()))
    return np.sort(vertices, kind="stable")


class SimulationSanitizer:
    """Invariant checker attached to one :class:`QGraphEngine`."""

    def __init__(self, engine: "QGraphEngine") -> None:
        self.engine = engine
        #: query id -> highest barrier epoch observed so far
        self._epochs: Dict[int, int] = {}
        #: query id -> epoch fence recorded at the last checkpoint restore;
        #: accepted acks must carry a strictly newer epoch (crash-epoch)
        self._rollback_fences: Dict[int, int] = {}
        #: number of invariant checks performed (cheap observability)
        self.checks_performed = 0
        self._csr_fingerprint = self._fingerprint_csr()

    # ------------------------------------------------------------------
    # csr-integrity
    # ------------------------------------------------------------------
    def _fingerprint_csr(self) -> Tuple[int, int, int, int, float]:
        graph = self.engine.graph
        csr = graph.csr()
        return (
            graph.num_vertices,
            graph.num_edges,
            int(csr.indptr.sum()),
            int(csr.indices.sum()),
            float(csr.weights.sum()),
        )

    def refresh_csr_fingerprint(self) -> None:
        """Re-baseline after a *legitimate* topology flush."""
        self._csr_fingerprint = self._fingerprint_csr()

    def check_csr_integrity(self, now: float) -> None:
        """The cached CSR views must not have changed since the last flush."""
        self.checks_performed += 1
        current = self._fingerprint_csr()
        if current != self._csr_fingerprint:
            raise SanitizerError(
                "csr-integrity",
                "cached csr() arrays changed outside a delta flush — "
                "something mutated the shared graph buffers",
                time=now,
                details={
                    "expected": self._csr_fingerprint,
                    "observed": current,
                },
            )

    # ------------------------------------------------------------------
    # epoch-monotonicity
    # ------------------------------------------------------------------
    def observe_epoch(self, query_id: int, epoch: int, now: float) -> None:
        """Record a barrier-epoch sighting; epochs must never go backwards."""
        self.checks_performed += 1
        last = self._epochs.get(query_id)
        if last is not None and epoch < last:
            raise SanitizerError(
                "epoch-monotonicity",
                f"barrier epoch went backwards ({last} -> {epoch})",
                time=now,
                query_id=query_id,
                details={"last_seen": last, "observed": epoch},
            )
        self._epochs[query_id] = epoch

    def on_query_finished(self, query_id: int) -> None:
        self._epochs.pop(query_id, None)
        self._rollback_fences.pop(query_id, None)

    # ------------------------------------------------------------------
    # halted-compute
    # ------------------------------------------------------------------
    def check_compute_allowed(self, query_id: int, worker: int, now: float) -> None:
        """No compute may run on a halted worker / for a halted query.

        A superstep still computing is not halted yet: the STOP waits for
        its last task (``SHARED_BSP`` takes the STOP at the superstep
        barrier), so its tasks run while ``paused`` is set.
        """
        self.checks_performed += 1
        engine = self.engine
        if worker in engine._dead_workers:
            raise SanitizerError(
                "crash-epoch",
                "compute executed on a crashed worker",
                time=now,
                query_id=query_id,
                worker=worker,
                details={"dead_workers": sorted(engine._dead_workers)},
            )
        if not engine.paused or engine._superstep_outstanding:
            return
        if worker in engine._stop_workers:
            raise SanitizerError(
                "halted-compute",
                "compute executed on a worker halted by a STOP",
                time=now,
                query_id=query_id,
                worker=worker,
                details={"halted_workers": sorted(engine._stop_workers)},
            )
        if query_id in engine._stop_queries:
            raise SanitizerError(
                "halted-compute",
                "compute executed for a query halted by a STOP",
                time=now,
                query_id=query_id,
                worker=worker,
                details={"halted_queries": sorted(engine._stop_queries)},
            )

    # ------------------------------------------------------------------
    # message-conservation + mailbox-homing (rebucket/migration)
    # ------------------------------------------------------------------
    def snapshot_mailboxes(self) -> Dict[int, Tuple[np.ndarray, np.ndarray]]:
        """Fingerprint every live runtime's mailboxes before a rebucket."""
        snapshot: Dict[int, Tuple[np.ndarray, np.ndarray]] = {}
        for query_id in sorted(self.engine.running):
            qr = self.engine.runtimes[query_id]
            snapshot[query_id] = (
                _mailbox_fingerprint(qr.mailboxes),
                _mailbox_fingerprint(qr.next_mailboxes),
            )
        return snapshot

    def check_rebucket(
        self,
        pre: Dict[int, Tuple[np.ndarray, np.ndarray]],
        assignment: np.ndarray,
        now: float,
    ) -> None:
        """Post-rebucket: nothing lost/duplicated, everything re-homed."""
        for query_id, (pre_current, pre_next) in pre.items():
            qr = self.engine.runtimes[query_id]
            if qr.finished:
                continue
            for generation, pre_vertices, boxes in (
                ("mailboxes", pre_current, qr.mailboxes),
                ("next_mailboxes", pre_next, qr.next_mailboxes),
            ):
                self.checks_performed += 1
                post_vertices = _mailbox_fingerprint(boxes)
                if not np.array_equal(pre_vertices, post_vertices):
                    raise SanitizerError(
                        "message-conservation",
                        f"rebucket changed the {generation} message targets "
                        "(messages lost or fabricated during migration)",
                        time=now,
                        query_id=query_id,
                        details={
                            "generation": generation,
                            "before": int(pre_vertices.size),
                            "after": int(post_vertices.size),
                        },
                    )
                for worker, box in boxes.items():
                    vertices, _messages = box.concat()
                    if vertices.size and not np.all(assignment[vertices] == worker):
                        stray = vertices[assignment[vertices] != worker]
                        raise SanitizerError(
                            "mailbox-homing",
                            f"{generation} entries homed on the wrong worker "
                            "after rebucket",
                            time=now,
                            query_id=query_id,
                            worker=worker,
                            details={
                                "generation": generation,
                                "stray_vertices": stray[:8].tolist(),
                            },
                        )

    # ------------------------------------------------------------------
    # crash-epoch + recovery-conservation (fault tolerance)
    # ------------------------------------------------------------------
    def checkpoint_fingerprint(
        self, qr: "QueryRuntime"
    ) -> Tuple[np.ndarray, np.ndarray]:
        """Fingerprint both mailbox generations at checkpoint capture."""
        return (
            _mailbox_fingerprint(qr.mailboxes),
            _mailbox_fingerprint(qr.next_mailboxes),
        )

    def on_query_restored(
        self,
        query_id: int,
        qr: "QueryRuntime",
        fingerprint: Optional[Tuple[np.ndarray, np.ndarray]],
        assignment: np.ndarray,
        now: float,
    ) -> None:
        """Post-restore: the checkpointed messages came back, re-homed.

        Also records the rollback fence — every barrier ack accepted for
        this query from now on must carry an epoch strictly above the
        pre-restore epoch (the restore bumped it), otherwise pre-crash
        traffic is completing post-recovery barriers (``crash-epoch``).
        """
        self._rollback_fences[query_id] = qr.barrier_epoch - 1
        # the restore legitimately re-bases the observed epoch
        self._epochs[query_id] = qr.barrier_epoch
        if fingerprint is not None:
            for generation, pre_vertices, boxes in (
                ("mailboxes", fingerprint[0], qr.mailboxes),
                ("next_mailboxes", fingerprint[1], qr.next_mailboxes),
            ):
                self.checks_performed += 1
                post_vertices = _mailbox_fingerprint(boxes)
                if not np.array_equal(pre_vertices, post_vertices):
                    raise SanitizerError(
                        "recovery-conservation",
                        f"checkpoint restore changed the {generation} message "
                        "targets (messages lost or fabricated by rollback)",
                        time=now,
                        query_id=query_id,
                        details={
                            "generation": generation,
                            "before": int(pre_vertices.size),
                            "after": int(post_vertices.size),
                        },
                    )
        for worker, box in qr.mailboxes.items():
            self.checks_performed += 1
            vertices, _messages = box.concat()
            if vertices.size and not np.all(assignment[vertices] == worker):
                stray = vertices[assignment[vertices] != worker]
                raise SanitizerError(
                    "recovery-conservation",
                    "restored mailbox entries homed on the wrong worker",
                    time=now,
                    query_id=query_id,
                    worker=worker,
                    details={"stray_vertices": stray[:8].tolist()},
                )

    def observe_ack_accepted(self, query_id: int, epoch: int, now: float) -> None:
        """An accepted barrier ack must postdate any rollback fence."""
        fence = self._rollback_fences.get(query_id)
        if fence is None:
            return
        self.checks_performed += 1
        if epoch <= fence:
            raise SanitizerError(
                "crash-epoch",
                "barrier ack from before a crash-recovery rollback was "
                "accepted",
                time=now,
                query_id=query_id,
                details={"fence_epoch": fence, "ack_epoch": epoch},
            )

    # ------------------------------------------------------------------
    # scope-liveness + state-shape (graph flush)
    # ------------------------------------------------------------------
    def check_scope_liveness(self, now: float) -> None:
        """Controller scope entries must reference live, in-range vertices."""
        engine = self.engine
        graph = engine.graph
        n = graph.num_vertices
        dead_mask = getattr(graph, "dead_mask", None)
        scopes = engine.controller.scopes
        for query_id in scopes.queries():
            self.checks_performed += 1
            members = scopes.scope_array(query_id)
            if members.size == 0:
                continue
            if members.min() < 0 or members.max() >= n:
                raise SanitizerError(
                    "scope-liveness",
                    "scope store references out-of-range vertex ids",
                    time=now,
                    query_id=query_id,
                    details={
                        "num_vertices": n,
                        "min": int(members.min()),
                        "max": int(members.max()),
                    },
                )
            if dead_mask is not None and bool(dead_mask[members].any()):
                dead = members[dead_mask[members]]
                raise SanitizerError(
                    "scope-liveness",
                    "scope store references tombstoned (dead) vertices",
                    time=now,
                    query_id=query_id,
                    details={"dead_vertices": dead[:8].tolist()},
                )

    @staticmethod
    def _state_lengths(kstate: Any) -> List[int]:
        if isinstance(kstate, tuple):
            return [int(part.shape[0]) for part in kstate]
        return [int(kstate.shape[0])]

    def check_state_shapes(self, now: float) -> None:
        """Dense buffers and the assignment must match the CSR vertex count."""
        engine = self.engine
        n = engine.graph.num_vertices
        self.checks_performed += 1
        if engine.assignment.shape != (n,):
            raise SanitizerError(
                "state-shape",
                "vertex assignment out of sync with the graph",
                time=now,
                details={"assignment": engine.assignment.shape, "num_vertices": n},
            )
        for query_id in sorted(engine.running):
            qr = engine.runtimes[query_id]
            self.checks_performed += 1
            if qr.scope_mask is None or qr.scope_mask.size != n:
                raise SanitizerError(
                    "state-shape",
                    "scope mask out of sync with the graph after a flush",
                    time=now,
                    query_id=query_id,
                    details={
                        "scope_mask": None
                        if qr.scope_mask is None
                        else int(qr.scope_mask.size),
                        "num_vertices": n,
                    },
                )
            lengths = self._state_lengths(qr.kstate)
            if any(length != n for length in lengths):
                raise SanitizerError(
                    "state-shape",
                    "dense kernel state buffers out of sync with the graph",
                    time=now,
                    query_id=query_id,
                    details={"buffer_lengths": lengths, "num_vertices": n},
                )

    def on_graph_flush(self, now: float) -> None:
        """A delta flush is the one legitimate topology change: re-baseline
        the CSR fingerprint, then verify the structures that must follow."""
        self.refresh_csr_fingerprint()
        self.check_state_shapes(now)
        self.check_scope_liveness(now)
