"""Resource governance and fault tolerance for the analysis stack.

This package makes the analysis engines *governable*: every decision
procedure accepts a keyword-only ``budget=`` — a :class:`Budget`
bundling a wall-clock deadline, a state cap, a memory ceiling and a
cooperative :class:`CancelToken` — and either raises a structured
:class:`~repro.errors.BudgetExhausted` on exhaustion or, under
``on_exhaust="partial"``, degrades to a :class:`PartialVerdict`: UNKNOWN
plus a :class:`ProgressCertificate` and a resumable checkpoint.

Checkpoints (:mod:`repro.robust.checkpoint`) freeze a session's explored
BFS prefix, frontier and memoized antichains into versioned JSON;
:meth:`repro.analysis.AnalysisSession.restore` continues across process
restarts, and ``rpcheck --deadline/--mem-limit/--checkpoint/--resume``
exposes the whole loop on the command line.

The chaos harness (:mod:`repro.robust.chaos`) injects seeded faults —
raises, delays, corrupted successors — underneath the whole stack so the
robustness suite can prove every procedure fails *cleanly*: a typed
:class:`~repro.errors.RPError` or an honest partial verdict, never a
hang, never a silently wrong answer.
"""

from ..errors import (
    BudgetExhausted,
    CheckpointError,
    CorruptionDetected,
    FaultInjected,
)
from .budget import Budget, CancelToken, memory_bytes
from .chaos import FAULT_KINDS, ChaosSemantics, FaultPlan
from .checkpoint import (
    CHECKPOINT_FORMAT,
    checkpoint_session,
    load_checkpoint,
    restore_session,
    save_checkpoint,
)
from .governance import governed, partial_verdict_from
from .partial import PartialVerdict, ProgressCertificate

__all__ = [
    "Budget",
    "CancelToken",
    "memory_bytes",
    "BudgetExhausted",
    "CheckpointError",
    "CorruptionDetected",
    "FaultInjected",
    "PartialVerdict",
    "ProgressCertificate",
    "governed",
    "partial_verdict_from",
    "CHECKPOINT_FORMAT",
    "checkpoint_session",
    "restore_session",
    "save_checkpoint",
    "load_checkpoint",
    "FaultPlan",
    "ChaosSemantics",
    "FAULT_KINDS",
]
