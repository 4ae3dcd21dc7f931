"""Supervised crash-recovery replay: run, crash, recover, converge.

:func:`supervised_replay` wraps :func:`~repro.experiments.runner.run_algorithm`
in a supervision loop: when a run crashes (an injected fault, an I/O error,
a failed artifact-integrity check), the supervisor recovers from the newest
*valid* checkpoint — corrupt or torn checkpoints are quarantined by
:func:`~repro.workloads.replay.latest_valid_checkpoint`, never loaded —
waits out a capped exponential backoff with deterministic jitter
(:class:`RetryPolicy`), and tries again.  Because checkpoint resume is
bit-exact (the library's regression-pinned property), the final
:class:`~repro.experiments.metrics.RunMeasurement` of a supervised run that
crashed arbitrarily often is identical to an uninterrupted run's.

An optional invariant guard (``verify_every=``) re-verifies solution
independence and k-maximality from first principles
(:mod:`repro.core.verification`) at checkpoint-chunk boundaries, outside
the measured update time (:class:`InvariantGuard`): a violation is
repaired by re-stabilising the solution, and the run aborts only if the
violation survives.

The module is imported lazily by :mod:`repro.resilience` (it pulls in the
experiment runner, which sits above the layers that host the fault points).
"""

from __future__ import annotations

import random
import time
from dataclasses import dataclass
from typing import TYPE_CHECKING, Callable, Optional, Tuple

from repro.exceptions import (
    ExperimentError,
    InjectedFault,
    IntegrityError,
    RecoveryExhaustedError,
    SolutionInvariantError,
)

if TYPE_CHECKING:  # the runner's layer imports this module (fetch's retries)
    from repro.experiments.metrics import RunMeasurement

#: Exception types the supervisor treats as recoverable crashes by default:
#: injected faults (the crash simulation), raw I/O failures, and artifact
#: integrity violations (the artifact is quarantined; an older one or a
#: fresh start is always available).  Configuration errors
#: (:class:`~repro.exceptions.ExperimentError`) and genuine algorithm bugs
#: deliberately stay fatal — retrying them would loop forever.
RECOVERABLE: Tuple[type, ...] = (InjectedFault, OSError, IntegrityError)


@dataclass(frozen=True)
class RetryPolicy:
    """Capped exponential backoff with deterministic jitter.

    Attempt ``n`` (1-based, i.e. after the ``n``-th crash) waits
    ``min(cap, base_delay * 2**(n-1))`` scaled by a jitter factor in
    ``[0.5, 1.0]`` drawn from ``random.Random((seed, n))`` — deterministic
    for a given policy, so supervised runs are as reproducible as everything
    else in this library, while distinct seeds still de-synchronise fleets
    of retrying workers.
    """

    max_attempts: int = 5
    base_delay: float = 0.05
    cap: float = 2.0
    seed: int = 0

    def __post_init__(self) -> None:
        if self.max_attempts < 1:
            raise ExperimentError("RetryPolicy.max_attempts must be at least 1")
        if self.base_delay < 0 or self.cap < 0:
            raise ExperimentError("RetryPolicy delays must be non-negative")

    def delay(self, attempt: int) -> float:
        """Backoff before retry number ``attempt`` (1-based), jittered."""
        raw = min(self.cap, self.base_delay * (2 ** (attempt - 1)))
        # One throwaway PRNG per (seed, attempt): the jitter is a pure
        # function of the policy, never of global random state.
        jitter = 0.5 + random.Random(self.seed * 1_000_003 + attempt).random() / 2
        return raw * jitter


@dataclass(frozen=True)
class CrashRecord:
    """One supervised crash: which attempt, what died, where it had resumed from."""

    attempt: int
    error: str
    resumed_from: Optional[str]


@dataclass(frozen=True)
class SupervisedResult:
    """Outcome of a :func:`supervised_replay` that eventually converged."""

    measurement: RunMeasurement
    attempts: int
    crashes: Tuple[CrashRecord, ...] = ()

    @property
    def recovered(self) -> bool:
        """Whether any crash was absorbed on the way to the result."""
        return bool(self.crashes)


class InvariantGuard:
    """Verify solution invariants from first principles, repair or abort.

    Called with the live algorithm at checkpoint-chunk boundaries (where
    the candidate queues are drained and the solution is supposed to be
    k-maximal).  Verification goes through :mod:`repro.core.verification`
    — straight graph scans sharing no code with the maintenance engine, so
    a bookkeeping bug cannot vouch for itself.  On a violation the guard
    re-stabilises the engine (re-registering candidates and draining the
    queues) and re-verifies, raising
    :class:`~repro.exceptions.SolutionInvariantError` only if the violation
    survives.
    """

    def __init__(self) -> None:
        self.checks = 0
        self.violations = 0
        self.repairs = 0

    def _verify(self, algorithm) -> bool:
        from repro.core.verification import is_k_maximal_independent_set

        # Swap depth capped at 1: the exhaustive j-swap search is
        # exponential in j (it exists for small test graphs), while
        # maximality plus 1-swap-freeness is polynomial and is the
        # invariant every maintainer guarantees at a batch boundary.
        return is_k_maximal_independent_set(
            algorithm.graph, algorithm.solution(), min(algorithm.k, 1)
        )

    def __call__(self, algorithm) -> None:
        self.checks += 1
        if self._verify(algorithm):
            return
        self.violations += 1
        stabilize = getattr(algorithm, "_stabilize", None)
        if stabilize is not None:
            stabilize()
            if self._verify(algorithm):
                self.repairs += 1
                return
        raise SolutionInvariantError(
            "invariant guard: solution is not a k-maximal independent set "
            "at a batch boundary and could not be repaired"
        )


def supervised_replay(
    name: str,
    graph,
    stream,
    *,
    checkpoint,
    dataset: str = "",
    retry: Optional[RetryPolicy] = None,
    verify_every: Optional[int] = None,
    recoverable: Tuple[type, ...] = RECOVERABLE,
    sleep: Callable[[float], None] = time.sleep,
    **run_options,
) -> SupervisedResult:
    """Run ``run_algorithm`` under supervision: crash, recover, retry, converge.

    Parameters
    ----------
    checkpoint:
        A :class:`~repro.workloads.replay.CheckpointConfig` (required —
        recovery without durable state would restart from zero and a
        deterministic fault would kill it at the same spot forever).
    retry:
        The :class:`RetryPolicy`; defaults to 5 attempts with 50 ms base
        backoff.  Every retry resumes from the newest *valid* checkpoint —
        corrupt ones are quarantined and skipped — or from scratch when
        none survives.
    verify_every:
        When set, an :class:`InvariantGuard` re-verifies solution
        independence and k-maximality about every ``verify_every``
        operations (at checkpoint-chunk boundaries, outside the measured
        time), repairing a violation and aborting if it survives.
    recoverable:
        Exception types treated as crashes to recover from; everything else
        propagates immediately.
    sleep:
        Injectable for tests — the backoff delays are real seconds
        otherwise.
    run_options:
        Forwarded to :func:`~repro.experiments.runner.run_algorithm`
        (``batch_size``, ``time_limit_seconds``, algorithm options, ...).

    Returns
    -------
    SupervisedResult
        With a ``measurement`` bit-identical to an uninterrupted run's and
        the :class:`CrashRecord` history of every absorbed crash.

    Raises
    ------
    RecoveryExhaustedError
        After ``retry.max_attempts`` crashed attempts; carries the crash
        history.
    """
    # Imported here, not at module top: the runner sits above every layer
    # hosting a fault point, and repro.resilience must stay importable from
    # those layers without cycling back through the runner.
    from repro.experiments.runner import run_algorithm
    from repro.workloads.replay import CheckpointConfig, latest_valid_checkpoint

    if not isinstance(checkpoint, CheckpointConfig):
        raise ExperimentError(
            "supervised_replay requires checkpoint=CheckpointConfig(...): "
            "recovery needs durable state to recover *from*"
        )
    policy = retry if retry is not None else RetryPolicy()
    guard = InvariantGuard() if verify_every is not None else None
    crashes = []
    for attempt in range(1, policy.max_attempts + 1):
        restored = latest_valid_checkpoint(checkpoint.directory, name)
        try:
            measurement = run_algorithm(
                name,
                graph,
                stream,
                dataset=dataset,
                checkpoint=checkpoint,
                resume_from=restored,
                guard=guard,
                guard_every=verify_every,
                **run_options,
            )
        except recoverable as exc:
            crashes.append(
                CrashRecord(
                    attempt=attempt,
                    error=repr(exc),
                    resumed_from=None if restored is None else str(restored.path),
                )
            )
            if attempt >= policy.max_attempts:
                raise RecoveryExhaustedError(
                    f"supervised replay of {name!r} crashed on every one of "
                    f"its {policy.max_attempts} attempts; last error: {exc!r}",
                    attempts=attempt,
                    history=tuple(crashes),
                ) from exc
            sleep(policy.delay(attempt))
            continue
        return SupervisedResult(
            measurement=measurement,
            attempts=attempt,
            crashes=tuple(crashes),
        )
    raise AssertionError("unreachable: the loop either returns or raises")
