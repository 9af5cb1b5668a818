"""Exception hierarchy for the repro library.

Every error raised intentionally by this package derives from
:class:`ReproError`, so callers can catch library failures with a single
``except`` clause while letting genuine bugs (``TypeError`` and friends)
propagate.
"""

from __future__ import annotations

import errno as _errno


class ReproError(Exception):
    """Base class for all errors raised by the repro library."""


class InvalidGeometryError(ReproError):
    """A rectangle or region was constructed with inverted or NaN bounds."""


class InvalidParameterError(ReproError):
    """A query, window or index parameter is outside its valid domain."""


class WindowOrderError(ReproError):
    """Objects were pushed into a time-based window out of timestamp order."""


class EmptyWindowError(ReproError):
    """An operation that requires alive objects was invoked on an empty window."""


class InvariantViolationError(ReproError):
    """An internal index invariant check failed.

    Raised only from explicit ``check_invariants()`` calls; production
    paths never pay for the verification.
    """


class KernelUnavailableError(ReproError, ImportError):
    """The compiled sweep kernel (``repro/core/_sweep.c``) could not be
    built or loaded.

    Raised by the import of :mod:`repro.core`: every sweep step runs in
    that one library, so a host without a C compiler cannot run the
    monitors.  The message names the compiler looked for and the cache
    directory the library is built into.  It is an ``ImportError`` too,
    since the failed import of ``repro`` is where it shows.
    """


class SnapshotError(ReproError):
    """A persisted snapshot or checkpoint is unreadable.

    Raised when a snapshot file is truncated, is not valid JSON, is
    missing required fields, or carries an unknown format version —
    recovery code can catch this one class and fall back to an older
    checkpoint (or a cold start) instead of dying on ``KeyError`` /
    ``JSONDecodeError``.
    """


class CheckpointChecksumError(SnapshotError):
    """A checkpoint's stored CRC32 does not match its payload.

    Truncation and invalid JSON are caught by :class:`SnapshotError`
    already; this subclass covers *silent* corruption — bit-rot or a
    partial overwrite that still parses — detected by recomputing the
    payload checksum stored in the envelope.  Recovery code treats it
    like any other :class:`SnapshotError` and falls back to the
    previous rotation.
    """


class DurabilityError(ReproError):
    """Base class for durable-storage failures (WAL, checkpoint media).

    Everything the durability tier raises intentionally derives from
    this class, so recovery orchestration can catch disk-level trouble
    in one clause while index bugs still propagate.
    """


class DurableWriteError(DurabilityError):
    """A durable write (WAL append, checkpoint publish) failed at the OS.

    Wraps the underlying ``OSError`` (chained as ``__cause__``) so
    callers never have to catch a bare ``OSError`` from the durability
    tier; ``errno`` is preserved for dispatching on the cause.
    """

    def __init__(self, message: str, *, errno: int | None = None) -> None:
        super().__init__(message)
        self.errno = errno


class DiskFullError(DurableWriteError):
    """A durable write failed with ``ENOSPC``.

    Distinguished from other :class:`DurableWriteError` causes because
    it is the one a caller can *act* on without operator intervention:
    checkpoint, compact the WAL's covered segments, and retry.
    """


def wrap_os_error(exc: OSError, what: str) -> DurableWriteError:
    """Map an ``OSError`` from a durable write to its typed form.

    ``ENOSPC`` becomes :class:`DiskFullError` (the caller can free
    space by compacting and retry); everything else becomes a plain
    :class:`DurableWriteError`.  Callers re-raise the result with
    ``from exc`` so the original is chained.
    """
    if exc.errno == _errno.ENOSPC:
        return DiskFullError(
            f"{what} failed: no space left on device", errno=exc.errno
        )
    return DurableWriteError(f"{what} failed: {exc}", errno=exc.errno)


class WalError(DurabilityError):
    """Base class for write-ahead-log failures."""


class WalCorruptionError(WalError):
    """A WAL segment is damaged beyond the recovery skip budget.

    Individual bit-flipped records (CRC mismatch) and a torn tail are
    *recoverable* — the scanner skips or truncates them and counts the
    damage — but more skipped records than ``max_skips`` means the log
    itself cannot be trusted, and recovery must stop with this error
    rather than silently replay a hole-ridden history.
    """


class WalSequenceError(WalError):
    """WAL contents and the checkpoint position cannot be reconciled.

    Raised when the replay tail has a hole (a batch newer than the
    checkpoint was lost to corruption or truncation) or when the
    checkpoint claims a position beyond anything the log ever recorded
    — either way the WAL cannot reproduce the uninterrupted run, and a
    typed error beats a silently wrong answer.
    """


class QuarantineError(ReproError):
    """A record was rejected at the ingest boundary under ``RAISE`` policy.

    Carries the offending record and the rejection reason so callers
    that opted into fail-fast ingestion see exactly what was refused,
    and as ``released`` the objects the guard admitted ahead of it in
    the same batch, which would otherwise be lost with the return value.
    """

    def __init__(self, reason: str, record: object = None) -> None:
        super().__init__(reason)
        self.reason = reason
        self.record = record
        self.released: list = []


class StreamExhaustedError(ReproError):
    """A stream source ran dry before a measurement had all its objects.

    Raised by :func:`repro.bench.measure` with the counts it got and
    needed: a measurement over fewer (or shorter) batches than asked
    would otherwise report numbers for a workload that never happened.
    """
