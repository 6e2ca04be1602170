"""Logical clocks: Lamport scalars, vector clocks and matrix clocks.

The race-detection algorithm of the paper rests entirely on logical time:

* Lamport clocks [12] give a total order compatible with causality but cannot
  *characterize* it;
* vector clocks (Fayet/Mattern [15]) characterize causality exactly
  (Lemma 1 / Mattern's Theorem 10): ``e < e'  iff  V(e) < V(e')`` and
  ``e ∥ e'  iff  V(e) ∥ V(e')``;
* the paper's processes each maintain a *clock matrix* ``V_Pi`` — row ``j`` is
  ``P_i``'s latest knowledge of ``P_j``'s vector clock — and increment the
  diagonal entry ``V_Pi[i, i]`` before every event (Section IV-B).

Clock entries are stored as plain Python ``int`` lists (a matrix clock is a
list of rows).  This is a measured choice: the detector performs one merge
and up to two comparisons per remote memory access on clocks of one entry
per process — about 16 in the benchmarked runs — and at that size the fixed
cost of a NumPy call outweighs its vectorized loop.  Measured on the
blocking random-access benchmark, moving from ``int64`` arrays to lists
(together with a leaner per-message path) cut the interpreter calls the
``core`` package makes per simulated event from 15.3 to 5.5 and raised host
throughput about 1.5× (see "Host speed" in ``docs/benchmarks.md``).
Comparisons are short-circuiting loops, merges are comprehensions, and
clocks the module builds itself wrap a list they own instead of
re-validating it.  :attr:`VectorClock.entries` and :attr:`MatrixClock.matrix`
still return ``int64`` array copies for callers that want NumPy.

Charron-Bost's lower bound (Section IV-C of the paper) says vector clocks for
``n`` processes need at least ``n`` entries; :attr:`VectorClock.size` is that
``n`` and the overhead benchmarks report storage directly in clock entries.
"""

from __future__ import annotations

from typing import Iterable, List, NamedTuple, Optional, Sequence, Tuple, Union

import numpy as np

from repro.util.validation import require_positive, require_rank, require_type

ClockLike = Union["VectorClock", Sequence[int], np.ndarray]


def _int_entries(values: ClockLike) -> List[int]:
    """Validate caller-supplied clock entries; return them as a new ``int`` list.

    Only ``int`` and NumPy integer entries are accepted (``bool`` is not an
    entry): a float or a string is a caller bug, and truncating it silently
    would hand the detector a clock nobody computed.
    """
    if isinstance(values, np.ndarray):
        if values.ndim != 1 or values.size == 0:
            raise ValueError(
                f"vector clock entries must be a non-empty 1-D sequence, got shape {values.shape}"
            )
        if values.dtype.kind not in "iu":
            raise TypeError(f"vector clock entries must be integers, got dtype {values.dtype}")
        return values.tolist()
    entries = list(values)
    if not entries:
        raise ValueError("vector clock entries must be a non-empty 1-D sequence, got shape (0,)")
    for index, value in enumerate(entries):
        if type(value) is int:
            continue
        if isinstance(value, (int, np.integer)) and not isinstance(value, bool):
            entries[index] = int(value)
        else:
            raise TypeError(
                f"vector clock entries must be int, got {type(value).__name__}: {value!r}"
            )
    return entries


class Epoch(NamedTuple):
    """A FastTrack-style ``(rank, scalar)`` annotation of one vector clock.

    An epoch ``(r, s)`` attached to a clock ``C`` asserts the *epoch validity
    invariant*: ``C[r] == s`` and every clock ``X`` the system can ever
    compare against ``C`` with ``X[r] >= s`` dominates ``C`` component-wise.
    Under the standard vector-clock protocol the invariant holds exactly when
    ``C``'s content equals rank ``r``'s principal vector at its ``s``-th own
    tick *as last captured before any copy of that state escaped* — a
    component can only reach ``s`` by (transitively) merging a copy of that
    state, and the principal row grows monotonically, so every escape
    dominates the annotated capture.

    The payoff is the O(1) exact test ``C <= X  iff  X[r] >= s``
    (:func:`repro.core.comparator.epoch_precedes`), which replaces the O(n)
    directional compares of the detection hot path wherever an annotation is
    in hand.  Epochs are an *exact shortcut*, never a lossy state: when the
    invariant cannot be established locally the annotation is simply dropped
    and the full vector comparison runs, so verdicts cannot depend on them.
    """

    rank: int
    scalar: int


class LamportClock:
    """A scalar Lamport clock.

    Provided for completeness and for the baseline detectors' documentation:
    the paper notes scalar clocks track logical time but only vector clocks
    allow the *partial causal ordering* needed to detect races.
    """

    def __init__(self, initial: int = 0) -> None:
        require_type(initial, int, "initial")
        if initial < 0:
            raise ValueError(f"Lamport clock cannot start negative, got {initial}")
        self._value = initial

    @property
    def value(self) -> int:
        """Current clock value."""
        return self._value

    def tick(self) -> int:
        """Advance for a local event; return the new value."""
        self._value += 1
        return self._value

    def observe(self, other: int) -> int:
        """Merge a received timestamp (``max`` rule) and tick; return new value."""
        require_type(other, int, "other")
        self._value = max(self._value, other) + 1
        return self._value

    def copy(self) -> "LamportClock":
        """Return an independent copy."""
        return LamportClock(self._value)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"LamportClock({self._value})"


class VectorClock:
    """A fixed-size vector clock over ``n`` processes.

    The clock is mutable (``tick``/``merge_in_place``) because the detector
    updates per-datum clocks in place under the NIC lock; every value that is
    stored in a trace or a race record is an explicit :meth:`copy` (or
    :meth:`frozen` tuple) so later mutation cannot corrupt history.  Every
    clock owns its entry list: no two clocks (nor a clock and a
    :class:`MatrixClock` row) ever share one.
    """

    __slots__ = ("_entries",)

    def __init__(self, size_or_entries: Union[int, ClockLike]) -> None:
        if isinstance(size_or_entries, VectorClock):
            self._entries = size_or_entries._entries[:]
            return
        if isinstance(size_or_entries, (int, np.integer)) and not isinstance(size_or_entries, bool):
            size = int(size_or_entries)
            require_positive(size, "size")
            self._entries = [0] * size
            return
        entries = _int_entries(size_or_entries)
        if min(entries) < 0:
            raise ValueError("vector clock entries must be non-negative")
        self._entries = entries

    # -- construction helpers --------------------------------------------------

    @classmethod
    def _owning(cls, entries: List[int]) -> "VectorClock":
        """Wrap *entries* without validation or copying.

        Internal: *entries* must be a fresh list of non-negative ``int`` that
        nothing else references, built by this module.
        """
        clock = cls.__new__(cls)
        clock._entries = entries
        return clock

    @classmethod
    def zeros(cls, size: int) -> "VectorClock":
        """An all-zero clock for ``size`` processes (the paper's initial state)."""
        return cls(size)

    @classmethod
    def from_entries(cls, entries: Iterable[int]) -> "VectorClock":
        """Build a clock from an explicit entry list (used heavily in tests)."""
        return cls(list(entries))

    # -- basic accessors --------------------------------------------------------

    @property
    def size(self) -> int:
        """Number of entries ``n`` — cannot be smaller than the process count [3]."""
        return len(self._entries)

    @property
    def entries(self) -> np.ndarray:
        """A *copy* of the entries, as an ``int64`` array."""
        return np.array(self._entries, dtype=np.int64)

    def component(self, rank: int) -> int:
        """Entry for process *rank*."""
        require_rank(rank, len(self._entries), "rank")
        return self._entries[rank]

    def frozen(self) -> Tuple[int, ...]:
        """An immutable, hashable snapshot of the entries."""
        return tuple(self._entries)

    def total(self) -> int:
        """Sum of all entries — the number of causally known events."""
        return sum(self._entries)

    # -- updates -----------------------------------------------------------------

    def tick(self, rank: int) -> "VectorClock":
        """Increment the component of *rank* (a local event on that process)."""
        require_rank(rank, len(self._entries), "rank")
        self._entries[rank] += 1
        return self

    def merge_in_place(self, other: ClockLike) -> "VectorClock":
        """Component-wise max with *other* (Algorithm 4), mutating ``self``."""
        theirs = self._coerce(other)
        self._entries = [a if a >= b else b for a, b in zip(self._entries, theirs)]
        return self

    def merged(self, other: ClockLike) -> "VectorClock":
        """Return a new clock equal to the component-wise max (Algorithm 4)."""
        theirs = self._coerce(other)
        return VectorClock._owning([a if a >= b else b for a, b in zip(self._entries, theirs)])

    def copy(self) -> "VectorClock":
        """Return an independent copy."""
        return VectorClock._owning(self._entries[:])

    # -- comparisons ---------------------------------------------------------------

    def _coerce(self, other: ClockLike) -> List[int]:
        entries = other._entries if isinstance(other, VectorClock) else _int_entries(other)
        if len(entries) != len(self._entries):
            raise ValueError(
                f"clock size mismatch: {len(self._entries)} vs {len(entries)}"
            )
        return entries

    def dominates(self, other: ClockLike) -> bool:
        """True when ``self >= other`` component-wise (reflexive)."""
        for mine, theirs in zip(self._entries, self._coerce(other)):
            if mine < theirs:
                return False
        return True

    def happens_before(self, other: ClockLike) -> bool:
        """Mattern's strict order: ``self <= other`` everywhere and ``!=`` somewhere."""
        strict = False
        for mine, theirs in zip(self._entries, self._coerce(other)):
            if mine > theirs:
                return False
            if mine < theirs:
                strict = True
        return strict

    def strictly_less(self, other: ClockLike) -> bool:
        """The paper's literal Algorithm 3: strictly less in *every* component."""
        for mine, theirs in zip(self._entries, self._coerce(other)):
            if mine >= theirs:
                return False
        return True

    def concurrent_with(self, other: ClockLike) -> bool:
        """True when neither clock happens-before the other and they differ."""
        other_clock = other if isinstance(other, VectorClock) else VectorClock(other)
        return (
            not self.happens_before(other_clock)
            and not other_clock.happens_before(self)
            and self != other_clock
        )

    # -- dunder ---------------------------------------------------------------------

    def __eq__(self, other: object) -> bool:
        if isinstance(other, VectorClock):
            return self._entries == other._entries
        if not isinstance(other, (list, tuple, np.ndarray)):
            return NotImplemented
        try:
            return self._entries == self._coerce(other)
        except (TypeError, ValueError):
            return False

    def __hash__(self) -> int:
        return hash(tuple(self._entries))

    def __len__(self) -> int:
        return len(self._entries)

    def __getitem__(self, rank: int) -> int:
        return self.component(rank)

    def __repr__(self) -> str:
        return f"VectorClock({self._entries})"

    def __str__(self) -> str:
        return "".join(map(str, self._entries)) if self.size <= 10 else repr(self)


class MatrixClock:
    """The per-process clock matrix ``V_Pi`` of the paper (Section IV-B).

    Row ``j`` holds ``P_i``'s latest knowledge of ``P_j``'s vector clock; the
    diagonal entry ``[i, i]`` is ``P_i``'s own event counter and is the value
    incremented by ``update_local_clock``.  The *principal row* ``row(i)`` is
    the vector clock actually attached to events and compared by the detector.
    Rows are private lists: every row handed out is a copy.
    """

    __slots__ = ("_rank", "_rows")

    def __init__(self, rank: int, size: int) -> None:
        require_positive(size, "size")
        require_rank(rank, size, "rank")
        self._rank = rank
        self._rows = [[0] * size for _ in range(size)]

    @property
    def rank(self) -> int:
        """The owning process."""
        return self._rank

    @property
    def size(self) -> int:
        """Number of processes ``n`` (the matrix is ``n × n``)."""
        return len(self._rows)

    @property
    def matrix(self) -> np.ndarray:
        """A copy of the full matrix, as an ``int64`` array."""
        return np.array(self._rows, dtype=np.int64)

    def local_component(self) -> int:
        """The diagonal entry ``V_Pi[i, i]``."""
        return self._rows[self._rank][self._rank]

    def row(self, rank: Optional[int] = None) -> VectorClock:
        """Return row *rank* (default: the principal row) as a vector clock."""
        rank = self._rank if rank is None else rank
        require_rank(rank, len(self._rows), "rank")
        return VectorClock._owning(self._rows[rank][:])

    def principal(self) -> VectorClock:
        """The owning process's own vector clock (row ``i``)."""
        return VectorClock._owning(self._rows[self._rank][:])

    def tick(self) -> VectorClock:
        """``update_local_clock``: increment ``V_Pi[i, i]`` before an event.

        Returns a copy of the principal row *after* the increment, which is the
        clock value attached to the event (Algorithms 1 and 2).
        """
        row = self._rows[self._rank]
        row[self._rank] += 1
        return VectorClock._owning(row[:])

    def observe_vector(self, other: ClockLike, source_rank: Optional[int] = None) -> VectorClock:
        """Merge a received vector clock into the principal row (Algorithm 4).

        When *source_rank* is given, the corresponding row is also raised to
        the received vector, recording what that process knew — this is the
        matrix-clock refinement of [17] mentioned in the paper.
        """
        theirs = other._entries if isinstance(other, VectorClock) else _int_entries(other)
        rows = self._rows
        if len(theirs) != len(rows):
            raise ValueError(
                f"clock size mismatch: expected {len(rows)}, got {len(theirs)}"
            )
        if source_rank is not None:
            require_rank(source_rank, len(rows), "source_rank")
            rows[source_rank] = [a if a >= b else b for a, b in zip(rows[source_rank], theirs)]
        rank = self._rank
        rows[rank] = [a if a >= b else b for a, b in zip(rows[rank], theirs)]
        return VectorClock._owning(rows[rank][:])

    def known_lower_bound(self) -> VectorClock:
        """Column-wise minimum over rows: events known to be known by everyone.

        This is the classic matrix-clock garbage-collection bound; it is not
        needed by the detection algorithm itself but is exposed for the
        analysis package and future-work experiments.
        """
        return VectorClock._owning([min(column) for column in zip(*self._rows)])

    def storage_entries(self) -> int:
        """Number of integer entries held (``n²``), for overhead accounting."""
        return len(self._rows) ** 2

    def copy(self) -> "MatrixClock":
        """Return an independent copy."""
        clone = MatrixClock.__new__(MatrixClock)
        clone._rank = self._rank
        clone._rows = [row[:] for row in self._rows]
        return clone

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<MatrixClock P{self._rank} {self.size}x{self.size} diag={self.local_component()}>"
