"""Per-rank private memory.

The private memory area can only be accessed by the owning process (paper,
Section III-A); it never carries clocks and never participates in race
detection, but the runtime uses it as the source/destination of every remote
``put``/``get`` (a ``put`` copies *from* private memory *to* a remote public
area, a ``get`` copies the other way).
"""

from __future__ import annotations

from typing import Any, Dict, Iterator, Optional

from repro.util.validation import require_index, require_type


class PrivateMemory:
    """A simple named store local to one rank.

    Cells are addressed by string names rather than numeric offsets: private
    memory corresponds to a program's local variables, which the paper never
    needs to address numerically.
    """

    def __init__(self, rank: int) -> None:
        self._rank = require_index(rank, "rank")
        self._cells: Dict[str, Any] = {}
        self._reads = 0
        self._writes = 0

    @property
    def rank(self) -> int:
        """Owning rank."""
        return self._rank

    # -- access ----------------------------------------------------------------

    def write(self, name: str, value: Any) -> None:
        """Store *value* under *name*."""
        require_type(name, str, "name")
        self._cells[name] = value
        self._writes += 1

    def read(self, name: str, default: Any = None) -> Any:
        """Return the value stored under *name*, or *default* when absent."""
        require_type(name, str, "name")
        self._reads += 1
        return self._cells.get(name, default)

    def read_required(self, name: str) -> Any:
        """Return the value stored under *name*; raise ``KeyError`` when absent."""
        require_type(name, str, "name")
        if name not in self._cells:
            raise KeyError(f"private variable {name!r} not set on rank {self._rank}")
        self._reads += 1
        return self._cells[name]

    def delete(self, name: str) -> None:
        """Remove *name* from the store (no error if absent)."""
        self._cells.pop(name, None)

    def __contains__(self, name: str) -> bool:
        return name in self._cells

    def __len__(self) -> int:
        return len(self._cells)

    def names(self) -> Iterator[str]:
        """Iterate over variable names in insertion order."""
        return iter(self._cells)

    # -- accounting --------------------------------------------------------------

    @property
    def read_count(self) -> int:
        """Number of local reads performed."""
        return self._reads

    @property
    def write_count(self) -> int:
        """Number of local writes performed."""
        return self._writes

    def snapshot(self) -> Dict[str, Any]:
        """Return a shallow copy of the current contents (for assertions)."""
        return dict(self._cells)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<PrivateMemory rank={self._rank} cells={len(self._cells)}>"
