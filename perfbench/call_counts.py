"""Deterministic interpreter-call counts per layer.

A profiling pass counts every Python frame entered (function calls and
generator resumes alike) and charges it to the ``repro`` package whose source
file the code object belongs to.  The simulator is deterministic per seed, so
the counts of one input repeat exactly from process to process; divided by
the simulated events of the same pass they give each layer's
``py_calls_per_event``, a noise-free proxy for host speed.
"""

from __future__ import annotations

import sys
from pathlib import Path
from typing import Callable, Dict, Tuple, TypeVar

import repro

from layer_trace import LAYERS

T = TypeVar("T")

_PACKAGE_ROOT = str(Path(repro.__file__).resolve().parent)


def _layer_of_file(filename: str) -> str:
    path = str(Path(filename).resolve())
    if not path.startswith(_PACKAGE_ROOT):
        return ""
    parts = Path(path[len(_PACKAGE_ROOT):]).parts
    layer = parts[1] if len(parts) > 2 else ""
    return layer if layer in LAYERS else ""


def count_calls(work: Callable[[], T]) -> Tuple[T, Dict[str, int]]:
    """Run *work* under a call-counting profiler; return its result and the counts."""
    by_code: Dict[object, int] = {}

    def profile(frame, event, _arg):
        if event == "call":
            code = frame.f_code
            by_code[code] = by_code.get(code, 0) + 1

    previous = sys.getprofile()
    sys.setprofile(profile)
    try:
        result = work()
    finally:
        sys.setprofile(previous)
    counts = dict.fromkeys(LAYERS, 0)
    layer_cache: Dict[str, str] = {}
    for code, calls in by_code.items():
        filename = code.co_filename
        if filename not in layer_cache:
            layer_cache[filename] = _layer_of_file(filename)
        layer = layer_cache[filename]
        if layer:
            counts[layer] += calls
    return result, counts
