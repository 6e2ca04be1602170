#!/usr/bin/env python3
"""CI perf-regression gate over committed benchmark baselines.

The benchmarks write machine-readable artifacts (``BENCH_clock_transport.json``,
``BENCH_clock_wire.json``, ``BENCH_overhead_detection.json``,
``BENCH_obs_overhead.json``) from fully seeded, deterministic simulations, so
their message/byte counts are stable run to run.  This gate compares a freshly
produced artifact against the committed baseline under
``benchmarks/baselines/`` and fails the job when a *cost* metric regressed
beyond the tolerance — which starts (and then protects) the repo's perf
trajectory.

Usage (what CI runs)::

    python tools/perf_gate.py BENCH_clock_transport.json BENCH_clock_wire.json \
        --baselines benchmarks/baselines --tolerance 0.05

Semantics:

* leaves whose key names a **cost** (``*messages*``, ``*bytes*``,
  ``*_per_op``, ``*per_message*``, ``round_trips``, ``*joins*``, ``*checks*``,
  ``*compares*``, ``*events*``, ``races``, ``*instruments*``, ``*calls*``)
  are gated:
  ``fresh > baseline * (1 + tolerance)`` is a regression (a zero baseline
  tolerates no growth at all);
* leaves whose key names a **benefit** (``*elided*``, ``*saved*``,
  ``*coalesced*``) are informational and never gated;
* a metric present in the baseline but missing from the fresh artifact is a
  regression (the benchmark silently stopped measuring it); brand-new fresh
  metrics pass (commit a refreshed baseline to start gating them);
* a missing baseline file is an error with the exact ``cp`` to run —
  committing the first baseline is how a new benchmark joins the gate.

Improvements are reported but never fail the job; refresh the baseline to
bank them.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from dataclasses import dataclass
from typing import Dict, Iterator, List, Optional, Tuple

#: Key substrings marking a leaf as a gated cost metric (higher is worse).
#: ``sim_time`` gates end-to-end simulated run time (``total_sim_time``,
#: ``path_sim_time``) — the metric the critical-path benchmarks exist for.
#: ``calls`` gates interpreter frames (``py_calls``, ``py_calls_per_event``),
#: the deterministic stand-in for host speed.
COST_TOKENS = (
    "messages",
    "bytes",
    "per_op",
    "per_message",
    "round_trips",
    "joins",
    "checks",
    "compares",
    "events",
    "races",
    "instruments",
    "sim_time",
    "calls",
)

#: Key substrings marking a leaf as a benefit metric (higher is better) —
#: checked first, so e.g. ``wire_bytes_saved`` is not gated as a cost.
#: ``epoch_hits`` counts full vector compares replaced by O(1) epoch probes
#: (the detector's FastTrack-style fast path): more hits means less work,
#: so it must never be gated as if it were a cost.
BENEFIT_TOKENS = ("elided", "saved", "coalesced", "epoch_hits")

DEFAULT_TOLERANCE = 0.05
DEFAULT_BASELINES_DIR = os.path.join("benchmarks", "baselines")


@dataclass(frozen=True)
class Finding:
    """One gated metric's comparison outcome."""

    path: str
    baseline: float
    fresh: Optional[float]

    @property
    def missing(self) -> bool:
        """True when the fresh artifact no longer reports this metric."""
        return self.fresh is None

    def describe(self) -> str:
        if self.missing:
            return f"{self.path}: metric disappeared (baseline {self.baseline:g})"
        delta = self.fresh - self.baseline
        pct = (delta / self.baseline * 100.0) if self.baseline else float("inf")
        return (
            f"{self.path}: {self.baseline:g} -> {self.fresh:g} "
            f"({'+' if delta >= 0 else ''}{delta:g}, {pct:+.1f}%)"
        )


def is_gated_cost(path: str) -> bool:
    """Is the leaf at dotted *path* a cost metric the gate enforces?"""
    lowered = path.lower()
    if any(token in lowered for token in BENEFIT_TOKENS):
        return False
    return any(token in lowered for token in COST_TOKENS)


def _numeric_leaves(tree: object, prefix: str = "") -> Iterator[Tuple[str, float]]:
    if isinstance(tree, bool):
        return
    if isinstance(tree, (int, float)):
        yield prefix, float(tree)
        return
    if isinstance(tree, dict):
        for key in sorted(tree):
            child = f"{prefix}.{key}" if prefix else str(key)
            yield from _numeric_leaves(tree[key], child)
    elif isinstance(tree, list):
        for index, item in enumerate(tree):
            yield from _numeric_leaves(item, f"{prefix}[{index}]")


def compare_trees(
    fresh: Dict, baseline: Dict, tolerance: float = DEFAULT_TOLERANCE
) -> Tuple[List[Finding], List[Finding]]:
    """Compare two benchmark JSON trees; returns ``(regressions, improvements)``.

    Only gated cost leaves (see :func:`is_gated_cost`) participate.  A fresh
    value above ``baseline * (1 + tolerance)`` — or any growth from a zero
    baseline — is a regression; a fresh value below the baseline is an
    improvement (reported, never failing).
    """
    fresh_leaves = dict(_numeric_leaves(fresh))
    regressions: List[Finding] = []
    improvements: List[Finding] = []
    for path, base_value in _numeric_leaves(baseline):
        if not is_gated_cost(path):
            continue
        fresh_value = fresh_leaves.get(path)
        if fresh_value is None:
            regressions.append(Finding(path, base_value, None))
            continue
        allowance = base_value * (1.0 + tolerance)
        if fresh_value > allowance:
            regressions.append(Finding(path, base_value, fresh_value))
        elif fresh_value < base_value:
            improvements.append(Finding(path, base_value, fresh_value))
    return regressions, improvements


def _critical_path_sections(
    tree: object, prefix: str = ""
) -> Iterator[Tuple[str, Dict]]:
    """Yield every ``critical_path`` summary object in a benchmark tree.

    Benchmarks that record path attribution embed
    ``{"critical_path": {"path_sim_time": ..., "categories": {...}}}``
    sections; the explainer matches them by dotted path across the fresh
    and baseline artifacts.  (Deliberately dependency-free — this script
    must run without the package on ``sys.path``.)
    """
    if not isinstance(tree, dict):
        return
    for key in sorted(tree):
        child = f"{prefix}.{key}" if prefix else str(key)
        node = tree[key]
        if (
            key == "critical_path"
            and isinstance(node, dict)
            and isinstance(node.get("categories"), dict)
        ):
            yield child, node
        else:
            yield from _critical_path_sections(node, child)


def explain_regression(fresh: Dict, baseline: Dict) -> List[str]:
    """Attribute the run-time delta to critical-path categories, ranked.

    For every ``critical_path`` section present in both artifacts, compare
    per-category path time and emit a table with the biggest absolute mover
    first — the "why" behind a ``*_sim_time`` regression.  Returns printable
    lines (empty when there is nothing to explain).
    """
    lines: List[str] = []
    baseline_sections = dict(_critical_path_sections(baseline))
    for path, section in _critical_path_sections(fresh):
        base = baseline_sections.get(path)
        if base is None:
            continue
        fresh_total = float(section.get("path_sim_time", 0.0) or 0.0)
        base_total = float(base.get("path_sim_time", 0.0) or 0.0)
        fresh_cats = section.get("categories", {})
        base_cats = base.get("categories", {})
        rows = []
        for category in sorted(set(fresh_cats) | set(base_cats)):
            before = float(base_cats.get(category, 0.0) or 0.0)
            after = float(fresh_cats.get(category, 0.0) or 0.0)
            if after != before:
                rows.append((category, before, after, after - before))
        if not rows:
            continue
        rows.sort(key=lambda row: (-abs(row[3]), row[0]))
        total_delta = fresh_total - base_total
        lines.append(
            f"{path}: {base_total:g} -> {fresh_total:g} sim time "
            f"({'+' if total_delta >= 0 else ''}{total_delta:g})"
        )
        for category, before, after, delta in rows:
            share = (delta / total_delta * 100.0) if total_delta else float("inf")
            lines.append(
                f"    {category:<18} {before:>10.4f} -> {after:>10.4f}  "
                f"({'+' if delta >= 0 else ''}{delta:.4f}"
                + (f", {share:.0f}% of the delta)" if total_delta else ")")
            )
    return lines


def gate_artifact(
    fresh_path: str,
    baselines_dir: str = DEFAULT_BASELINES_DIR,
    tolerance: float = DEFAULT_TOLERANCE,
) -> Tuple[List[Finding], List[Finding]]:
    """Gate one artifact file against its committed baseline twin.

    Raises ``FileNotFoundError`` with the exact fix when either file is
    absent — a benchmark without a committed baseline is not yet gated, and
    silently skipping it would defeat the point.
    """
    if not os.path.exists(fresh_path):
        raise FileNotFoundError(
            f"fresh benchmark artifact {fresh_path!r} not found — did the "
            f"benchmark step run before the gate?"
        )
    baseline_path = os.path.join(baselines_dir, os.path.basename(fresh_path))
    if not os.path.exists(baseline_path):
        raise FileNotFoundError(
            f"no committed baseline for {os.path.basename(fresh_path)!r}; "
            f"start the trajectory with: cp {fresh_path} {baseline_path}"
        )
    with open(fresh_path) as handle:
        fresh = json.load(handle)
    with open(baseline_path) as handle:
        baseline = json.load(handle)
    return compare_trees(fresh, baseline, tolerance)


def render_step_summary(
    verdicts: List[Tuple[str, str, List[Finding], List[Finding], List[str]]],
    tolerance: float,
) -> str:
    """Render the per-artifact verdict table as GitHub-flavoured markdown.

    One row per gated artifact — status, regression/improvement counts and
    the worst offender — followed by the detailed findings and any
    ``--explain`` critical-path attribution, ready to append to the file
    named by ``$GITHUB_STEP_SUMMARY`` so the verdict shows up on the run
    page without digging through logs.
    """
    lines = [
        "## Perf gate",
        "",
        f"Tolerance: cost metrics may grow up to {tolerance:.0%} over the "
        "committed baseline.",
        "",
        "| artifact | verdict | regressions | improvements | worst offender |",
        "| --- | --- | --- | --- | --- |",
    ]
    for name, status, regressions, improvements, _explanation in verdicts:
        worst = max(
            regressions,
            key=lambda f: float("inf")
            if f.missing or not f.baseline
            else (f.fresh - f.baseline) / f.baseline,
            default=None,
        )
        icon = {"OK": "✅ OK", "REGRESSED": "❌ REGRESSED", "ERROR": "⚠️ ERROR"}[
            status
        ]
        lines.append(
            f"| `{name}` | {icon} | {len(regressions)} | {len(improvements)} "
            f"| {('`' + worst.describe() + '`') if worst else '—'} |"
        )
    lines.append("")
    for name, status, regressions, improvements, explanation in verdicts:
        details = [
            *(f"- ❌ {finding.describe()}" for finding in regressions),
            *(f"- ⬇️ improved: {finding.describe()}" for finding in improvements),
        ]
        if explanation and status == "ERROR":
            details.extend(f"- ⚠️ {line}" for line in explanation)
        elif explanation:
            details.append("- critical-path movement, biggest first:")
            details.extend(f"  - `{line.strip()}`" for line in explanation)
        if details:
            lines.append(f"### `{name}`")
            lines.extend(details)
            lines.append("")
    return "\n".join(lines) + "\n"


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "artifacts", nargs="+", help="freshly produced BENCH_*.json files"
    )
    parser.add_argument(
        "--baselines",
        default=DEFAULT_BASELINES_DIR,
        help="directory of committed baseline artifacts "
        f"(default: {DEFAULT_BASELINES_DIR})",
    )
    parser.add_argument(
        "--tolerance",
        type=float,
        default=DEFAULT_TOLERANCE,
        help=f"allowed relative growth per cost metric "
        f"(default: {DEFAULT_TOLERANCE})",
    )
    parser.add_argument(
        "--explain",
        action="store_true",
        help="print critical-path attribution tables even when the gate "
        "passes (they always print on a regression)",
    )
    args = parser.parse_args(argv)

    failed = False
    verdicts: List[Tuple[str, str, List[Finding], List[Finding], List[str]]] = []
    for artifact in args.artifacts:
        name = os.path.basename(artifact)
        try:
            regressions, improvements = gate_artifact(
                artifact, baselines_dir=args.baselines, tolerance=args.tolerance
            )
        except FileNotFoundError as error:
            print(f"ERROR: {error}")
            failed = True
            verdicts.append((name, "ERROR", [], [], [str(error)]))
            continue
        for finding in improvements:
            print(f"IMPROVED  [{name}] {finding.describe()}")
        for finding in regressions:
            print(f"REGRESSED [{name}] {finding.describe()}")
        if regressions:
            failed = True
        else:
            print(
                f"OK        [{name}] no cost metric grew beyond "
                f"{args.tolerance:.0%} of baseline"
            )
        explanation: List[str] = []
        if regressions or args.explain:
            with open(artifact) as handle:
                fresh = json.load(handle)
            baseline_path = os.path.join(args.baselines, os.path.basename(artifact))
            with open(baseline_path) as handle:
                baseline = json.load(handle)
            explanation = explain_regression(fresh, baseline)
            if explanation:
                print(f"EXPLAIN   [{name}] critical-path movement, biggest first:")
                for line in explanation:
                    print(f"          {line}")
        verdicts.append(
            (
                name,
                "REGRESSED" if regressions else "OK",
                regressions,
                improvements,
                explanation,
            )
        )
    summary_path = os.environ.get("GITHUB_STEP_SUMMARY")
    if summary_path:
        with open(summary_path, "a") as handle:
            handle.write(render_step_summary(verdicts, args.tolerance))
    if failed:
        print(
            "\nperf gate FAILED — if a regression is intended and justified, "
            "refresh the baseline under benchmarks/baselines/ in the same PR."
        )
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
