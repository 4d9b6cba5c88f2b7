"""Correctness rules and accounting shared by the workload passes.

Every rule here returns a list of human-readable violations (empty when
the output is correct), so a pass collects them all instead of stopping
at the first, and the benchmark's tests can feed doctored outputs to
the same functions the benchmark runs.

The one semantic rule behind every verdict check is the paper's answer
for k-set consensus: it is solvable in the affine model of a fair
adversary ``A`` iff ``k >= setcon(A)``.  A ``budget`` outcome is not a
verdict; it counts as *undecided*, never as an error or a violation.
"""

from __future__ import annotations

import json
import math
from typing import Any, Dict, Iterable, List, Optional, Sequence

UNDECIDED = "budget"


def expected_verdict(k: int, power: int) -> str:
    """The paper's verdict for k-set consensus at agreement power ``power``."""
    return "solvable" if k >= power else "unsolvable"


def verdict_violation(where: str, k: int, power: int, verdict: str) -> Optional[str]:
    """One decided verdict against the setcon rule (``budget`` passes)."""
    if verdict == UNDECIDED:
        return None
    if verdict not in ("solvable", "unsolvable"):
        return f"{where}: unknown verdict {verdict!r}"
    want = expected_verdict(k, power)
    if verdict != want:
        return f"{where}: k={k} setcon={power} answered {verdict}, expected {want}"
    return None


# ----------------------------------------------------------------------
# Percentiles
# ----------------------------------------------------------------------
def median(values: Sequence[float]) -> float:
    ordered = sorted(values)
    if not ordered:
        raise ValueError("median of no values")
    mid = len(ordered) // 2
    if len(ordered) % 2:
        return ordered[mid]
    return (ordered[mid - 1] + ordered[mid]) / 2


def tail(values: Sequence[float], beyond: int = 10) -> Dict[str, float]:
    """The highest percentile with at least ``beyond`` samples above it.

    With ``n`` samples sorted ascending, the value at 0-based rank
    ``n - beyond - 1`` has exactly ``beyond`` samples beyond it; its
    percentile is the share of samples at or below it, floored to a
    whole percent.  Fewer than ``beyond + 1`` samples have no such
    percentile: the maximum is reported at percentile 0 with the count,
    so the row says how little it rests on.
    """
    ordered = sorted(values)
    count = len(ordered)
    if count == 0:
        raise ValueError("tail of no values")
    if count <= beyond:
        return {"value": ordered[-1], "percentile": 0, "samples": count}
    rank = count - beyond - 1
    percentile = math.floor(100 * (rank + 1) / count)
    return {"value": ordered[rank], "percentile": percentile, "samples": count}


# ----------------------------------------------------------------------
# Accounting
# ----------------------------------------------------------------------
class Tally:
    """Operations attempted, failed (errors or refusals) and undecided."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.undecided = 0

    def record(self, outcome: str) -> None:
        """``outcome`` is ``ok``, ``undecided`` or ``failed``."""
        if outcome not in ("ok", "undecided", "failed"):
            raise ValueError(f"unknown outcome {outcome!r}")
        self.attempted += 1
        if outcome == "failed":
            self.failed += 1
        elif outcome == "undecided":
            self.undecided += 1

    @property
    def error_share(self) -> float:
        return self.failed / self.attempted if self.attempted else 0.0


# ----------------------------------------------------------------------
# sweep-n4
# ----------------------------------------------------------------------
def check_sweep_artifact(
    data: bytes,
    reference: Optional[bytes] = None,
    reference_cells: Optional[Dict[str, Any]] = None,
) -> List[str]:
    """Rules for one landscape artifact (its canonical bytes).

    * every decided cell obeys the setcon rule;
    * the summary agrees with the cells;
    * when ``reference`` is given (the reference seed), the artifact is
      byte-identical to it;
    * every cell that also appears in the committed artifact
      (``reference_cells``, keyed by :func:`cell_key`) equals it.
    """
    violations: List[str] = []
    if reference is not None and data != reference:
        violations.append(
            "artifact differs from the committed landscape_n4_sampled.json"
        )
    try:
        artifact = json.loads(data.decode("utf-8"))
    except (UnicodeDecodeError, ValueError) as exc:
        return violations + [f"artifact is not JSON: {exc}"]
    cells = artifact.get("cells", [])
    verdicts = {"solvable": 0, "unsolvable": 0, "budget": 0, "skipped": 0}
    for index, cell in enumerate(cells):
        solve = cell.get("solve")
        if solve is None:
            verdicts["skipped"] += 1
            if cell.get("fair") and cell.get("power", 0) >= 1:
                violations.append(f"cell {index}: fair cell was not solved")
            continue
        verdict = solve.get("verdict")
        if verdict in verdicts:
            verdicts[verdict] += 1
        problem = verdict_violation(
            f"cell {index}", cell["k"], cell["power"], verdict
        )
        if problem:
            violations.append(problem)
        if reference_cells is not None:
            committed = reference_cells.get(cell_key(cell))
            if committed is not None and committed != cell:
                violations.append(
                    f"cell {index}: record differs from the committed one"
                )
    if artifact.get("summary", {}).get("verdicts") != verdicts:
        violations.append("artifact summary disagrees with its cells")
    return violations


def cell_key(cell: Dict[str, Any]) -> str:
    return json.dumps([cell["live_sets"], cell["k"]])


# ----------------------------------------------------------------------
# certify-n4
# ----------------------------------------------------------------------
def check_certificate(
    where: str,
    cert: Dict[str, Any],
    report: Dict[str, Any],
    k: int,
    power: int,
    affine_digest: str,
    task_digest: str,
) -> List[str]:
    """One certificate and the checker's report on its bytes.

    The certificate must be about the intended statement (digests of
    ``R_A`` and the k-set consensus task), the checker must accept it,
    and its verdict must obey the setcon rule.  A budget stub must be
    accepted *as a stub*: valid, verdict ``undecided``.
    """
    violations: List[str] = []
    statement = cert.get("statement") or {}
    if statement.get("affine_digest") != affine_digest:
        violations.append(f"{where}: certificate is about another complex")
    if statement.get("task_digest") != task_digest:
        violations.append(f"{where}: certificate is about another task")
    if not report.get("valid"):
        violations.append(
            f"{where}: checker rejected it ({report.get('reason')}: "
            f"{report.get('detail')})"
        )
        return violations
    kind = cert.get("kind")
    if report.get("kind") != kind:
        violations.append(f"{where}: checked as {report.get('kind')}, is {kind}")
    if kind == UNDECIDED:
        if report.get("verdict") != "undecided":
            violations.append(f"{where}: budget stub not checked as a stub")
        return violations
    problem = verdict_violation(where, k, power, report.get("verdict"))
    if problem:
        violations.append(problem)
    return violations


# ----------------------------------------------------------------------
# svc-mixed
# ----------------------------------------------------------------------
def check_solve_response(
    where: str,
    k: int,
    power: int,
    mapping: Optional[Dict[Any, Any]],
    map_is_carried,
) -> List[str]:
    """One decided ``solve`` answer: verdict rule, then the map itself.

    ``map_is_carried`` re-checks a returned map independently (it is
    :func:`repro.tasks.solvability.verify_carried_map` bound to the
    statement), so a doctored map is caught even when its verdict is
    right.
    """
    verdict = "solvable" if mapping is not None else "unsolvable"
    problem = verdict_violation(where, k, power, verdict)
    if problem:
        return [problem]
    if mapping is not None and not map_is_carried(mapping):
        return [f"{where}: returned map is not a carried map"]
    return []


def check_classify_response(where: str, got: str, want: str) -> List[str]:
    """A ``classify`` answer against the direct in-process call.

    Both sides are compared as canonical codec text.
    """
    if got != want:
        return [f"{where}: classify answer differs from the in-process call"]
    return []


def first_occurrences(keys: Iterable[Any]) -> List[bool]:
    """For each position, whether its key appeared earlier (a hit)."""
    seen = set()
    hits = []
    for key in keys:
        hits.append(key in seen)
        seen.add(key)
    return hits
