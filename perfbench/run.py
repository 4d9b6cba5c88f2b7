"""Time-to-verdict benchmark for the repro package: three workloads.

    python3 perfbench/run.py --workload {sweep-n4,certify-n4,svc-mixed} \\
        --seed N --seconds S --trace {0,1}

Run from the root of a checkout.  Every workload pass runs in a fresh
interpreter (``perfbench/passes.py``) so the program's memos start cold.
The seed reaches the program only as generated inputs.  Every workload
does a fixed amount of seeded work: ``sweep-n4`` and ``certify-n4``
ignore ``--seconds``; ``svc-mixed`` serves one seeded 600-request round
per 10 s of ``--seconds``, each round on a fresh ``repro serve`` with a
fresh cache directory.

``--trace 0`` reports the end-to-end metrics, measured untraced:

* ``setup_s`` — interpreter start, imports and input construction (for
  svc-mixed also server start until its announce line), the median of
  five set-ups;
* ``time_to_verdict_s`` — how long the workload's user waits for a
  verdict.  The sweep-n4 and certify-n4 users ask once for all their
  verdicts, so it is the wall time of that fixed work: the whole sweep
  (``sweep_wall_s``), or producing and verifying every certificate
  (``certify_wall_s`` + ``verify_wall_s``).  The svc-mixed users ask one
  request at a time, so it is the median latency over every request
  (``svc_p50_ms``).  Budget work counts in it: a cell or request that
  loses its verdict runs the full node budget (and, in a sweep, its
  split retries), so it takes longer than when it decided, and
  requests queued behind a budget recompute wait longer.  The svc-mixed
  wall (``svc_wall_s``) is printed, not gated: the seed decides how
  often the one budget key is asked for, and that moved it by more
  than the bound between seeds;
* ``peak_rss_mb`` — the pass's peak RSS (svc-mixed: the server's VmHWM).

``--trace 1`` runs an untraced and a traced pass, checks that their
outputs are byte-identical, and reports the layer ledger
(``perfbench/ledger.py``) with its coverage and tracing overhead.

Every output is checked (``perfbench/checks.py``); any violation makes
``correct`` false and the exit code 1.  The workload-specific numbers
(sweep wall time, certificate sizes, service throughput and tails,
undecided and error counts) are printed above the result line, each
with its unit.  The last line is one JSON object:
``{"correct", "attempted", "failed", "metrics"}``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import queue
import shutil
import signal
import subprocess
import sys
import threading
import time
from pathlib import Path
from typing import Any, Dict, List, Optional, Tuple

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import checks  # noqa: E402

WORKLOADS = ("sweep-n4", "certify-n4", "svc-mixed")
#: Set-up-only passes made before the measured one; setup_s is the
#: median over these plus the measured pass's own set-up.
SETUP_PROBES = 4
#: Hard limit for one invocation, below the 180 s a run may take.
RUN_LIMIT_S = 175.0
READY = "PERFBENCH-READY"

class BenchError(RuntimeError):
    """The benchmark could not run; no result is printed."""


def _child_env(root: Path) -> Dict[str, str]:
    env = dict(os.environ)
    for name in ("REPRO_TRACE", "REPRO_CACHE_DIR", "REPRO_SHARED_CACHE",
                 "REPRO_SWEEP_CELL_DELAY"):
        env.pop(name, None)
    src = str(root / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    # A fixed hash seed removes one source of run-to-run variance in
    # set iteration order; outputs do not depend on it.
    env["PYTHONHASHSEED"] = "0"
    return env


class Deadline:
    def __init__(self, seconds: float):
        self.end = time.monotonic() + seconds

    def left(self) -> float:
        left = self.end - time.monotonic()
        if left <= 0:
            raise BenchError("run exceeded its time limit")
        return left


def run_pass(
    root: Path,
    work: Path,
    args: argparse.Namespace,
    deadline: Deadline,
    trace: bool = False,
    setup_only: bool = False,
) -> Tuple[float, Optional[Dict[str, Any]]]:
    """One pass in a fresh interpreter: ``(setup seconds, result)``."""
    work.mkdir(parents=True)
    command = [
        sys.executable, str(HERE / "passes.py"), args.workload,
        "--seed", str(args.seed), "--seconds", str(args.seconds),
        "--work", str(work), "--root", str(root),
    ]
    if trace:
        command.append("--trace")
    if setup_only:
        command.append("--setup-only")
    lines: "queue.Queue[Optional[str]]" = queue.Queue()
    started = time.perf_counter()
    proc = subprocess.Popen(
        command, cwd=str(root), env=_child_env(root),
        stdout=subprocess.PIPE, text=True, start_new_session=True,
    )

    def read() -> None:
        for line in proc.stdout:
            lines.put(line.rstrip("\n"))
        lines.put(None)

    reader = threading.Thread(target=read, daemon=True)
    reader.start()
    setup_s: Optional[float] = None
    last: Optional[str] = None
    try:
        while True:
            try:
                line = lines.get(timeout=deadline.left())
            except queue.Empty:
                raise BenchError("run exceeded its time limit")
            if line is None:
                break
            if line == READY and setup_s is None:
                setup_s = time.perf_counter() - started
            elif line.strip():
                last = line
        code = proc.wait(timeout=deadline.left())
    finally:
        if proc.poll() is None:
            os.killpg(proc.pid, signal.SIGKILL)
            proc.wait()
        reader.join(5)
    if code != 0 or setup_s is None:
        raise BenchError(f"{args.workload} pass exited with code {code}")
    if setup_only:
        return setup_s, None
    try:
        return setup_s, json.loads(last or "")
    except ValueError:
        raise BenchError(f"{args.workload} pass printed no result")


def _git_commit(root: Path) -> str:
    if not (root / ".git").exists():
        return "unknown (not a git checkout)"
    try:
        out = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=str(root), capture_output=True,
            text=True, timeout=10,
        )
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 else "unknown"


def _print_info(name: str, value: Any, unit: str) -> None:
    print(f"{name}: {value} {unit}")


def _report_pass(result: Dict[str, Any]) -> None:
    for name, (value, unit) in result["info"].items():
        _print_info(name, value, unit)
    _print_info("peak_rss_mb", result["peak_rss_mb"], "MB")
    _print_info("attempted", result["attempted"], "count")
    _print_info("undecided", result["undecided"], "count")
    _print_info("error_share", result["error_share"], "ratio")
    for violation in result["violations"]:
        print(f"VIOLATION: {violation}")


def faithful(untraced: List[str], traced: List[str]) -> bool:
    """Traced outputs must equal the untraced ones, byte for byte."""
    return bool(untraced) and untraced == traced


def _select(declared: List[Dict[str, Any]], values: Dict[str, float]) -> Dict[str, Dict[str, Any]]:
    """The declared metrics, in declaration order, with their units."""
    return {
        metric["name"]: {"value": values[metric["name"]], "unit": metric["unit"]}
        for metric in declared
    }


def measure(
    root: Path, work: Path, args: argparse.Namespace, spec: Dict[str, Any]
) -> Tuple[bool, int, int, Dict[str, Dict[str, Any]]]:
    """Run the passes; ``spec`` is BENCHMARK.json, which names the metrics."""
    deadline = Deadline(RUN_LIMIT_S)
    if not args.trace:
        setups = [
            run_pass(root, work / f"probe{i}", args, deadline, setup_only=True)[0]
            for i in range(SETUP_PROBES)
        ]
        setup_s, result = run_pass(root, work / "pass", args, deadline)
        setups.append(setup_s)
        _report_pass(result)
        metrics = {
            "setup_s": checks.median(setups),
            "time_to_verdict_s": result["verdict_s"],
            "peak_rss_mb": result["peak_rss_mb"],
        }
        correct = not result["violations"] and result["attempted"] > 0
        return correct, result["attempted"], result["failed"], _select(
            spec["end_to_end"], metrics
        )
    _, plain = run_pass(root, work / "plain", args, deadline)
    _, traced = run_pass(root, work / "traced", args, deadline, trace=True)
    _report_pass(traced)
    same = faithful(plain["outputs"], traced["outputs"])
    print(f"traced outputs identical to untraced: {'yes' if same else 'NO'}")
    layers = dict(traced["layers"])
    layers["ledger.overhead"] = traced["wall_s"] / plain["wall_s"]
    correct = (
        same and not plain["violations"] and not traced["violations"]
        and traced["attempted"] > 0
    )
    return correct, traced["attempted"], traced["failed"], _select(
        spec["per_layer"], layers
    )


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    root = Path.cwd()
    needed = [root / "BENCHMARK.json", root / "src" / "repro" / "__init__.py",
              root / "examples" / "landscape_n4_sampled.json"]
    missing = [str(path.relative_to(root)) for path in needed if not path.is_file()]
    if missing:
        print(f"perfbench: not a repro checkout (missing {', '.join(missing)})",
              file=sys.stderr)
        return 2
    print("row: " + json.dumps({
        "workload": args.workload, "seed": args.seed, "trace": args.trace,
        "nproc": os.cpu_count(), "python": platform.python_version(),
        "commit": _git_commit(root),
    }, sort_keys=True))
    work = root / ".perfbench-work" / str(os.getpid())
    try:
        correct, attempted, failed, metrics = measure(
            root, work, args,
            json.loads((root / "BENCHMARK.json").read_text(encoding="utf-8")),
        )
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            work.parent.rmdir()
        except OSError:
            pass
    for name, metric in metrics.items():
        _print_info(name, metric["value"], metric["unit"])
    print(json.dumps({
        "correct": correct, "attempted": attempted, "failed": failed,
        "metrics": metrics,
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
