"""One workload pass, run in a fresh interpreter by ``perfbench/run.py``.

    python3 perfbench/passes.py WORKLOAD --seed N --seconds S --work DIR
        [--trace] [--setup-only]

The pass builds its inputs from the seed, prints ``PERFBENCH-READY``
when set-up is complete (the parent times set-up up to that line), runs
the measured region, checks every output and prints one JSON document
as its last line.  With ``--trace`` the layer ledger is installed
around the measured region only; with ``--setup-only`` the pass exits
right after set-up.

Cold state is the point of the fresh interpreter: ``_RA_MEMO``, the
``lru_cache``s and the ``vertex_key`` memo all start empty.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import random
import resource
import subprocess
import sys
import threading
import time
from pathlib import Path
from typing import Any, Dict, List, Optional, Tuple

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import checks  # noqa: E402
import ledger as ledger_mod  # noqa: E402

READY = "PERFBENCH-READY"

#: certify-n4 certifies the first this-many fair adversaries of the
#: sweep grid: one unsolvable and one solvable certificate each.
CERTIFY_ADVERSARIES = 2
#: Node budget of every solve, as in the n4-sampled grid.
BUDGET = 20000
#: svc-mixed: closed-loop connections, at most one per core.
SVC_CONNECTIONS = max(1, min(2, os.cpu_count() or 1))
#: svc-mixed serves rounds of SVC_ROUND_REQUESTS requests, the length
#: of a reference run of this mix; each round is a fresh server on a
#: fresh cache directory with its own seeded ranking of key popularity.
SVC_ROUND_REQUESTS = 600
#: The key skew is solved so that the most popular solve key of a round
#: expects this many requests.  One solve key ends in ``budget``, which
#: the service recomputes on every request (about 1 s each on two
#: cores), and the seed decides how popular it is.  The reference run's
#: hit share (538 of 600) needs a skew that gives the most popular key
#: about 145 requests: at 1 s each that is past the time a run may take
#: whenever the seed makes the budget key the most popular one (11 of
#: seeds 0-299).  At 15, it expects at most 15 requests a round.
SVC_HOT_REQUESTS = 15
#: The number of rounds comes from this rate, in requests per second of
#: ``--seconds``: about the 43-75 requests/s at which
#: ``repro serve --jobs 2`` answered the rounds on a 2-vCPU VM (seeds
#: 2-21), so a run serves for about ``--seconds`` (3 rounds at 30 s).
#: The rounds are fixed work, not a time box, so budget recomputes that
#: stall the service cannot shift the hit/miss mix.
SVC_QPS = 60


def _peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


# ----------------------------------------------------------------------
# Seeded inputs
# ----------------------------------------------------------------------
def seeded_adversaries(seed: int) -> list:
    """The committed n4-sampled preset's sample, relabelled by the seed.

    Every sweep-n4 grid holds the preset's 24 adversaries (its sample
    at seed 11: 6 fair ones of power >= 2 and 18 unfair ones) with the
    processes renamed by a permutation drawn from the seed; the
    reference seed keeps the identity.  Drawing a fresh sample per seed,
    even one grown to the preset's fair/unfair mix, changed how many
    cells end in ``budget`` (0 to 6, about 3 s each) and so moved the
    sweep's time by 0.26 (IQR/median) over seeds 12-21.
    """
    from repro.adversaries.adversary import Adversary
    from repro.sweep.driver import GRID_PRESETS, sample_adversaries

    base = GRID_PRESETS["n4-sampled"]
    sample = sample_adversaries(base.n, base.seed, base.sample_count)
    if seed == base.seed:
        return sample
    rename = list(range(base.n))
    random.Random(f"perfbench.relabel:{seed}").shuffle(rename)
    return [
        Adversary(base.n, [[rename[p] for p in live] for live in adversary.live_sets])
        for adversary in sample
    ]


def sweep_grid(seed: int):
    """The n4-sampled grid over :func:`seeded_adversaries`: the preset
    itself at the reference seed, an explicit grid otherwise."""
    from dataclasses import replace

    from repro.sweep.driver import GRID_PRESETS

    base = GRID_PRESETS["n4-sampled"]
    if seed == base.seed:
        return base
    return replace(
        base,
        source="explicit",
        sample_count=0,
        live_sets=tuple(
            tuple(sorted(tuple(sorted(live)) for live in adversary.live_sets))
            for adversary in seeded_adversaries(seed)
        ),
    )


def certify_adversaries(seed: int) -> List[Tuple[Any, int]]:
    """The first CERTIFY_ADVERSARIES fair adversaries of the sweep grid
    with their agreement power."""
    from repro.adversaries.fairness import is_fair
    from repro.adversaries.setcon import setcon

    fair = [
        (adversary, setcon(adversary))
        for adversary in seeded_adversaries(seed)
        if is_fair(adversary)
    ]
    return [row for row in fair if row[1] >= 2][:CERTIFY_ADVERSARIES]


# ----------------------------------------------------------------------
# sweep-n4
# ----------------------------------------------------------------------
def sweep_setup(args) -> Dict[str, Any]:
    import repro.sweep.cells  # noqa: F401 - imported before timing
    from repro.sweep.driver import SweepDriver  # noqa: F401

    return {"grid": sweep_grid(args.seed)}


def sweep_pass(args, state, ledger) -> Dict[str, Any]:
    from repro.sweep.driver import SweepDriver

    grid = state["grid"]
    work = Path(args.work)
    tally = checks.Tally()
    violations: List[str] = []
    installed = ledger_mod.install(ledger) if ledger else None
    started = time.perf_counter()
    try:
        with SweepDriver(grid, work / "checkpoints") as driver:
            status = driver.run()
            data = driver.write_artifact(work / "landscape.json")
        wall = time.perf_counter() - started
    finally:
        if installed:
            installed.remove()
    artifact = json.loads(data)
    for cell in artifact["cells"]:
        solve = cell.get("solve")
        tally.record(
            "undecided" if solve and solve["verdict"] == checks.UNDECIDED else "ok"
        )
    root = Path(args.root)
    committed = (root / "examples" / "landscape_n4_sampled.json").read_bytes()
    reference_cells = {
        checks.cell_key(cell): cell for cell in json.loads(committed)["cells"]
    }
    violations += checks.check_sweep_artifact(
        data,
        reference=committed if args.seed == 11 else None,
        reference_cells=reference_cells,
    )
    if not status.get("complete"):
        violations.append("sweep did not complete")
    layer_counts = {"sweep.cells_computed": status["computed"]}
    summary = artifact["summary"]
    return {
        "wall_s": wall,
        "verdict_s": wall,
        "tally": tally,
        "violations": violations,
        "outputs": [_sha(data)],
        "layer_counts": layer_counts,
        "info": {
            "sweep_wall_s": (wall, "s"),
            "sweep_cells": (len(artifact["cells"]), "count"),
            "sweep_fair_adversaries": (
                len({json.dumps(c["live_sets"]) for c in artifact["cells"] if c["solve"]}),
                "count",
            ),
            "solve_nodes_total": (summary["solve_nodes_total"], "count"),
        },
    }


# ----------------------------------------------------------------------
# certify-n4
# ----------------------------------------------------------------------
def certify_setup(args) -> Dict[str, Any]:
    import repro.certify  # noqa: F401 - imported before timing
    import repro.core.ra  # noqa: F401
    from repro.adversaries.agreement import agreement_function_of

    chosen = certify_adversaries(args.seed)
    return {
        "rows": [
            (adversary, power, agreement_function_of(adversary))
            for adversary, power in chosen
        ]
    }


def certify_pass(args, state, ledger) -> Dict[str, Any]:
    # Layer functions are looked up on their modules at call time, so
    # the traced pass reaches the ledger's wrappers.
    import repro.certify as certify
    import repro.core.ra as ra
    from repro.tasks.set_consensus import set_consensus_task

    produced: List[Dict[str, Any]] = []
    produce_s = verify_s = 0.0
    cert_bytes = 0
    installed = ledger_mod.install(ledger) if ledger else None
    try:
        for adversary, power, alpha in state["rows"]:
            n = adversary.n
            started = time.perf_counter()
            affine = ra.r_affine(alpha)
            batch = []
            for k in (power - 1, min(power + 1, n)):
                task = set_consensus_task(n, k)
                _, cert = certify.certified_search(affine, task, budget=BUDGET)
                data = certify.cert_to_bytes(cert)
                batch.append(
                    {
                        "k": k,
                        "power": power,
                        "affine": affine,
                        "task": task,
                        "head": {
                            "kind": cert.get("kind"),
                            "statement": {
                                key: cert["statement"][key]
                                for key in ("affine_digest", "task_digest")
                            },
                        },
                        "data": data,
                    }
                )
                del cert
            produced_at = time.perf_counter()
            for item in batch:
                item["report"] = certify.check_bytes(item["data"]).to_dict()
            verified_at = time.perf_counter()
            produce_s += produced_at - started
            verify_s += verified_at - produced_at
            for item in batch:
                cert_bytes += len(item["data"])
                item["sha"] = _sha(item["data"])
                del item["data"]
            produced.extend(batch)
    finally:
        if installed:
            installed.remove()

    from repro.engine.serialize import digest

    tally = checks.Tally()
    violations: List[str] = []
    for index, item in enumerate(produced):
        tally.record("undecided" if item["head"]["kind"] == "budget" else "ok")
        violations += checks.check_certificate(
            f"certificate {index}",
            item["head"],
            item["report"],
            item["k"],
            item["power"],
            digest(item["affine"]),
            digest(item["task"]),
        )
    return {
        "wall_s": produce_s + verify_s,
        "verdict_s": produce_s + verify_s,
        "tally": tally,
        "violations": violations,
        "outputs": [item["sha"] for item in produced],
        "layer_counts": {},
        "info": {
            "certify_wall_s": (produce_s, "s"),
            "verify_wall_s": (verify_s, "s"),
            "cert_mb": (cert_bytes / 1e6, "MB"),
            "certificates": (len(produced), "count"),
        },
    }


# ----------------------------------------------------------------------
# svc-mixed
# ----------------------------------------------------------------------
class Server:
    """A ``repro serve --port 0`` subprocess on a fresh cache directory."""

    def __init__(self, root: Path, cache_dir: Path):
        self.proc = subprocess.Popen(
            [
                sys.executable, "-m", "repro", "serve",
                "--port", "0", "--jobs", "2",
                "--cache-dir", str(cache_dir),
            ],
            cwd=str(root),
            stdout=subprocess.PIPE,
            stderr=subprocess.DEVNULL,
            text=True,
        )
        self.port: Optional[int] = None
        announced = threading.Event()

        def drain() -> None:
            # Keep reading so the drain-time metrics dump never blocks
            # the server on a full pipe.
            for line in self.proc.stdout:
                if self.port is None and "listening on" in line:
                    self.port = int(line.split()[4].rsplit(":", 1)[1])
                    announced.set()
            announced.set()

        self._reader = threading.Thread(target=drain, daemon=True)
        self._reader.start()
        if not announced.wait(60) or self.port is None:
            self.stop()
            raise RuntimeError("repro serve did not announce its port")

    def peak_rss_mb(self) -> float:
        status = Path(f"/proc/{self.proc.pid}/status").read_text()
        for line in status.splitlines():
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
        raise RuntimeError("no VmHWM for the server")

    def stop(self) -> None:
        if self.proc.poll() is None:
            self.proc.terminate()
            try:
                self.proc.wait(30)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait(30)
        self._reader.join(30)


def svc_keys():
    """All 127 n=3 adversaries (classify) and the 37 distinct fair
    ``R_A`` x k=1..3 (solve), with what the checks need."""
    from repro.adversaries.agreement import agreement_function_of
    from repro.adversaries.fairness import is_fair
    from repro.adversaries.setcon import setcon
    from repro.analysis.landscape import all_adversaries, alpha_signature
    from repro.core.ra import r_affine
    from repro.tasks.set_consensus import set_consensus_task

    classify = list(all_adversaries(3))
    alphas: Dict[Any, Tuple[Any, int]] = {}
    for adversary in classify:
        if is_fair(adversary) and setcon(adversary) >= 1:
            alpha = agreement_function_of(adversary)
            alphas.setdefault(alpha_signature(alpha), (alpha, setcon(adversary)))
    solve = []
    for alpha, power in alphas.values():
        affine = r_affine(alpha)
        for k in (1, 2, 3):
            solve.append((affine, set_consensus_task(3, k), k, power))
    return {"classify": classify, "solve": solve}


def svc_kinds(sizes: Dict[str, int], count: int) -> List[str]:
    """The kind of each of ``count`` requests, spread evenly.

    Each kind's share is its share of all keys (127 classify to 111
    solve), the expected mix of one Zipf draw over all keys, but fixed,
    so the seed moves only which keys are popular.
    """
    total = sum(sizes.values())
    classify = sizes["classify"]
    return [
        "classify" if (i + 1) * classify // total > i * classify // total
        else "solve"
        for i in range(count)
    ]


def svc_skew(draws: int, keys: int) -> float:
    """The Zipf exponent at which the most popular of ``keys`` keys
    expects SVC_HOT_REQUESTS of ``draws`` draws."""
    low, high = 0.0, 8.0
    for _ in range(60):
        middle = (low + high) / 2
        top = draws / sum((rank + 1) ** -middle for rank in range(keys))
        if top < SVC_HOT_REQUESTS:
            low = middle
        else:
            high = middle
    return (low + high) / 2


def svc_sequence(seed: Any, keys: Dict[str, list], count: int) -> List[Tuple[str, int]]:
    """The seeded request sequence: ``count`` pairs ``(kind, key index)``.

    Kinds follow :func:`svc_kinds`; within a kind, key popularity is
    Zipf over a seeded ranking (rank r drawn with weight ``r ** -skew``),
    with the skew from :func:`svc_skew`.
    """
    sizes = {kind: len(keys[kind]) for kind in ("classify", "solve")}
    kinds = svc_kinds(sizes, count)
    skew = svc_skew(kinds.count("solve"), sizes["solve"])
    rng = random.Random(f"perfbench.svc:{seed}")
    ranking = {}
    for kind in sizes:
        order = list(range(sizes[kind]))
        rng.shuffle(order)
        ranking[kind] = order
    weights = {
        kind: [(rank + 1) ** -skew for rank in range(sizes[kind])]
        for kind in sizes
    }
    return [
        (kind, ranking[kind][rng.choices(range(sizes[kind]), weights=weights[kind])[0]])
        for kind in kinds
    ]


def svc_rounds(seconds: float) -> int:
    return max(1, round(SVC_QPS * seconds / SVC_ROUND_REQUESTS))


def svc_setup(args) -> Dict[str, Any]:
    from repro.service.client import ServiceClient  # noqa: F401

    work = Path(args.work)
    keys = svc_keys()
    sequences = [
        svc_sequence(f"{args.seed}:{round_}", keys, SVC_ROUND_REQUESTS)
        for round_ in range(svc_rounds(args.seconds))
    ]
    server = Server(Path(args.root), work / "cache0")
    return {"keys": keys, "sequences": sequences, "server": server}


def _svc_load(port: int, keys, sequence, ledger):
    """Serve ``sequence`` over the closed-loop connections.

    Each connection takes the next request of the sequence as soon as
    its previous one is answered.  Returns ``(answers, wall seconds)``
    with answers by sequence index.
    """
    from repro.service.client import ServiceClient, ServiceError
    from repro.tasks.solvability import SearchBudgetExceeded

    lock = threading.Lock()
    answers: Dict[int, Tuple[str, Any, float]] = {}
    pending = iter(range(len(sequence)))

    def connection() -> None:
        with ServiceClient(port=port, timeout=120.0) as client:
            while True:
                with lock:
                    index = next(pending, None)
                if index is None:
                    return
                kind, key = sequence[index]
                started = time.perf_counter()
                try:
                    if kind == "classify":
                        value = client.classify(keys["classify"][key])
                    else:
                        affine, task, _, _ = keys["solve"][key]
                        value = client.solve(affine, task, BUDGET)
                    outcome = "ok"
                except SearchBudgetExceeded:
                    value, outcome = None, "undecided"
                except (ServiceError, OSError, ValueError) as exc:
                    value, outcome = repr(exc), "failed"
                answers[index] = (
                    outcome, value, (time.perf_counter() - started) * 1000.0
                )

    threads = [
        threading.Thread(target=connection) for _ in range(SVC_CONNECTIONS)
    ]
    installed = ledger_mod.install(ledger) if ledger else None
    started = time.perf_counter()
    try:
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        wall = time.perf_counter() - started
    finally:
        if installed:
            installed.remove()
    return answers, wall


def svc_pass(args, state, ledger) -> Dict[str, Any]:
    from repro.engine.serialize import serialize
    from repro.service.client import ServiceClient
    from repro.tasks.solvability import verify_carried_map

    keys = state["keys"]
    issued: List[Tuple[str, int]] = []
    answers: List[Tuple[str, Any, float]] = []
    rounds: List[Dict[str, Any]] = []
    # A hit repeats a key earlier in its own round: each round has its
    # own server and cache.
    hit_keys: List[Tuple[int, str, int]] = []
    wall = 0.0
    for round_, sequence in enumerate(state["sequences"]):
        # Round 0's server started in set-up; later ones start between
        # timed regions.
        server = state.pop("server", None) or Server(
            Path(args.root), Path(args.work) / f"cache{round_}"
        )
        try:
            got, seconds = _svc_load(server.port, keys, sequence, ledger)
            with ServiceClient(port=server.port) as client:
                stats = client.stats()
            rounds.append({"stats": stats, "rss": server.peak_rss_mb()})
        finally:
            server.stop()
        wall += seconds
        issued += sequence
        answers += [got[index] for index in range(len(sequence))]
        hit_keys += [(round_, kind, key) for kind, key in sequence]

    from repro.adversaries.agreement import agreement_function_of
    from repro.adversaries.fairness import is_fair
    from repro.adversaries.setcon import setcon
    from repro.analysis.landscape import alpha_signature

    def classify_direct(adversary):
        return (
            is_fair(adversary),
            adversary.is_superset_closed(),
            adversary.is_symmetric(),
            setcon(adversary),
            alpha_signature(agreement_function_of(adversary)),
        )

    tally = checks.Tally()
    violations: List[str] = []
    outputs: List[str] = []
    # Every request's latency, budget answers and failures included.
    latencies = [latency for _, _, latency in answers]
    verdicts = 0  # answered with a verdict, not a budget
    for index, (kind, key) in enumerate(issued):
        outcome, value, _ = answers[index]
        tally.record(outcome)
        if outcome == "failed":
            outputs.append("failed")
            continue
        where = f"request {index} ({kind} #{key})"
        if outcome == "undecided":
            outputs.append("budget")
            continue
        verdicts += 1
        outputs.append(_sha(serialize(value).encode("utf-8")))
        if kind == "classify":
            violations += checks.check_classify_response(
                where,
                serialize(value),
                serialize(classify_direct(keys["classify"][key])),
            )
        else:
            affine, task, k, power = keys["solve"][key]
            mapping, _nodes = value
            violations += checks.check_solve_response(
                where, k, power, mapping,
                lambda m: verify_carried_map(affine, task, m),
            )
    if not verdicts:
        violations.append("the service answered no request with a verdict")
    hits = checks.first_occurrences(hit_keys)
    hit_ms = [lat for lat, hit in zip(latencies, hits) if hit]
    miss_ms = [lat for lat, hit in zip(latencies, hits) if not hit]
    tail = checks.tail(latencies)
    def total(read) -> int:
        return sum(read(round_["stats"]) for round_ in rounds)

    def counter(name: str):
        return lambda stats: stats["metrics"]["counters"].get(name, 0)

    def memcache(name: str):
        return lambda stats: stats.get("memcache", {}).get(name, 0)

    batches = total(counter("batches_total"))
    lookups = total(memcache("hits")) + total(memcache("misses"))
    layer_counts = {
        "service.server_p50_ms": checks.median([
            round_["stats"]["metrics"]["latency"]["request"]["p50_s"] * 1000.0
            for round_ in rounds
        ]),
        "service.batches": batches,
        "service.mean_batch": (
            total(counter("jobs_dispatched_total")) / batches if batches else 0.0
        ),
        "service.coalesced": total(counter("coalesced_total")),
        "memcache.hit_rate": (
            total(memcache("hits")) / lookups if lookups else 0.0
        ),
        "engine.cache_misses": total(lambda stats: stats["engine"]["misses"]),
        "engine.budget_recomputes": total(counter("errors_budget_exceeded_total")),
    }
    return {
        "wall_s": wall,
        "verdict_s": checks.median(latencies) / 1000.0,
        "tally": tally,
        "violations": violations,
        "outputs": outputs,
        "layer_counts": layer_counts,
        "peak_rss_mb": max(round_["rss"] for round_ in rounds),
        "connections": SVC_CONNECTIONS,
        "info": {
            "svc_wall_s": (wall, "s"),
            "svc_qps": (len(latencies) / wall, "1/s"),
            "svc_p50_ms": (checks.median(latencies), "ms"),
            "svc_tail_ms": (tail["value"], "ms"),
            "svc_tail_percentile": (tail["percentile"], "%"),
            "svc_tail_samples": (tail["samples"], "count"),
            "svc_hit_p50_ms": (checks.median(hit_ms) if hit_ms else 0.0, "ms"),
            "svc_miss_p50_ms": (checks.median(miss_ms) if miss_ms else 0.0, "ms"),
            "svc_hits": (len(hit_ms), "count"),
            "svc_misses": (len(miss_ms), "count"),
            "svc_rounds": (len(rounds), "count"),
        },
    }


WORKLOADS = {
    "sweep-n4": (sweep_setup, sweep_pass),
    "certify-n4": (certify_setup, certify_pass),
    "svc-mixed": (svc_setup, svc_pass),
}


def _ledger_report(ledger, result) -> Dict[str, float]:
    """The per-layer numbers of a traced pass, by metric name."""
    seconds, counts = ledger.seconds, ledger.counts
    checked = counts.get("certify.checked", 0)
    report = {
        "adversaries.classify_s": seconds.get("adversaries.classify", 0.0),
        "adversaries.classify_calls": counts.get("adversaries.classify_calls", 0),
        "core.r_affine_s": seconds.get("core.r_affine", 0.0),
        "core.r_affine_calls": counts.get("core.r_affine_calls", 0),
        "core.ra_vertices": counts.get("core.ra_vertices", 0),
        "engine.digest_s": seconds.get("engine.digest", 0.0),
        "engine.digest_calls": counts.get("engine.digest_calls", 0),
        "engine.canon_bytes": counts.get("engine.canon_bytes", 0),
        "svc.encode_s": seconds.get("svc.encode", 0.0),
        "svc.request_bytes": counts.get("svc.request_bytes", 0),
        "svc.response_bytes": counts.get("svc.response_bytes", 0),
        "solver.setup_s": seconds.get("solver.setup", 0.0),
        "solver.intern_s": seconds.get("solver.intern", 0.0),
        "solver.search_s": seconds.get("solver.search", 0.0),
        "solver.nodes": counts.get("solver.nodes", 0),
        "solver.split_slices": counts.get("solver.split_slices", 0),
        "sweep.checkpoint_s": seconds.get("sweep.checkpoint", 0.0),
        "sweep.cells_computed": 0,
        "certify.extract_s": seconds.get("certify.extract", 0.0),
        "certify.encode_s": seconds.get("certify.encode", 0.0),
        "certify.check_s": seconds.get("certify.check", 0.0),
        "certify.simplices_checked": counts.get("certify.simplices_checked", 0),
        "certify.nodes_replayed": counts.get("certify.nodes_replayed", 0),
        "certify.valid_ratio": (
            counts.get("certify.valid", 0) / checked if checked else 0.0
        ),
        "service.server_p50_ms": 0.0,
        "service.batches": 0,
        "service.mean_batch": 0.0,
        "service.coalesced": 0,
        "memcache.hit_rate": 0.0,
        "engine.cache_misses": 0,
        "engine.budget_recomputes": 0,
    }
    report.update(result["layer_counts"])
    # Each connection is busy for the whole wall time, so svc-mixed
    # divides by twice its wall.
    busy = result["wall_s"] * result.get("connections", 1)
    report["ledger.coverage"] = ledger.covered_seconds() / busy
    return report


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--work", required=True)
    parser.add_argument("--root", default=".")
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args(argv)

    setup, run = WORKLOADS[args.workload]
    state = setup(args)
    print(READY, flush=True)
    if args.setup_only:
        if "server" in state:
            state["server"].stop()
        return 0
    ledger = ledger_mod.Ledger() if args.trace else None
    result = run(args, state, ledger)
    tally = result.pop("tally")
    document = {
        "wall_s": result["wall_s"],
        "verdict_s": result["verdict_s"],
        "attempted": tally.attempted,
        "failed": tally.failed,
        "undecided": tally.undecided,
        "error_share": tally.error_share,
        "violations": result["violations"],
        "outputs": result["outputs"],
        "peak_rss_mb": result.get("peak_rss_mb", _peak_rss_mb()),
        "info": result["info"],
    }
    if ledger is not None:
        document["layers"] = _ledger_report(ledger, result)
    print(json.dumps(document), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
