"""Tests of the benchmark's own rules: percentiles, accounting, and the
correctness checks fed doctored outputs.

    python3 -m pytest perfbench/tests -q
"""

from __future__ import annotations

import json
import sys
import time
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
BENCH = HERE.parent
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))
sys.path.insert(0, str(ROOT / "src"))

import checks  # noqa: E402
import ledger  # noqa: E402
import passes  # noqa: E402
import run  # noqa: E402

COMMITTED = ROOT / "examples" / "landscape_n4_sampled.json"


# ----------------------------------------------------------------------
# Percentile rule
# ----------------------------------------------------------------------
def test_tail_is_highest_percentile_with_ten_beyond():
    values = [float(i) for i in range(100)]
    row = checks.tail(values)
    assert row == {"value": 89.0, "percentile": 90, "samples": 100}
    assert sum(1 for v in values if v > row["value"]) == 10


def test_tail_ignores_input_order_and_counts_samples():
    values = [5.0, 1.0, 3.0, 2.0, 4.0, 9.0, 8.0, 7.0, 6.0, 10.0, 11.0, 0.0]
    row = checks.tail(values)
    # 12 samples: rank 1 (value 1.0) has exactly 10 beyond it.
    assert row == {"value": 1.0, "percentile": 16, "samples": 12}


def test_tail_with_too_few_samples_reports_max_at_percentile_zero():
    assert checks.tail([3.0, 1.0, 2.0]) == {
        "value": 3.0, "percentile": 0, "samples": 3,
    }
    with pytest.raises(ValueError):
        checks.tail([])


def test_median_even_and_odd():
    assert checks.median([3.0, 1.0, 2.0]) == 2.0
    assert checks.median([4.0, 1.0, 2.0, 3.0]) == 2.5


# ----------------------------------------------------------------------
# Undecided versus error accounting
# ----------------------------------------------------------------------
def test_undecided_is_neither_error_nor_violation():
    tally = checks.Tally()
    for outcome in ("ok", "undecided", "undecided", "failed", "ok"):
        tally.record(outcome)
    assert (tally.attempted, tally.failed, tally.undecided) == (5, 1, 2)
    assert tally.error_share == pytest.approx(0.2)
    assert checks.verdict_violation("cell", 2, 2, "budget") is None
    with pytest.raises(ValueError):
        tally.record("maybe")


def test_setcon_rule():
    assert checks.verdict_violation("c", 2, 2, "solvable") is None
    assert checks.verdict_violation("c", 1, 2, "unsolvable") is None
    assert checks.verdict_violation("c", 1, 2, "solvable")
    assert checks.verdict_violation("c", 3, 2, "unsolvable")
    assert checks.verdict_violation("c", 3, 2, "maybe")


# ----------------------------------------------------------------------
# Doctored sweep artifact
# ----------------------------------------------------------------------
def _canon(doc) -> bytes:
    return (json.dumps(doc, sort_keys=True, separators=(",", ":"),
                       ensure_ascii=True) + "\n").encode("utf-8")


def test_committed_artifact_passes():
    data = COMMITTED.read_bytes()
    cells = {checks.cell_key(c): c for c in json.loads(data)["cells"]}
    assert checks.check_sweep_artifact(data, data, cells) == []


def test_flipped_verdict_is_rejected():
    data = COMMITTED.read_bytes()
    doc = json.loads(data)
    cells = {checks.cell_key(c): json.loads(json.dumps(c)) for c in doc["cells"]}
    target = next(c for c in doc["cells"]
                  if c["solve"] and c["solve"]["verdict"] == "solvable")
    target["solve"]["verdict"] = "unsolvable"
    # Keep the summary consistent so only the verdict rule can object.
    doc["summary"]["verdicts"]["solvable"] -= 1
    doc["summary"]["verdicts"]["unsolvable"] += 1
    doctored = _canon(doc)
    problems = checks.check_sweep_artifact(doctored)
    assert any("expected solvable" in p for p in problems)
    problems = checks.check_sweep_artifact(doctored, data, cells)
    assert any("differs from the committed" in p for p in problems)
    assert any("record differs" in p for p in problems)


def test_summary_mismatch_is_rejected():
    doc = json.loads(COMMITTED.read_bytes())
    doc["summary"]["verdicts"]["budget"] += 1
    assert any("summary" in p for p in checks.check_sweep_artifact(_canon(doc)))


# ----------------------------------------------------------------------
# Certificates and solve responses (small n=3 statements)
# ----------------------------------------------------------------------
@pytest.fixture(scope="module")
def statement():
    from repro.adversaries.agreement import agreement_function_of
    from repro.adversaries.adversary import t_resilient
    from repro.adversaries.setcon import setcon
    from repro.core.ra import r_affine

    adversary = t_resilient(3, 1)
    power = setcon(adversary)
    return adversary, power, r_affine(agreement_function_of(adversary))


def _certify(affine, k, budget=20000):
    from repro.certify import cert_to_bytes, certified_search, check_bytes
    from repro.engine.serialize import digest
    from repro.tasks.set_consensus import set_consensus_task

    task = set_consensus_task(affine.n, k)
    mapping, cert = certified_search(affine, task, budget=budget)
    data = cert_to_bytes(cert)
    return task, mapping, cert, data, check_bytes(data).to_dict(), digest(affine), digest(task)


def test_valid_certificates_pass(statement):
    _, power, affine = statement
    for k in (power - 1, power):
        _, _, cert, _, report, a_digest, t_digest = _certify(affine, k)
        assert checks.check_certificate("c", cert, report, k, power,
                                        a_digest, t_digest) == []


def test_doctored_certificate_is_rejected(statement):
    from repro.certify import check_bytes

    _, power, affine = statement
    _, _, cert, _, _, a_digest, t_digest = _certify(affine, power)
    doctored = json.loads(json.dumps(cert))
    vertex, out = doctored["map"][0]
    other = next(o for _, o in doctored["map"] if o != out)
    doctored["map"][0] = [vertex, other]
    report = check_bytes(_canon(doctored)).to_dict()
    problems = checks.check_certificate("c", doctored, report, power, power,
                                        a_digest, t_digest)
    assert any("checker rejected" in p for p in problems)


def test_certificate_for_another_statement_is_rejected(statement):
    _, power, affine = statement
    _, _, cert, _, report, a_digest, _ = _certify(affine, power)
    _, _, _, _, _, _, other_task = _certify(affine, power - 1)
    problems = checks.check_certificate("c", cert, report, power - 1, power,
                                        a_digest, other_task)
    assert any("another task" in p for p in problems)


def test_valid_certificate_with_wrong_verdict_is_rejected(statement):
    _, power, affine = statement
    _, _, cert, _, report, a_digest, t_digest = _certify(affine, power)
    # Claim the statement was k=power with setcon power+1: the rule now
    # expects unsolvable, so a valid solvable certificate is an error.
    problems = checks.check_certificate("c", cert, report, power, power + 1,
                                        a_digest, t_digest)
    assert any("expected unsolvable" in p for p in problems)


def test_budget_stub_is_checked_as_a_stub(statement):
    _, power, affine = statement
    _, _, cert, _, report, a_digest, t_digest = _certify(affine, power - 1, budget=3)
    assert cert["kind"] == "budget"
    assert checks.check_certificate("c", cert, report, power - 1, power,
                                    a_digest, t_digest) == []
    report = dict(report, verdict="unsolvable")
    assert checks.check_certificate("c", cert, report, power - 1, power,
                                    a_digest, t_digest)


def test_doctored_solve_response_is_rejected(statement):
    from repro.tasks.solvability import verify_carried_map

    _, power, affine = statement
    task, mapping, _, _, _, _, _ = _certify(affine, power)
    carried = lambda m: verify_carried_map(affine, task, m)  # noqa: E731
    assert checks.check_solve_response("r", power, power, mapping, carried) == []
    # A flipped verdict.
    assert checks.check_solve_response("r", power, power, None, carried)
    # A right verdict with a doctored map.
    vertex = next(iter(mapping))
    doctored = dict(mapping)
    doctored[vertex] = next(o for o in mapping.values() if o != mapping[vertex])
    problems = checks.check_solve_response("r", power, power, doctored, carried)
    assert any("not a carried map" in p for p in problems)


def test_doctored_classify_response_is_rejected():
    assert checks.check_classify_response("r", "[true]", "[true]") == []
    assert checks.check_classify_response("r", "[false]", "[true]")


def test_hits_are_repeated_keys():
    assert checks.first_occurrences(["a", "b", "a", "c", "b"]) == [
        False, False, True, False, True,
    ]


def test_faithfulness_compares_outputs():
    assert run.faithful(["x", "y"], ["x", "y"])
    assert not run.faithful(["x", "y"], ["x", "z"])
    assert not run.faithful(["x", "y"], ["x"])
    assert not run.faithful([], [])


# ----------------------------------------------------------------------
# Seeded inputs
# ----------------------------------------------------------------------
def test_seeds_relabel_the_preset_sample():
    from repro.adversaries.fairness import is_fair
    from repro.adversaries.setcon import setcon
    from repro.sweep.driver import GRID_PRESETS, sample_adversaries

    base = GRID_PRESETS["n4-sampled"]
    preset = sample_adversaries(base.n, base.seed, base.sample_count)
    assert passes.seeded_adversaries(base.seed) == preset
    assert passes.sweep_grid(base.seed) == base
    relabelled = passes.seeded_adversaries(13)
    assert relabelled == passes.seeded_adversaries(13)
    assert relabelled != preset

    def profile(adversaries):
        return sorted((is_fair(a), setcon(a), len(a.live_sets)) for a in adversaries)

    assert profile(relabelled) == profile(preset)
    assert len(passes.certify_adversaries(13)) == passes.CERTIFY_ADVERSARIES


# ----------------------------------------------------------------------
# svc-mixed traffic
# ----------------------------------------------------------------------
def test_svc_kinds_follow_key_counts():
    kinds = passes.svc_kinds({"classify": 127, "solve": 111}, 600)
    assert len(kinds) == 600
    assert kinds.count("classify") == 600 * 127 // 238
    # Spread evenly: every window of 20 requests holds both kinds.
    assert all(len(set(kinds[i:i + 20])) == 2 for i in range(0, 580, 20))


def test_svc_skew_bounds_the_most_popular_key():
    skew = passes.svc_skew(280, 111)
    top = 280 / sum((rank + 1) ** -skew for rank in range(111))
    assert top == pytest.approx(passes.SVC_HOT_REQUESTS)
    keys = {"classify": list(range(127)), "solve": list(range(111))}
    sequence = passes.svc_sequence(5, keys, 600)
    hottest = max(sequence.count(("solve", key)) for key in range(111))
    assert hottest < 3 * passes.SVC_HOT_REQUESTS


def test_svc_sequence_is_seeded():
    keys = {"classify": list(range(127)), "solve": list(range(111))}
    first = passes.svc_sequence(3, keys, 600)
    assert first == passes.svc_sequence(3, keys, 600)
    assert first != passes.svc_sequence(4, keys, 600)


# ----------------------------------------------------------------------
# The layer ledger
# ----------------------------------------------------------------------
def test_ledger_charges_self_time():
    book = ledger.Ledger()
    book.timed("outer", lambda: book.timed("inner", time.sleep, 0.05))
    assert book.seconds["inner"] >= 0.05
    assert book.seconds["outer"] < 0.02
    assert book.covered_seconds() == pytest.approx(
        book.seconds["inner"] + book.seconds["outer"]
    )


def test_ledger_install_wraps_name_imports_and_removes_cleanly():
    import repro.sweep.cells as cells
    from repro.adversaries import fairness
    from repro.tasks.solvability import MapSearch

    originals = (fairness.is_fair, cells.is_fair, MapSearch.__init__)
    book = ledger.Ledger()
    installed = ledger.install(book)
    try:
        assert cells.is_fair is fairness.is_fair is not originals[0]
        assert MapSearch.__init__ is not originals[2]
        from repro.adversaries.adversary import t_resilient

        assert cells.is_fair(t_resilient(3, 1))
        assert book.counts["adversaries.classify_calls"] >= 1
    finally:
        installed.remove()
    assert (fairness.is_fair, cells.is_fair, MapSearch.__init__) == originals


def test_ledger_counts_canonical_bytes_from_the_digest_itself():
    import importlib

    from repro.adversaries.adversary import t_resilient

    ser = importlib.import_module("repro.engine.serialize")
    original = ser.serialize
    value = ("key", t_resilient(3, 1).n, [1, 2, 3])
    book = ledger.Ledger()
    installed = ledger.install(book)
    try:
        ser.digest(value)
    finally:
        installed.remove()
    assert ser.serialize is original
    assert book.counts["engine.digest_calls"] == 1
    assert book.counts["engine.canon_bytes"] == len(original(value))
