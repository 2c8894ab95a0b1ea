"""Seeded experiment reports: content, determinism, serialization."""

import csv
import io
import multiprocessing
import os
import random
import time
from dataclasses import replace
from fractions import Fraction

import pytest

from mmdist import (
    ExperimentReport,
    normalize,
    pl_cut_points,
    random_excursion,
    run_continuity_check,
    run_counterexample,
    run_lipschitz_check,
    run_theorem_check,
    sup_diff,
)
from mmdist import SizeError, ValidationError, coding, excursions, gluing, harness, spaces

F = Fraction


def test_theorem_check_small_run():
    r = run_theorem_check(seed=1, count=6, n_max=3)
    assert r.passed
    assert r.totals["failures"] == 0
    assert r.totals["instances"] == 7  # pinned pair plus six sampled ones
    first = r.to_obj()["instances"][0]
    assert first["id"] == "pinned-000"
    assert first["gp"]["rational"] == "1/4"
    assert first["checks"]["pinned_quarter"] is True
    assert r.to_obj()["summary"]["equal_pairs"] == 7
    assert r.to_obj()["summary"]["max_glue_gap"]["rational"] == "0"


def test_lipschitz_check_small_run():
    r = run_lipschitz_check(seed=2, count=6)
    assert r.passed
    summary = r.to_obj()["summary"]
    assert F(summary["max_ratio"]["rational"]) <= 2
    for inst in r.to_obj()["instances"]:
        assert F(inst["gp_upper"]["rational"]) <= F(inst["bound"]["rational"])


def test_counterexample_small_run():
    r = run_counterexample(n_list=(2, 3, 4))
    assert r.passed
    obj = r.to_obj()
    ids = [inst["id"] for inst in obj["instances"]]
    assert "pair-2-3" in ids and "limits-2" in ids and "table-assertions" in ids
    by_id = {inst["id"]: inst for inst in obj["instances"]}
    # gp between the coded stars with n <= m leaves is 1 - n/m.
    assert by_id["pair-2-3"]["gp_coded"]["rational"] == "1/3"
    assert by_id["pair-2-4"]["gp_coded"]["rational"] == "1/2"
    assert by_id["pair-3-4"]["gp_coded"]["rational"] == "1/4"
    assert by_id["pair-2-3"]["d_lambda"]["rational"] == "0"
    assert obj["summary"]["min_positive_gp"]["rational"] == "1/4"


@pytest.mark.parametrize(
    "n_list",
    [(2.5, 3, True), (2, 3, True), (2, F(5, 2)), (), (float("nan"), 2), (2, float("inf")), ("3", 2)],
    ids=str,
)
def test_tooth_counts_must_be_positive_integers(n_list):
    # int() would read 2.5 as 2 and True as 1
    with pytest.raises(ValidationError, match="^tooth counts must be positive integers$"):
        run_counterexample(n_list=n_list)


def test_a_tooth_count_past_the_coding_cap_is_refused_before_any_comb(monkeypatch):
    def comb(n):
        raise AssertionError(f"comb({n}) was built")

    monkeypatch.setattr(harness, "comb", comb)
    cap = coding.MAX_CODING_SEGMENTS
    # comb(n) codes to n segments; the smallest count past the cap is named
    with pytest.raises(SizeError, match=f"^{cap + 1} segments exceeds the coding cap {cap}$"):
        run_counterexample(n_list=(10**8, 2, cap + 1))


def test_continuity_small_run():
    r = run_continuity_check(seed=0, schedule=3)
    assert r.passed
    obj = r.to_obj()
    ids = [inst["id"] for inst in obj["instances"]]
    assert ids[0] == "value-00" and "breakpoint-00" in ids
    assert obj["summary"]["envelopes_halve"] is True
    values = [inst for inst in obj["instances"] if inst["mode"] == "value"]
    envs = [F(inst["envelope"]["rational"]) for inst in values]
    assert envs[0] == 0  # the k = 0 step is the null perturbation
    assert all(e1 == 2 * e2 for e1, e2 in zip(envs[1:], envs[2:]))
    for inst in values[1:]:
        assert F(inst["gp_upper"]["rational"]) <= F(inst["envelope"]["rational"])


def test_reports_are_deterministic():
    a = run_theorem_check(seed=5, count=4, n_max=3)
    b = run_theorem_check(seed=5, count=4, n_max=3)
    assert a.to_json() == b.to_json()
    assert a.to_csv() == b.to_csv()


def test_thread_count_never_reaches_the_report():
    lowered = run_theorem_check(seed=5, count=4, n_max=3).to_json().lower()
    assert "thread" not in lowered
    assert "time" not in lowered


def test_entries_carry_rational_and_twelve_digit_decimal():
    r = run_lipschitz_check(seed=3, count=3)
    gp = r.to_obj()["instances"][0]["gp"]
    assert set(gp) == {"rational", "decimal"}
    whole, frac = gp["decimal"].split(".")
    assert len(frac) == 12


def test_csv_round_trips_through_the_csv_module():
    r = run_counterexample(n_list=(2, 3))
    rows = list(csv.DictReader(io.StringIO(r.to_csv())))
    assert len(rows) == r.totals["instances"]
    pair = next(row for row in rows if row["id"] == "pair-2-3")
    assert pair["gp_coded.rational"] == "1/3"
    assert all(row.get("checks.epigraph_gap_half_spacing", "") in ("", "True")
               for row in rows)


def test_totals_count_checks_and_failures():
    r = run_continuity_check(seed=0, schedule=2)
    obj = r.to_obj()
    checks = sum(len(inst["checks"]) for inst in obj["instances"])
    assert obj["totals"]["checks"] == checks
    assert obj["totals"]["failures"] == 0
    assert obj["totals"]["instances"] == len(obj["instances"])


def test_failing_check_flips_passed():
    report = ExperimentReport(
        experiment="probe",
        seed=0,
        params={},
        instances=({"id": "only", "checks": {"ok": False}},),
        summary={},
        totals={"checks": 1, "failures": 1, "instances": 1, "passed": False},
    )
    assert not report.passed
    assert '"passed": false' in report.to_json()


def test_theorem_check_compares_the_glue_only_where_gp_is_exact(monkeypatch):
    # where gp is inexact there is no exact value to compare the glue of its
    # witness with: the check fails, the instance reports no glue, the run
    # goes on
    real = harness._glued_ladder
    calls = []

    def inexact_past_the_pinned_pair(a, b, lams, budget):
        calls.append(lams)
        boxes, glue = real(a, b, lams, budget)
        if len(calls) == 1:
            return boxes, glue
        return tuple(replace(box, exact=False) for box in boxes), replace(glue, exact=False)

    monkeypatch.setattr(harness, "_glued_ladder", inexact_past_the_pinned_pair)
    # a run of fewer than 2 * harness.SHARE instances does not fork, so every
    # call is made, and counted, in this process
    obj = run_theorem_check(seed=1, count=2).to_obj()
    # one ladder per instance, the glue riding on it
    assert calls == [harness.LAMBDA_LADDER] * 3
    pinned, *rest = obj["instances"]
    assert pinned["checks"]["glue_equals_gp"] and "glue" in pinned
    for inst in rest:
        assert inst["checks"]["glue_equals_gp"] is False and "glue" not in inst
    # exact_search and glue_equals_gp fail on both sampled pairs
    assert obj["totals"]["failures"] == 2 * len(rest) == 4
    assert obj["summary"]["equal_pairs"] == 1


def test_theorem_check_validates_each_space_once(monkeypatch):
    # sampled spaces come out marked canonical, so the ladder and the glue
    # take them as they are
    validated = []
    real = spaces.require_valid
    for module in (spaces, gluing):
        monkeypatch.setattr(module, "require_valid", lambda sp: validated.append(sp) or real(sp))
    # too few instances to fork: every check is counted in this process
    report = run_theorem_check(seed=5, count=6, n_max=4)
    assert report.passed
    assert len(validated) <= 2 * report.totals["instances"]


def test_excursion_experiments_check_each_excursion_once(monkeypatch):
    # pl_excursion checks what it builds and normalize checks it once more;
    # every distance, code and certificate then reads the normalized pair
    checked = []
    real = excursions.validate_excursion
    monkeypatch.setattr(excursions, "validate_excursion", lambda h: checked.append(h) or real(h))
    # too few instances to fork: every check is counted in this process
    report = run_lipschitz_check(seed=4, count=10)
    assert report.passed
    assert len(checked) == 4 * report.totals["instances"]
    checked.clear()
    report = run_continuity_check()
    assert report.passed
    assert len(checked) == 2 * report.totals["instances"] + 4


def test_save_writes_deterministic_files(tmp_path):
    r = run_lipschitz_check(seed=4, count=3)
    out = tmp_path / "report.json"
    out_csv = tmp_path / "report.csv"
    r.save(out)
    r.save_csv(out_csv)
    first = out.read_text()
    assert first.endswith("\n")
    r.save(out)
    assert out.read_text() == first
    assert out_csv.read_text() == r.to_csv()


def test_shared_cut_codes_are_aligned_on_any_pl_pair():
    # the union cut set holds every breakpoint and level crossing of both
    # excursions, so neither code adds a cut to it
    rng = random.Random(5)
    for _ in range(60):
        h, g = (normalize(random_excursion(rng, kind="pl", max_pieces=4)) for _ in "hg")
        cuts = tuple(sorted(set(pl_cut_points(h)) | set(pl_cut_points(g))))
        assert pl_cut_points(h, cuts) == pl_cut_points(g, cuts) == cuts
        checks, codes, pairs, ub = harness._diagonal_certificate(h, g)
        assert checks == {"codes_aligned": True, "mass_full": True}
        assert len(codes[0].projection) == len(codes[1].projection) == len(cuts) - 1
        assert pairs == tuple(sorted(set(zip(codes[0].projection, codes[1].projection))))
        assert ub <= 2 * sup_diff(h, g)


def test_continuity_modes_keep_their_own_keys_and_checks():
    shared_keys = {"id", "mode", "step", "envelope", "gp_upper", "dexc_hi", "checks"}
    shared_checks = {"codes_aligned", "mass_full"}
    for inst in run_continuity_check(schedule=2).to_obj()["instances"]:
        if inst["mode"] == "value":
            assert set(inst) == shared_keys | {"sup_diff"}
            own = {"gp_below_envelope", "sup_is_scaled_peak", "dexc_le_twice_sup"}
        else:
            assert set(inst) == shared_keys | {"max_shift"}
            gp = "null_perturbation_zero" if inst["step"] == 0 else "gp_below_envelope"
            own = {gp, "dexc_le_slope_bound"}
        assert set(inst["checks"]) == shared_checks | own


# ---------------------------------------------------------------------------
# the seeded-count experiments in forked shares


def test_forked_reports_equal_the_sequential_ones(monkeypatch):
    # with more than one usable CPU both runs fork at the default SHARE
    for run in (
        lambda: run_theorem_check(seed=5, count=200),
        lambda: run_lipschitz_check(seed=4, count=150),
    ):
        forked = run()
        assert multiprocessing.active_children() == []
        monkeypatch.setattr(harness, "SHARE", 10**9)
        sequential = run()
        monkeypatch.undo()
        assert (forked.to_json(), forked.to_csv()) == (sequential.to_json(), sequential.to_csv())


def test_each_share_is_one_contiguous_run_of_indices():
    n = 4 * harness.SHARE + 3
    workers = harness._worker_count(n)
    assert 1 <= workers <= len(os.sched_getaffinity(0))
    results = harness._ordered_map(lambda i: (i, os.getpid()), n)
    assert [i for i, _ in results] == list(range(n))
    pids = [pid for _, pid in results]
    runs = [pid for k, pid in enumerate(pids) if k == 0 or pid != pids[k - 1]]
    # this process takes the first share, a child each other one
    assert runs[0] == os.getpid() and len(set(runs)) == len(runs) == workers
    assert multiprocessing.active_children() == []
    assert harness._worker_count(2 * harness.SHARE - 1) == 1


def failing_at(*bad):
    def fn(i):
        if i in bad:
            raise ValidationError(f"index {i} is bad", [f"violation {i}"])
        return i

    return fn


@pytest.mark.parametrize(
    "bad",
    [(1, 70, 120), (70, 120), (127,)],
    ids=["here-and-in-a-child", "twice-in-a-child", "at-the-last-index"],
)
def test_a_share_raises_the_sequential_first_error(monkeypatch, bad):
    # 128 indices make one share per usable CPU, up to 4: [0, 64) here and
    # [64, 128) in a child on a 2-CPU host
    n = 4 * harness.SHARE
    with pytest.raises(ValidationError) as forked:
        harness._ordered_map(failing_at(*bad), n)
    assert multiprocessing.active_children() == []
    monkeypatch.setattr(harness, "SHARE", 10**9)
    with pytest.raises(ValidationError) as sequential:
        harness._ordered_map(failing_at(*bad), n)
    assert str(forked.value) == str(sequential.value) == f"index {bad[0]} is bad"
    assert forked.value.violations == sequential.value.violations == [f"violation {bad[0]}"]


def test_an_interrupt_ends_every_running_child():
    def fn(i):
        if i == harness.SHARE:  # in the first child's share
            time.sleep(60)
        if i == 1:
            raise KeyboardInterrupt
        return i

    start = time.perf_counter()
    with pytest.raises(KeyboardInterrupt):
        harness._ordered_map(fn, 2 * harness.SHARE)
    assert time.perf_counter() - start < 30
    assert multiprocessing.active_children() == []


def test_a_failed_fork_raises_and_leaves_no_child(monkeypatch):
    def fail(proc):
        raise OSError(11, "Resource temporarily unavailable")

    monkeypatch.setattr(multiprocessing.context.ForkProcess, "start", fail)
    if harness._worker_count(8 * harness.SHARE) > 1:
        with pytest.raises(OSError):
            harness._ordered_map(lambda i: i, 8 * harness.SHARE)
    assert multiprocessing.active_children() == []
