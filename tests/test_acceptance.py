"""Full acceptance gate: one test (and one pass/fail line) per criterion.

The suite fixture runs every criterion once at seed 0; each test then
pins the stated tolerance for its criterion against the recorded detail,
so a regression names the exact bound it broke.  The canonical body
hashes are pinned too, so a change that moves any reported number fails
here until it declares the new values.
"""

import hashlib

import pytest

from cwdyn import acceptance

# the canonical bodies at seed 0: a change that moves a number moves these,
# and says which number moved and why
BODY_SHA256 = "aa9ace17f704875bdea1e95783755c5e52d6ef0597daa8b1d5f9153dbfeb6dcc"
BODIES_1_TO_10_SHA256 = "cb57d1325c1a22c29416f4c04bc8a067dded67d07eebebb89d0611947ad0f9fb"


@pytest.fixture(scope="module")
def suite():
    man = acceptance.run_suite("all", seed=0)
    for line in acceptance.format_lines(man):
        print(line)
    return man


def rec(suite, cid):
    return next(r for r in suite["criteria"] if r["criterion"] == cid)


def test_c01_metric_axioms(suite):
    r = rec(suite, 1)
    assert r["passed"]
    for kind in ("cat-map", "sphere-pA"):
        d = r["detail"][kind]
        assert d["n_continua"] == 1000
        assert d["negatives"] == 0
        assert d["zero_faults"] == 0
        assert d["symmetry_faults"] == 0
        assert d["n_unions"] >= 200
        assert d["subadditivity_excess"] <= 1e-9


def test_c02_hyperbolic_decay(suite):
    r = rec(suite, 2)
    assert r["passed"]
    d = r["detail"]
    assert d["n_stable"] == 500 and d["n_unstable"] == 500
    assert d["violations"] == 0
    assert d["max_ratio_to_bound"] <= 1.0


def test_c03_self_similarity(suite):
    r = rec(suite, 3)
    assert r["passed"]
    d = r["detail"]
    assert d["n_checked"] >= 500
    assert d["violations"] == 0
    assert d["max_rel_err"] <= 2e-6
    assert d["stable_scaling_max_rel_err"] <= 1e-9


def test_c04_weight_sandwich(suite):
    r = rec(suite, 4)
    assert r["passed"]
    for kind in ("cat-map", "sphere-pA"):
        d = r["detail"][kind]
        assert d["n"] == 600
        assert d["violations"] == 0
        assert d["max_Dprime"] <= 1.0


def test_c05_tail_exponent_minimality(suite):
    r = rec(suite, 5)
    assert r["passed"]
    d = r["detail"]
    assert d["n"] == 100
    assert d["partial_sum_faults"] == 0
    assert d["minimality_faults"] == 0
    # the chosen exponent is tight: some sum comes within 10% of eps
    assert 0.9 <= d["max_sum_over_eps"] <= 1.0 + 1e-9


def test_c06_periodic_density(suite):
    r = rec(suite, 6)
    assert r["passed"]
    d = r["detail"]
    assert d["n_ok"] >= 95
    assert d["envelope_violations"] == 0
    assert d["oracle_mismatches"] == 0
    assert d["max_residual"] < 1e-9
    assert d["max_distance"] < 1e-2


def test_c07_holonomy_correctness(suite):
    r = rec(suite, 7)
    assert r["passed"]
    d = r["detail"]
    assert d["n_linear"] == 1000
    assert d["max_deviation"] < 1e-10
    assert d["branch_faults"] == 0
    assert d["spine_branches"] == 2
    assert d["spine_branches_verified"]


def test_c08_pseudo_isometry(suite):
    r = rec(suite, 8)
    assert r["passed"]
    d = r["detail"]
    assert d["n_samples"] == 10000
    assert d["n_obstructions"] == 0
    assert d["max_deviation"] <= 1e-6
    assert d["gamma_at_1e-6"] >= 1e-3


def test_c09_chain_recurrence(suite):
    r = rec(suite, 9)
    assert r["passed"]
    d = r["detail"]
    assert len(d["covering"]) == 6
    for row in d["covering"]:
        assert row["n_classes"] == 1
        assert row["verdict"] == "transitive-candidate"
    assert len(d["north_south"]) == 2
    for row in d["north_south"]:
        assert row["n_classes"] == 2
        assert sorted(row["roles"].values()) == ["attractor", "repeller"]
        rep = next(int(k) for k, v in row["roles"].items() if v == "repeller")
        att = next(int(k) for k, v in row["roles"].items() if v == "attractor")
        assert row["order"] == [[rep, att]]


def test_c10_sector_geometry(suite):
    r = rec(suite, 10)
    assert r["passed"]
    d = r["detail"]
    assert d["n_spines"] == 4 and d["n_sectors"] == 4
    assert d["all_regular"]
    assert d["spines_per_sector"] == [1, 1, 1, 1]
    assert all(c > 0 for c in d["enclosing_clearances"])
    assert d["monotone_violations"] == [0, 0, 0, 0]
    assert all(d["injective"])


def test_c11_reproducibility(suite):
    r = rec(suite, 11)
    assert r["passed"]
    d = r["detail"]
    assert d["criteria"] == list(range(1, 11))
    assert d["bodies_match"]
    assert d["body_sha256_first"] == d["body_sha256_second"] == BODIES_1_TO_10_SHA256


def test_manifest_and_lines(suite):
    assert suite["passed"] is True
    assert suite["suite"] == list(range(1, 12))
    body = acceptance.canonical_body(suite["criteria"])
    assert hashlib.sha256(body.encode()).hexdigest() == suite["body_sha256"] == BODY_SHA256
    assert '"seconds":' not in body   # budget_seconds stays, timing goes
    lines = acceptance.format_lines(suite)
    assert len(lines) == 12
    assert all("PASS" in ln for ln in lines[:11])
    assert lines[-1] == "acceptance PASSED: 11/11 criteria passed"
    # every criterion ran inside its time budget
    for r in suite["criteria"]:
        if r["budget_seconds"] is not None:
            assert r["seconds"] <= r["budget_seconds"]


def test_parse_suite():
    assert acceptance.parse_suite("all") == list(range(1, 12))
    assert acceptance.parse_suite(None) == list(range(1, 12))
    assert acceptance.parse_suite("5") == [5]
    assert acceptance.parse_suite("1, 4,11") == [1, 4, 11]
    for bad in ("0", "12", "x", ""):
        with pytest.raises(ValueError):
            acceptance.parse_suite(bad)
