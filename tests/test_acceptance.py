"""The acceptance gate: one test per criterion, each printing its
pass/fail line.  Criterion 1 is split per exponent n and gates on the exact
exponent floor((n+1)/2) certified from the enumerated counts; the fitted
log-log slope is printed beside it for information only (for n=5 it stalls
near 2.65 at N <= 8, where sub-dominant terms still rival the dominant
8N^3 term; see README, "Acceptance suite").
"""

import pytest

from psgrowth import acceptance


@pytest.fixture(scope="module")
def criterion_1_result():
    return acceptance.criterion_1()


def _report(res):
    print()
    print(res.line())
    for key, val in res.details.items():
        if key not in ("instances", "per_n"):
            print(f"  {key}: {val}")
    return res


def test_acceptance_1_counts_frozen(criterion_1_result):
    res = _report(criterion_1_result)
    rows = res.details["per_n"]
    # exact counts, frozen from the independent letter-reduction oracle
    assert rows[1]["counts"] == {4: 10, 8: 18, 16: 34, 32: 66}
    assert rows[3]["counts"] == {4: 148, 8: 420, 16: 1348, 32: 4740}
    assert rows[5]["counts"] == {2: 546, 4: 2142, 8: 10038}
    assert res.elapsed < 60


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
def test_acceptance_1_slope_band(criterion_1_result, n):
    row = criterion_1_result.details["per_n"][n]
    band = "within" if row["within_band"] else "outside"
    print(
        f"\nACCEPTANCE 1 (n={n}): certified exponent {row['certified_exponent']} "
        f"target {row['target']}, leading coefficient {row['leading_coefficient']}; "
        f"fitted slope {row['slope']} ({band} {row['target']} +- 0.25, not gated)"
    )
    assert row["certified_exponent"] == row["target"] == (n + 1) // 2, (
        f"interpolation from N = {row['interpolation_nodes']}: degree {row['degree']}, "
        f"held-out mismatches at N = {row['mismatches']}"
    )


def test_exponent_certificate_accepts_and_rejects():
    cert = acceptance._exponent_certificate
    quad = {N: 3 * N * N + 2 * N + 1 for N in range(1, 7)}
    ok = cert(quad, 2)
    assert ok["certified_exponent"] == 2
    assert ok["degree"] == 2 and ok["leading_coefficient"] == "3"
    assert ok["interpolation_nodes"] == [1, 2, 3] and ok["held_out"] == [4, 5, 6]
    # a single wrong held-out count
    bad = cert({**quad, 5: quad[5] + 1}, 2)
    assert bad["certified_exponent"] is None and bad["mismatches"] == [5]
    # degree above the target: the held-out counts expose it
    cubic = cert({N: N**3 for N in range(1, 7)}, 2)
    assert cubic["certified_exponent"] is None and cubic["mismatches"] == [4, 5, 6]
    # degree below the target: exact fit, but the leading term vanishes
    linear = cert({N: 5 * N + 1 for N in range(1, 7)}, 2)
    assert linear["certified_exponent"] is None and not linear["mismatches"]
    assert linear["degree"] == 1 and linear["leading_coefficient"] == "5"
    # fewer than two held-out points, and a negative leading coefficient
    assert cert({N: quad[N] for N in range(1, 5)}, 2)["certified_exponent"] is None
    assert cert({N: 100 - N * N for N in range(1, 7)}, 2)["certified_exponent"] is None


def test_acceptance_2():
    res = _report(acceptance.criterion_2())
    assert res.passed


def test_acceptance_3():
    res = _report(acceptance.criterion_3())
    assert res.passed


def test_acceptance_4():
    res = _report(acceptance.criterion_4())
    assert res.passed


def test_acceptance_5():
    res = _report(acceptance.criterion_5())
    assert res.passed


def test_acceptance_6():
    res = _report(acceptance.criterion_6())
    assert res.passed


def test_acceptance_7():
    res = _report(acceptance.criterion_7())
    assert res.passed
    # the oracle words are every nonidentity word of length <= 6 in F_2
    assert res.details == {
        "checks": {"metric": 150, "four_point": 150, "conjugation": 80, "powers": 80,
                   "oracle": 1456},
        "oracle_words": 1456,
    }


def test_acceptance_8():
    res = _report(acceptance.criterion_8())
    assert res.passed


def test_acceptance_9():
    res = _report(acceptance.criterion_9())
    assert res.passed
