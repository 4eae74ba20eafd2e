import re
from fractions import Fraction
from pathlib import Path

import pytest

import nlcx.bounds as B
from nlcx.complexity import linear_profile, profile
from nlcx.finite_field import field_of_order
from nlcx.generators import inversive_finite
from nlcx.hermitian import hermitian_sequence


def test_bound_inversive_values():
    assert B.bound_inversive(16, 7) == Fraction(15, 8)
    assert B.bound_inversive(3, 1) == 1
    assert B.bound_inversive(1, 1) == 0
    assert B.bound_inversive(12, 2) == Fraction(11, 3)


def test_bound_periodic_values():
    assert B.bound_periodic(10, 2, 7) == Fraction(3)
    assert B.bound_periodic(6, 1, 3) == Fraction(2)  # min(5/2, 2)
    assert B.bound_periodic(4, 1, 7) == Fraction(3, 2)
    assert B.bound_periodic(100, 3, 4) == Fraction(1)  # (d-1)/k caps it


def test_bound_hermitian_values():
    # ell=3, q=9: n=16 gives r=2
    assert B.bound_hermitian_N(16, 1, 3) == Fraction(15, 8)
    assert B.bound_hermitian_L(16, 1, 3) == Fraction(10, 3)
    # below one full block the per-variable bound is vacuous
    assert B.bound_hermitian_N(7, 1, 3) == 0
    assert B.bound_hermitian_N(8, 1, 3) == Fraction(7, 7)
    # the total-degree bound may go negative; it is reported as-is
    assert B.bound_hermitian_L(8, 2, 3) == Fraction(-1)
    assert B.bound_hermitian_N(3, 1, 2) == Fraction(2, 3)
    assert B.bound_hermitian_L(3, 1, 2) == Fraction(1, 2)


def test_bound_argument_validation():
    with pytest.raises(ValueError):
        B.bound_inversive(0, 1)
    with pytest.raises(ValueError):
        B.bound_inversive(5, 0)
    with pytest.raises(ValueError):
        B.bound_periodic(5, 1, 0)
    with pytest.raises(ValueError):
        B.bound_hermitian_N(100, 1, 3)  # n beyond (q-1)(ell-1)
    with pytest.raises(ValueError):
        B.bound_hermitian_N(1, 1, 6)  # ell not a prime power


def test_hermitian_bound_size_checked_before_factoring(monkeypatch):
    from test_finite_field import forbid_factoring_above_max
    forbid_factoring_above_max(monkeypatch)
    for bound in (B.bound_hermitian_N, B.bound_hermitian_L):
        # l**2 past the field limit is refused before ell is factored
        for ell in (257, 10 ** 14 + 31, 10 ** 16 + 61):
            with pytest.raises(ValueError, match="exceeds the supported maximum 65536"):
                bound(1, 1, ell)
        # up to l = 256 the messages are as before
        for ell in (-3, 0, 1, 6, 255):
            with pytest.raises(ValueError, match="l must be a prime power >= 2"):
                bound(1, 1, ell)
        assert bound(255 * 65535, 1, 256) > 0


def test_admissible_periods():
    assert B.admissible_periods(7) == [1, 2, 3]
    assert B.admissible_periods(9) == [1, 2, 4]
    assert B.admissible_periods(13) == [1, 2, 3, 4, 6]
    assert B.admissible_periods(4) == [1]


@pytest.mark.parametrize("q", [5, 7, 8, 9])
def test_verify_inversive_all_pass(q):
    checks = B.verify("inversive", q=q, k_values=(1, 2))
    assert checks
    assert B.all_passed(checks)
    # the sweep covers every prefix and both caps plus the linear row
    kinds = {c.theorem for c in checks}
    assert kinds == {"inversive-nk", "inversive-lk", "inversive-lin"}
    ns = {c.n for c in checks}
    assert ns == set(range(1, q - 1))


@pytest.mark.parametrize("q", [7, 9])
def test_verify_periodic_all_pass(q):
    checks = B.verify("periodic", q=q, k_values=(1, 2))
    assert B.all_passed(checks)
    ds = {c.d for c in checks}
    assert ds == set(B.admissible_periods(q))
    assert {c.theorem for c in checks} == {"periodic-nk", "periodic-lk"}


def test_verify_periodic_single_d():
    checks = B.verify("periodic", q=13, d=6, k_values=(1,), periods=2)
    assert B.all_passed(checks)
    assert {c.d for c in checks} == {6}
    assert max(c.n for c in checks) == 12


def test_verify_hermitian_all_pass():
    checks = B.verify("hermitian", ell=2, k_values=(1, 2))
    assert B.all_passed(checks)
    assert {c.theorem for c in checks} == {"hermitian-nk", "hermitian-lk"}
    assert {c.ell for c in checks} == {2}
    assert max(c.n for c in checks) == 3


def test_verify_hermitian_negative_bounds_trivially_pass():
    checks = B.verify("hermitian", ell=3, k_values=(2,), kinds=("lk",))
    neg = [c for c in checks if c.bound < 0]
    assert neg, "the sweep is expected to contain negative bounds"
    assert all(c.passed for c in neg)


def test_verify_n_max_truncates():
    checks = B.verify("inversive", q=13, k_values=(1,), kinds=("nk",), n_max=5)
    assert max(c.n for c in checks) == 5


def test_verify_rejects_bad_input():
    with pytest.raises(ValueError):
        B.verify("mystery", q=7)
    with pytest.raises(ValueError):
        B.verify("inversive")  # q is required
    with pytest.raises(ValueError):
        B.verify("hermitian", q=9)  # ell is required
    with pytest.raises(ValueError):
        B.verify("inversive", q=7, kinds=("bogus",))
    # a kind other than lin with no degree cap would check nothing
    with pytest.raises(ValueError, match="no degree cap"):
        B.verify("hermitian", ell=2, k_values=())
    with pytest.raises(ValueError, match="no degree cap for kind 'nk'"):
        B.verify("inversive", q=7, k_values=(), kinds=("lin", "nk"))
    assert B.verify("inversive", q=7, k_values=(), kinds=("lin",))


def test_summarize():
    checks = B.verify("inversive", q=5, k_values=(1,))
    s = B.summarize(checks)
    assert s["total"] == len(checks)
    assert s["passed"] == len(checks)
    assert s["failed"] == 0
    assert s["all_passed"] is True


def test_readme_catalog_matches_verify_table():
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    section = readme.split("## Bound catalog", 1)[1].split("\n## ", 1)[0]
    documented = set(re.findall(r"^\| `([a-z]+-[a-z]+)` \|", section, re.M))
    table = {f"{name}-{kind}" for name, entry in B._CATALOG.items()
             for kind in entry.bounds}
    assert documented == table
    assert len(table) == 7


def test_inversive_bounds_attained():
    # a measured fact, not a claim of the paper: at these q the inversive
    # nk and lk profiles sit on ceil((n - 1) / (k + 1)) at every n >= 2, and
    # the linear profile is the perfect ceil(n / 2)
    for q in (29, 31):
        s = inversive_finite(field_of_order(q))
        for k in (1, 2, 3):
            for kind in ("nk", "lk"):
                prof = profile(s, k, kind)
                assert all(prof[n - 1] == -(-(n - 1) // (k + 1))
                           for n in range(2, len(s) + 1)), (q, k, kind)
        assert linear_profile(s) == [-(-n // 2) for n in range(1, len(s) + 1)]


def test_affine_between_lin_minus_one_and_lin():
    # criterion 9's chain lin - 1 <= lk_1 <= lin, at every prefix of
    # sequences longer than the random ones it covers
    for s in (inversive_finite(field_of_order(29)), inversive_finite(field_of_order(49)),
              hermitian_sequence(4), hermitian_sequence(5)):
        pairs = list(zip(linear_profile(s), profile(s, 1, "lk")))
        assert len(pairs) == len(s)
        assert all(lin - 1 <= lk <= lin for lin, lk in pairs)
