import json
from math import gcd

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cmtwist.cmtypes import validate_cm_type, weil_datum, weil_r
from cmtwist.fields import cyclotomic, quadratic, roots_of_unity_order
from cmtwist.twists import (
    HYP_AUT_VALUED,
    HYP_CENTRAL,
    HYP_DEG_K,
    HYP_HOM_ZERO,
    HYP_N_NOT_DIVIDING_R,
    HYP_R_EVEN,
    HYP_T_ODD,
    HYP_VALUES_IN_K,
    HYP_WEIL_TYPE,
    Hypothesis,
    discond_groups,
    twist_e,
    twist_x,
)
from helpers import example41_type, synthetic_weil_datum


LEADING_X = ("F = F(End(B))", "F != F_Phi(A) or F != F_Phi(B)")
LEADING_E = ("F = F(End(B))", "F(End(A)) != F_Phi(A) or F(End(B)) != F_Phi(B)")
# twist_x's degrees when the report does not conclude
NO_DEGREES = {"exact_m_over_phiB": None, "phiB_over_F_exact": None}


def datum_41():
    return weil_datum(quadratic(-3), [example41_type()])


def datum_42(*elliptic):
    """The Jacobian of y^7 = x(1 - x) over Q(sqrt -7), times the elliptic
    factors of the given types (by default the balancing one)."""
    k = quadratic(-7)
    return weil_datum(k, [validate_cm_type(cyclotomic(7), [1, 2, 3])]
                      + [validate_cm_type(k, [e]) for e in elliptic or (3,)])


def jacobian_alone():
    """The Jacobian of datum_42 without an elliptic factor: dim 3, r = 3."""
    return weil_datum(quadratic(-7), [validate_cm_type(cyclotomic(7), [1, 2, 3])])


def conjugate_jacobians():
    """The Jacobian and its conjugate: dim 6, balanced."""
    k, K = quadratic(-7), cyclotomic(7)
    return weil_datum(k, [validate_cm_type(K, [1, 2, 3]), validate_cm_type(K, [4, 5, 6])])


def odd_r_datum():
    """A single factor over Q(zeta_12): r = 1."""
    k = cyclotomic(12)
    return weil_datum(k, [validate_cm_type(k, [1, 5])])


def lopsided_datum():
    """One half-system of Q(zeta_12) twice: r = 2, not balanced."""
    k = cyclotomic(12)
    psi = validate_cm_type(k, [1, 5])
    return weil_datum(k, [psi, psi])


def refuted(rep, *names):
    """``names`` are exactly the false records of ``rep``, every one checked,
    and every statement rests on one of them."""
    assert [h.name for h in rep.hypotheses if not h.holds] == list(names)
    assert all(h.kind == "checked" for h in rep.hypotheses if not h.holds)
    assert rep.statements == () and not rep.concluded


class TestMakeCharacter:
    """The character checks that open twist_x: n >= 2 and n | w(k), k = D.base."""

    def test_cubic_over_sqrt_minus3(self):
        rep = twist_x(datum_41(), 3)
        assert roots_of_unity_order(datum_41().base) == 6
        assert Hypothesis(HYP_VALUES_IN_K, "checked", True) in rep.hypotheses

    def test_quadratic_always_possible(self):
        # w(k) is even, so order 2 takes values in k^x; it then divides
        # the even r, the one record that fails
        for D in (datum_41(), datum_42(), synthetic_weil_datum(2, 2)[1],
                  synthetic_weil_datum(5, 4)[1]):
            rep = twist_x(D, 2)
            refuted(rep, HYP_N_NOT_DIVIDING_R)
            assert weil_r(D) % 2 == 0
            assert rep.results["conclusions"] == NO_DEGREES

    def test_cubic_impossible_over_sqrt_minus7(self):
        # w(Q(sqrt -7)) = 2, so no cubic values exist (3 does not divide r = 4)
        rep = twist_x(datum_42(), 3)
        refuted(rep, HYP_VALUES_IN_K)
        assert (roots_of_unity_order(datum_42().base), weil_r(datum_42())) == (2, 4)
        assert rep.results["conclusions"] == NO_DEGREES

    def test_order_below_two_rejected(self):
        for n in (1, 0, -3):
            with pytest.raises(ValueError, match="at least 2"):
                twist_x(datum_41(), n)

    def test_order_divides_roots_of_unity(self):
        # n = 2 divides every even r: test_quadratic_always_possible has it
        for n in range(3, 20):
            k, D = synthetic_weil_datum(n, 2)
            assert D.base == k == cyclotomic(2 * n)
            rep = twist_x(D, n)
            assert roots_of_unity_order(k) % n == 0
            assert Hypothesis(HYP_VALUES_IN_K, "checked", True) in rep.hypotheses


def layer_orders(res: dict) -> tuple[int, int]:
    """The orders of the two cyclic layers, read back from "Z/<order>"."""
    return tuple(int(res[k].removeprefix("Z/")) for k in ("gal_phiB_over_F", "gal_M_over_phiB"))


class TestDiscondGroups:
    def test_trivial_intersection(self):
        res = discond_groups(3, 1)
        assert layer_orders(res) == (3, 1)

    def test_split_six(self):
        res = discond_groups(6, 2)
        assert layer_orders(res) == (3, 2)
        assert res["gal_phiB_over_F"] == "Z/3"

    def test_non_divisor_rejected(self):
        with pytest.raises(ValueError):
            discond_groups(5, 2)

    @given(st.integers(1, 400), st.integers(1, 400))
    @settings(max_examples=150, deadline=None)
    def test_orders_multiply_to_n(self, n, d):
        if n % d != 0:
            with pytest.raises(ValueError):
                discond_groups(n, d)
        else:
            a, b = layer_orders(discond_groups(n, d))
            assert a * b == n


class TestTwistX:
    def test_paper_cubic_twist(self):
        rep = twist_x(datum_41(), 3)
        res, deg = rep.results, rep.results["conclusions"]
        assert (weil_r(datum_41()), res["t"]) == (8, 1)
        assert res["mu_bound"] == 1
        assert deg["exact_m_over_phiB"] == 1
        assert deg["phiB_over_F_exact"] == 3
        assert rep.concluded and all(h.holds for h in rep.hypotheses)
        assert rep.statements[:2] == LEADING_X

    def test_exact_two_when_t_two(self):
        # order 6 over the 12th cyclotomic field, r = 2: t = gcd(6, 4) = 2
        k, D = synthetic_weil_datum(6, 2)
        res = twist_x(D, 6).results
        deg = res["conclusions"]
        assert res["t"] == 2
        assert deg["exact_m_over_phiB"] == 2
        assert deg["phiB_over_F_exact"] == 3

    def test_order_ten_fifth_cyclotomic(self):
        k = cyclotomic(5)
        assert roots_of_unity_order(k) == 10
        _, D = synthetic_weil_datum(5, 4)  # same field: cyclotomic(10) = cyclotomic(5)
        assert D.base == k
        res = twist_x(D, 10).results
        assert res["t"] == 2
        assert res["conclusions"]["exact_m_over_phiB"] == 2
        assert res["conclusions"]["phiB_over_F_exact"] == 5

    def test_n_dividing_r_rejected(self):
        rep = twist_x(datum_41(), 2)
        refuted(rep, HYP_N_NOT_DIVIDING_R)
        assert weil_r(datum_41()) == 8
        assert rep.results["conclusions"] == NO_DEGREES

    def test_odd_r_rejected(self):
        rep = twist_x(odd_r_datum(), 4)
        # n_sigma + n_sigma-bar = r for every sigma, so an odd r is never
        # balanced: the Weil record fails with it
        refuted(rep, HYP_R_EVEN, HYP_WEIL_TYPE)
        assert weil_r(odd_r_datum()) == 1
        assert rep.results["conclusions"] == NO_DEGREES

    def test_unbalanced_datum_rejected(self):
        rep = twist_x(lopsided_datum(), 4)
        refuted(rep, HYP_WEIL_TYPE)
        assert rep.results["conclusions"] == NO_DEGREES

    def test_checked_and_assumed_failures_add_up(self):
        # a false flag on top of a failed check is one more false record
        rep = twist_x(datum_42(), 3, aut_valued=False)
        assert [h.name for h in rep.hypotheses if not h.holds] == [HYP_VALUES_IN_K,
                                                                  HYP_AUT_VALUED]
        assert rep.statements == () and rep.results["conclusions"] == NO_DEGREES

    def test_non_central_rejected(self):
        # an assumed flag never raises: it withholds every statement
        rep = twist_x(datum_41(), 3,
                      base_central=False)
        assert Hypothesis(HYP_CENTRAL, "assumed", False) in rep.hypotheses
        assert rep.statements == () and not rep.concluded
        assert rep.results["conclusions"] == NO_DEGREES

    def test_unassumed_phi_base_blocks_degree_conclusions(self):
        rep = twist_x(datum_41(), 3,
                      phi_base_equal=False)
        assert rep.statements == LEADING_X and not rep.concluded
        assert rep.results["conclusions"] == NO_DEGREES

    def test_assumed_flags_echoed(self):
        rep = twist_x(datum_41(), 3,
                      aut_valued=False)
        assert Hypothesis(HYP_AUT_VALUED, "assumed", False) in rep.hypotheses
        assert [h.name for h in rep.hypotheses if not h.holds] == [HYP_AUT_VALUED]

    def test_odd_coprime_order_forces_equality(self):
        # n odd with gcd(n, r) = 1 gives t = 1: pure gcd arithmetic
        for n in range(3, 101, 2):
            for r in range(2, 101, 2):
                if gcd(n, r) == 1:
                    assert gcd(n, 2 * r) == 1
        # spot-check the resulting report at datum level
        k, D = synthetic_weil_datum(9, 4)
        res = twist_x(D, 9).results
        deg = res["conclusions"]
        assert res["t"] == 1 and deg["exact_m_over_phiB"] == 1 and deg["phiB_over_F_exact"] == 9

    def test_deterministic_reports(self):
        rep1 = twist_x(datum_41(), 3)
        rep2 = twist_x(datum_41(), 3)
        assert rep1 == rep2
        assert json.dumps(rep1.results, sort_keys=True) == json.dumps(
            rep2.results, sort_keys=True
        )


class TestTwistE:
    def test_paper_product_twist(self):
        D = datum_42()
        rep = twist_e(3, 1, D, extension_label="L_d")
        assert rep.results == {"t": 3}
        assert rep.concluded and all(h.holds for h in rep.hypotheses)
        assert rep.statements == LEADING_E + ("F_Phi(B) = L_d",)

    def test_even_ratio_rejected(self):
        # the Jacobian alone: dim 3 = 2 + 1, t = 2.  Once [k:Q] = 2 dim(Y),
        # r = t + 1, so an even t is never balanced either
        rep = twist_e(2, 1, jacobian_alone())
        refuted(rep, HYP_T_ODD, HYP_WEIL_TYPE)
        assert rep.results == {"t": 2}

    def test_degree_mismatch_rejected(self):
        # the Jacobian and its conjugate: dim 6 = 3 + 3, balanced, t = 1,
        # but [k:Q] = 2 is not 2 dim(Y) = 6
        rep = twist_e(3, 3, conjugate_jacobians())
        refuted(rep, HYP_DEG_K)
        assert conjugate_jacobians().base.degree == 2 and rep.results == {"t": 1}

    def test_unbalanced_datum_rejected(self):
        # the other elliptic type: n_sigma = (3, 1)
        rep = twist_e(3, 1, datum_42(1))
        refuted(rep, HYP_WEIL_TYPE)
        assert rep.results == {"t": 3}

    def test_synthetic_degree_six_base(self):
        # dim X = 9, dim Y = 3 over a sextic CM field, t = 3
        k = cyclotomic(7)
        psi = validate_cm_type(k, [1, 2, 3])
        psibar = validate_cm_type(k, [4, 5, 6])
        D = weil_datum(k, [psi, psibar, psi, psibar])
        rep = twist_e(9, 3, D)
        assert rep.results == {"t": 3} and D.base.degree == 6
        assert rep.concluded

    def test_dimension_mismatch_rejected(self):
        k = cyclotomic(7)
        psi = validate_cm_type(k, [1, 2, 3])
        psibar = validate_cm_type(k, [4, 5, 6])
        D = weil_datum(k, [psi, psibar])  # dim 6, but X x Y should have dim 12
        with pytest.raises(ValueError, match="dimension"):
            twist_e(9, 3, D)
        # the mismatch is refused before any hypothesis is weighed
        for dim_x, dim_y in ((2, 1), (3, 2)):
            with pytest.raises(ValueError, match="datum dimension 4"):
                twist_e(dim_x, dim_y, datum_42())

    def test_hom_assumption_required(self):
        D = datum_42()
        rep = twist_e(3, 1, D, hom_xy_zero=False)
        assert Hypothesis(HYP_HOM_ZERO, "assumed", False) in rep.hypotheses
        assert rep.statements == () and not rep.concluded

    def test_unassumed_phi_base_blocks_conclusion(self):
        D = datum_42()
        rep = twist_e(3, 1, D, phi_base_equal=False)
        assert rep.statements == LEADING_E and not rep.concluded


# (theorem, checked record) -> arguments under which the record is false
FALSIFIERS = {
    (twist_x, HYP_VALUES_IN_K): lambda: (datum_42(), 3),
    (twist_x, HYP_R_EVEN): lambda: (odd_r_datum(), 4),
    (twist_x, HYP_N_NOT_DIVIDING_R): lambda: (datum_41(), 2),
    (twist_x, HYP_WEIL_TYPE): lambda: (lopsided_datum(), 4),
    (twist_e, HYP_DEG_K): lambda: (3, 3, conjugate_jacobians()),
    (twist_e, HYP_T_ODD): lambda: (2, 1, jacobian_alone()),
    (twist_e, HYP_WEIL_TYPE): lambda: (3, 1, datum_42(1)),
}


def test_every_checked_record_can_fail():
    # a checked record is a predicate, never a fact that holds by construction
    emitted = {(theorem, h.name)
               for theorem, rep in ((twist_x, twist_x(datum_41(), 3)),
                                    (twist_e, twist_e(3, 1, datum_42())))
               for h in rep.hypotheses if h.kind == "checked"}
    assert set(FALSIFIERS) == emitted
    for (theorem, name), args in FALSIFIERS.items():
        assert Hypothesis(name, "checked", False) in theorem(*args()).hypotheses, name


class TestReportInvariants:
    def test_divisor_chain_sweep(self):
        # arithmetic consistency across a broad (n, r) box
        for n in range(2, 26):
            for r in range(2, 26, 2):
                if r % n == 0:
                    continue
                _, D = synthetic_weil_datum(n, r)
                rep = twist_x(D, n)
                res = rep.results
                t, mu, deg = res["t"], res["mu_bound"], res["conclusions"]
                exact = deg["exact_m_over_phiB"]
                assert t == gcd(n, 2 * r)
                assert n % t == 0 and (2 * r) % t == 0
                assert t % mu == 0
                if exact is not None:
                    assert mu % exact == 0
                    assert exact * deg["phiB_over_F_exact"] == n
                # F_Phi(B) = M is stated exactly when the report concludes with mu = 1
                assert (exact == 1) is (rep.concluded and mu == 1)

    def test_character_existence_makes_mu_bound_t(self):
        # t | n | w(k) collapses the refinement onto t itself
        for n in range(2, 26):
            _, D = synthetic_weil_datum(n, 4)
            if 4 % n == 0:
                continue
            res = twist_x(D, n).results
            assert res["mu_bound"] == res["t"]
