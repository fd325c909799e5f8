"""Rearrangement profiles, space descriptors, norms, and their combination."""

import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gnsparse.errors import AdmissibilityError, ModularRangeError, YoungBracketError
from gnsparse.norms import (
    cl_factorization_check,
    lebesgue_norm,
    lorentz_norm,
    luxemburg_norm,
    modular,
    norm_tolerance,
    space_norm,
)
from gnsparse import spaces as spaces_module
from gnsparse.rearrangement import RearrangementProfile, equimeasurable
from gnsparse.spaces import (
    INF,
    SpaceDescriptor,
    YoungFunction,
    cl_combine,
    harmonic_combine,
    parse_index,
    young_equal,
)
from gnsparse.testfunctions import TestFunctionSpec, make_test_function
from gnsparse.grid import Grid1D


def step_function():
    # f = 2 on [0,1], 1 on [1,3], 0 on [3,4]; grid [0,4] in 1024 cells
    # makes every breakpoint a cell boundary, so measures are exact
    vals = np.zeros(1024)
    vals[:256] = 2.0
    vals[256:768] = 1.0
    return vals, 1.0 / 256.0


def indicator(measure_cells=256, total_cells=1024):
    vals = np.zeros(total_cells)
    vals[:measure_cells] = 1.0
    return vals, 1.0 / 256.0


class TestRearrangement:
    def test_step_profile(self):
        vals, mu = step_function()
        prof = RearrangementProfile(vals, mu)
        assert prof.support_measure == pytest.approx(3.0, abs=1e-12)
        assert prof.total_integral == pytest.approx(4.0, abs=1e-12)
        assert list(prof.heights) == [2.0, 1.0]
        assert list(prof.widths) == pytest.approx([1.0, 2.0], abs=1e-12)

    def test_star_values(self):
        vals, mu = step_function()
        prof = RearrangementProfile(vals, mu)
        assert prof.star(0.0) == 2.0
        assert prof.star(0.5) == 2.0
        assert prof.star(1.0) == 1.0  # right continuous at the break
        assert prof.star(2.9) == 1.0
        assert prof.star(3.0) == 0.0
        assert prof.star(7.0) == 0.0

    def test_double_star_values(self):
        vals, mu = step_function()
        prof = RearrangementProfile(vals, mu)
        assert prof.double_star(0.5) == pytest.approx(2.0)
        assert prof.double_star(2.0) == pytest.approx(1.5)  # (2 + 1)/2
        assert prof.double_star(4.0) == pytest.approx(1.0)  # ||f||_1 / t
        assert prof.double_star(8.0) == pytest.approx(0.5)
        with pytest.raises(ValueError):
            prof.double_star(0.0)

    def test_distribution_values(self):
        vals, mu = step_function()
        prof = RearrangementProfile(vals, mu)
        assert prof.distribution(0.0) == pytest.approx(3.0)
        assert prof.distribution(0.5) == pytest.approx(3.0)
        assert prof.distribution(1.0) == pytest.approx(1.0)
        assert prof.distribution(1.5) == pytest.approx(1.0)
        assert prof.distribution(2.0) == 0.0

    def test_gaussian_star_matches_closed_form(self):
        # for f = exp(-x^2), {f > s} has measure 2 sqrt(-ln s), so
        # f*(t) = exp(-t^2/4)
        spec = TestFunctionSpec(family="gaussian", center=0.0, width=1.0, amplitude=1.0, window=(-6.0, 6.0))
        u = make_test_function(spec, Grid1D(-6.0, 6.0, 1024))
        prof = RearrangementProfile(u.center_values(0), u.grid.h)
        for t in (0.5, 1.0, 2.0, 3.0):
            assert prof.star(t) == pytest.approx(math.exp(-t * t / 4.0), abs=2e-2)

    def test_equimeasurable_under_shuffle(self):
        vals, mu = step_function()
        shuffled = np.random.default_rng(0).permutation(vals)
        assert equimeasurable(vals, mu, shuffled, mu)
        assert not equimeasurable(vals, mu, 2.0 * vals, mu)

    def test_norms_are_rearrangement_invariant(self):
        vals, mu = step_function()
        shuffled = np.random.default_rng(1).permutation(vals)
        for text in ("L:1", "L:2", "L:4", "L:inf", "Lor:2,2", "Orl:exp"):
            space = SpaceDescriptor.parse(text)
            assert space_norm(space, vals, mu) == pytest.approx(
                space_norm(space, shuffled, mu), rel=1e-12
            )


class TestDescriptors:
    @pytest.mark.parametrize(
        "text", ["L:2", "L:inf", "L:3/2", "Lor:2,2", "Lor:3/2,1", "Lor:2,inf", "Orl:pow:2", "Orl:powlog:2,1", "Orl:exp"]
    )
    def test_round_trip(self, text):
        assert SpaceDescriptor.parse(text).format() == text

    def test_lorentz_edge_cases_collapse_to_lebesgue(self):
        assert SpaceDescriptor.parse("Lor:1,1") == SpaceDescriptor.parse("L:1")
        assert SpaceDescriptor.parse("Lor:inf,inf") == SpaceDescriptor.parse("L:inf")

    @pytest.mark.parametrize(
        "text",
        ["L:1/2", "L:0", "Lor:1,2", "Lor:inf,2", "Lor:2", "Orl:pow:inf", "Orl:none", "X:2", "Orl:powlog:1,-1"],
    )
    def test_inadmissible_rejected(self, text):
        with pytest.raises(AdmissibilityError):
            SpaceDescriptor.parse(text)

    def test_index_parsing_is_exact(self):
        assert parse_index("3/2") == Fraction(3, 2)
        assert parse_index("inf") == INF

    def test_equality_and_hash(self):
        a = SpaceDescriptor.parse("Lor:2,2")
        assert a == SpaceDescriptor.parse("Lor:2,2")
        assert a != SpaceDescriptor.parse("Lor:2,3")
        assert a != SpaceDescriptor.parse("L:2")
        assert hash(SpaceDescriptor.parse("L:2")) == hash(SpaceDescriptor.parse("L:2"))
        assert SpaceDescriptor.parse("Orl:pow:2") == SpaceDescriptor.parse("Orl:pow:2")


class TestCombination:
    def test_lebesgue_harmonic(self):
        z = cl_combine(SpaceDescriptor.parse("L:1"), SpaceDescriptor.parse("L:3"), Fraction(1, 2))
        assert z.format() == "L:3/2"

    def test_infinite_index_means_reciprocal_zero(self):
        z = cl_combine(SpaceDescriptor.parse("L:inf"), SpaceDescriptor.parse("L:2"), Fraction(1, 2))
        assert z.format() == "L:4"
        assert harmonic_combine(INF, INF, Fraction(1, 3)) == INF

    def test_lorentz_both_indices_harmonic(self):
        z = cl_combine(SpaceDescriptor.parse("Lor:2,2"), SpaceDescriptor.parse("Lor:4,4"), Fraction(1, 2))
        assert z.format() == "Lor:8/3,8/3"

    def test_orlicz_power_fast_path(self):
        z = cl_combine(SpaceDescriptor.parse("Orl:pow:1"), SpaceDescriptor.parse("Orl:pow:3"), Fraction(1, 2))
        assert z.format() == "Orl:pow:3/2"

    def test_orlicz_generic_inverse_product(self):
        a = YoungFunction("pow", (Fraction(1),))
        b = YoungFunction("pow", (Fraction(3),))
        gen = YoungFunction("combined", factors=(a, b), theta=Fraction(1, 2))
        assert young_equal(gen, YoungFunction("pow", (Fraction(3, 2),)))

    def test_mixed_kind_combination_rejected(self):
        with pytest.raises(AdmissibilityError):
            cl_combine(SpaceDescriptor.parse("L:2"), SpaceDescriptor.parse("Lor:2,2"), Fraction(1, 2))

    def test_endpoint_weights_return_a_factor(self):
        x = SpaceDescriptor.parse("Orl:exp")
        y = SpaceDescriptor.parse("Orl:pow:2")
        assert cl_combine(x, y, Fraction(1)) == x
        assert cl_combine(x, y, Fraction(0)) == y

    def test_equal_young_functions_give_x(self, monkeypatch):
        # X^theta X^(1-theta) = X, decided on describe() strings, so no
        # combined Young function is built
        x = SpaceDescriptor.parse("Orl:powlog:1,1")
        y = SpaceDescriptor.parse("Orl:powlog:1,1")

        def no_build(*args, **kwargs):
            raise AssertionError("cl_combine built a Young function")

        monkeypatch.setattr(spaces_module, "YoungFunction", no_build)
        for theta in (Fraction(1, 2), Fraction(1, 3)):
            z = cl_combine(x, y, theta)
            assert z is x
            assert z.format() == "Orl:powlog:1,1"

    def test_idempotence(self):
        for text in ("L:2", "Lor:2,3", "Orl:pow:2", "Orl:exp"):
            x = SpaceDescriptor.parse(text)
            assert cl_combine(x, x, Fraction(1, 3)) == x

    def test_associativity_on_lebesgue(self):
        # combining with weight j/k one derivative at a time lands on the
        # same space as the direct combination
        x = SpaceDescriptor.parse("L:1")
        y = SpaceDescriptor.parse("L:3")
        step1 = cl_combine(x, y, Fraction(2, 3))
        direct = cl_combine(x, y, Fraction(1, 3))
        via = cl_combine(step1, y, Fraction(1, 2))
        assert via == direct


def scalar_bisect_monotone(fn, targets, rel_tol=1e-12, iters=200):
    """The per-target loop YoungFunction._bisect_monotone must reproduce."""
    orig_shape = np.shape(targets)
    targets = np.atleast_1d(np.asarray(targets, dtype=float))
    out = np.zeros_like(targets)
    for i, y in enumerate(targets):
        if y == 0.0:
            continue
        lo, hi = 0.0, 1.0
        for _ in range(iters):
            if fn(hi) >= y:
                break
            lo, hi = hi, hi * 2.0
        else:
            raise OverflowError("monotone inversion failed to bracket")
        while hi - lo > rel_tol * hi and lo < 0.5 * (lo + hi) < hi:
            mid = 0.5 * (lo + hi)
            if fn(mid) < y:
                lo = mid
            else:
                hi = mid
        out[i] = 0.5 * (lo + hi)
    return out.reshape(orig_shape)


_EXP = YoungFunction("exp")
_POW2 = YoungFunction("pow", (Fraction(2),))
_POWLOG = YoungFunction("powlog", (Fraction(2), Fraction(1)))
_EXP_POW2 = YoungFunction("combined", factors=(_EXP, _POW2), theta=Fraction(1, 3))
_BISECTION_TARGETS = np.concatenate([[0.0, 1e-300], np.logspace(-12.0, 8.0, 302)])


def exact_hits(fn):
    # targets that some midpoint of the bisection meets exactly, so the
    # tie rule (fn(mid) == y moves hi) decides the answer
    return fn(np.array([0.75, 1.5, 3.0, 6.0]))


class TestArrayBisection:
    # (Young function, evaluation that runs through _bisect_monotone, targets);
    # the powlog product nests two bisections, so it gets 0, 1e-300 and
    # every 20th of the rest
    CASES = {
        "exp x pow:2": (_EXP_POW2, "__call__", _BISECTION_TARGETS),
        "combined of combined": (
            YoungFunction(
                "combined", factors=(_EXP_POW2, YoungFunction("pow", (Fraction(3),))), theta=Fraction(1, 2)
            ),
            "__call__",
            _BISECTION_TARGETS,
        ),
        "powlog:2,1 x pow:2": (
            YoungFunction("combined", factors=(_POWLOG, _POW2), theta=Fraction(1, 2)),
            "__call__",
            np.concatenate([_BISECTION_TARGETS[:2], _BISECTION_TARGETS[2::20]]),
        ),
        "powlog inverse": (_POWLOG, "inverse", _BISECTION_TARGETS),
    }

    @pytest.mark.parametrize("name", sorted(CASES))
    def test_matches_scalar_loop(self, name, monkeypatch):
        young, method, targets = self.CASES[name]
        evaluate = getattr(young, method)
        # forward evaluation bisects the inverse and vice versa
        targets = np.concatenate([targets, exact_hits(young.inverse if method == "__call__" else young)])
        got = {shape: evaluate(targets.reshape(shape)) for shape in ((-1,), (2, -1))}
        got_scalar = evaluate(float(targets[-1]))
        monkeypatch.setattr(YoungFunction, "_bisect_monotone", staticmethod(scalar_bisect_monotone))
        want = evaluate(targets)
        for shape, values in got.items():
            assert values.shape == targets.reshape(shape).shape
            assert np.array_equal(values, want.reshape(shape))
        assert isinstance(got_scalar, float)
        assert got_scalar == want[-1]

    def test_tiny_values_resolve(self):
        # exp x pow:2 (theta 1/3) grows like t^(3/2) near 0: its value at
        # 1e-40 is about 1e-60, far below 2^-200, and at 1e-300 it underflows
        t = 1e-40
        # direct inversion: bisect log(inverse(e^x)) = log t over x = log value
        lo, hi = -1000.0, 0.0
        while lo < 0.5 * (lo + hi) < hi:
            mid = 0.5 * (lo + hi)
            if math.log(_EXP_POW2.inverse(math.exp(mid))) < math.log(t):
                lo = mid
            else:
                hi = mid
        direct = math.exp(0.5 * (lo + hi))
        assert _EXP_POW2(t) == pytest.approx(direct, rel=1e-9)
        assert _EXP_POW2(1e-300) < 1e-300

    def test_unreachable_target_fails_to_bracket(self):
        with pytest.raises(OverflowError, match="failed to bracket"):
            YoungFunction._bisect_monotone(lambda t: np.minimum(t, 1.0), np.array([0.5, 2.0]))
        with pytest.raises(OverflowError, match="failed to bracket"):
            YoungFunction._bisect_monotone(lambda t: np.minimum(t, 1.0), 2.0)

    def test_nan_target_fails_to_bracket(self):
        with pytest.raises(OverflowError, match="failed to bracket"):
            YoungFunction._bisect_monotone(np.asarray, np.array([1.0, math.nan]))


class TestNorms:
    def test_lebesgue_indicator(self):
        vals, mu = indicator(1024, 1024)  # chi_[0,4]
        assert lebesgue_norm(vals, mu, Fraction(2)) == pytest.approx(2.0, rel=1e-12)
        assert lebesgue_norm(vals, mu, Fraction(1)) == pytest.approx(4.0, rel=1e-12)
        assert lebesgue_norm(vals, mu, INF) == 1.0

    def test_lorentz_indicator_sqrt2(self):
        vals, mu = indicator()  # measure exactly 1
        assert lorentz_norm(vals, mu, Fraction(2), Fraction(2)) == pytest.approx(math.sqrt(2.0), rel=1e-12)

    def test_lorentz_indicator_general_closed_form(self):
        # ||chi_E||^p = m^(p/P) (P/p + 1/(p - p/P)) for |E| = m
        vals, mu = indicator(512)  # m = 2
        P, p = Fraction(3, 2), Fraction(1)
        expected = 2.0 ** (2.0 / 3.0) * (1.5 + 3.0)
        assert lorentz_norm(vals, mu, P, p) == pytest.approx(expected, rel=1e-12)

    def test_lorentz_step_oracle(self):
        # exact integral of (f**)^2 t^(2/2 - 1): 4 + int_1^3 ((1+t)/t)^2 + 16/3
        vals, mu = step_function()
        expected = math.sqrt(12.0 + 2.0 * math.log(3.0))
        assert lorentz_norm(vals, mu, Fraction(2), Fraction(2)) == pytest.approx(expected, rel=1e-10)

    def test_weak_lorentz_step_oracle(self):
        # sup t^(1/2) f**(t) sits at the end of the support, 4/sqrt(3)
        vals, mu = step_function()
        assert lorentz_norm(vals, mu, Fraction(2), INF) == pytest.approx(4.0 / math.sqrt(3.0), rel=1e-12)

    def test_luxemburg_power_matches_lebesgue(self):
        vals, mu = step_function()
        y = YoungFunction("pow", (Fraction(2),))
        assert luxemburg_norm(vals, mu, y) == pytest.approx(lebesgue_norm(vals, mu, Fraction(2)), rel=1e-7)

    def test_luxemburg_exp_indicator(self):
        # rho(chi/lam) = e^(1/lam) - 1 = 1 at lam = 1/ln 2
        vals, mu = indicator()
        assert luxemburg_norm(vals, mu, YoungFunction("exp")) == pytest.approx(1.0 / math.log(2.0), rel=1e-6)

    def test_zero_function_all_spaces(self):
        z = np.zeros(64)
        for text in ("L:2", "L:inf", "Lor:2,2", "Orl:exp"):
            assert space_norm(SpaceDescriptor.parse(text), z, 0.25) == 0.0

    @pytest.mark.parametrize("text", ["L:1", "L:2", "L:inf", "Lor:2,2", "Lor:3/2,1", "Lor:2,inf", "Orl:pow:2", "Orl:exp"])
    def test_norm_axioms(self, text):
        space = SpaceDescriptor.parse(text)
        rng = np.random.default_rng(7)
        f = rng.normal(size=512)
        g = rng.normal(size=512)
        mu = 1.0 / 128.0
        nf = space_norm(space, f, mu)
        # homogeneity
        assert space_norm(space, 3.0 * f, mu) == pytest.approx(3.0 * nf, rel=1e-7)
        # triangle inequality
        assert space_norm(space, f + g, mu) <= (nf + space_norm(space, g, mu)) * (1.0 + 1e-7)
        # lattice property
        assert space_norm(space, 0.5 * np.abs(f), mu) <= nf * (1.0 + 1e-7)

    def test_modular_overflow_raises(self):
        with pytest.raises(ModularRangeError) as err:
            modular(YoungFunction("exp"), np.array([1e6]), 1.0, scale=1e-3)
        assert err.value.argument == pytest.approx(1e9)

    def test_luxemburg_bracket_guard(self):
        # a degenerate integrand that never pushes the modular above 1
        with pytest.raises(YoungBracketError):
            luxemburg_norm(np.ones(4), 1.0, lambda t: np.zeros_like(t))


class TestFactorization:
    def test_equal_inputs_give_equality(self):
        vals, mu = step_function()
        x = SpaceDescriptor.parse("L:2")
        lhs, rhs, ok = cl_factorization_check(x, x, x, vals, vals, vals, Fraction(1, 2), mu)
        assert ok
        assert lhs == pytest.approx(rhs, rel=1e-12)

    def test_holder_through_combined_space(self):
        rng = np.random.default_rng(3)
        f = np.abs(rng.normal(size=512)) + 0.1
        g = np.abs(rng.normal(size=512)) + 0.1
        h = np.sqrt(f * g)
        mu = 1.0 / 128.0
        x = SpaceDescriptor.parse("L:2")
        y = SpaceDescriptor.parse("L:4")
        z = cl_combine(x, y, Fraction(1, 2))
        assert z.format() == "L:8/3"
        lhs, rhs, ok = cl_factorization_check(z, x, y, h, f, g, Fraction(1, 2), mu)
        assert ok and lhs <= rhs * (1.0 + 1e-9)

    def test_holder_lorentz(self):
        rng = np.random.default_rng(4)
        f = np.abs(rng.normal(size=512))
        g = np.abs(rng.normal(size=512))
        h = f ** 0.5 * g ** 0.5
        mu = 1.0 / 128.0
        x = SpaceDescriptor.parse("Lor:2,2")
        y = SpaceDescriptor.parse("Lor:4,4")
        z = cl_combine(x, y, Fraction(1, 2))
        lhs, rhs, ok = cl_factorization_check(z, x, y, h, f, g, Fraction(1, 2), mu)
        assert ok

    def test_zero_numerator_passes(self):
        mu = 0.25
        f = np.ones(16)
        x = SpaceDescriptor.parse("L:2")
        lhs, _, ok = cl_factorization_check(x, x, x, np.zeros(16), f, f, Fraction(1, 2), mu)
        assert ok and lhs == 0.0

    def test_pointwise_violation_rejected(self):
        mu = 0.25
        f = np.ones(16)
        with pytest.raises(ValueError):
            cl_factorization_check(
                SpaceDescriptor.parse("L:2"),
                SpaceDescriptor.parse("L:2"),
                SpaceDescriptor.parse("L:2"),
                2.0 * f,
                f,
                f,
                Fraction(1, 2),
                mu,
            )


@st.composite
def exp_pow_products(draw):
    q = draw(st.sampled_from([Fraction(3, 2), Fraction(2), Fraction(3)]))
    theta = Fraction(draw(st.integers(1, 63)), 64)
    factors = (_EXP, YoungFunction("pow", (q,)))
    if draw(st.booleans()):
        factors = factors[::-1]
    return YoungFunction("combined", factors=factors, theta=theta)


@settings(max_examples=15, derandomize=True, deadline=None, database=None)
@given(
    young=exp_pow_products(),
    values=st.lists(st.floats(1e-3, 1e2), min_size=1, max_size=64),
    c=st.floats(0.1, 10.0),
    t=st.floats(1e-6, 30.0),
)
def test_combined_orlicz_properties(young, values, c, t):
    space = SpaceDescriptor("orlicz", young=young)
    f = np.array(values)
    mu = 1.0 / 64.0
    nf = luxemburg_norm(f, mu, young)
    assert luxemburg_norm(c * f, mu, young) == pytest.approx(c * nf, rel=norm_tolerance(space))
    assert modular(young, f, mu, scale=nf) <= 1.0 + 1e-6
    assert young.inverse(young(t)) == pytest.approx(t, rel=1e-9)
