"""Rearrangement profiles, space descriptors, norms, and their combination."""

import math
import tracemalloc
import warnings
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, reject, settings
from hypothesis import strategies as st

from gnsparse.errors import AdmissibilityError, GnsparseError, ModularRangeError, NormRangeError, YoungInversionError
from gnsparse.norms import (
    LUXEMBURG_REL_TOL,
    _binomial_plateaus,
    _quadrature_plateaus,
    cl_factorization_check,
    lebesgue_norm,
    lorentz_norm,
    luxemburg_norm,
    modular,
    norm_tolerance,
    space_norm,
)
from gnsparse import norms as norms_module
from gnsparse import spaces as spaces_module
from gnsparse.rearrangement import CellField
from gnsparse.spaces import (
    INF,
    SpaceDescriptor,
    YoungFunction,
    cl_combine,
    harmonic_combine,
    index_float,
    parse_index,
)
from gnsparse.testfunctions import TestFunctionSpec, grid_for_spec, make_test_function
from gnsparse.grid import Grid1D

from corpus import members
from oracles import (
    distribution,
    double_star,
    equimeasurable,
    loop_weak_lorentz_norm,
    quadrature_lorentz_norm,
    star,
    young_inverses_agree,
)


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
        field = CellField(vals, mu)
        assert field.support_measure == pytest.approx(3.0, abs=1e-12)
        assert field.total_integral == pytest.approx(4.0, abs=1e-12)
        assert list(field.heights) == [2.0, 1.0]
        assert list(field.widths) == pytest.approx([1.0, 2.0], abs=1e-12)

    def test_plateaus_beyond_the_floats_read_inf_without_warning(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            field = CellField(np.full(4, 1e300), 1e300)
            assert field.total_integral == math.inf
            assert list(field.heights) == [1e300]

    @pytest.mark.parametrize("size", [1, 2, 7, 4096])
    def test_plateaus_match_np_unique(self, size):
        # one sort with run boundaries gives np.unique's plateaus bit for bit
        rng = np.random.default_rng(size)
        mu = 1.0 / 64.0
        for vals in (
            np.round(rng.normal(size=size) * 4.0) / 4.0,  # ties, zeros and signs
            rng.normal(size=size) * (rng.random(size) < 0.5),  # distinct values and zeros
            np.zeros(size),
        ):
            v = np.abs(vals)
            heights, counts = np.unique(v[v > 0.0], return_counts=True)
            heights = heights[::-1]
            widths = counts[::-1].astype(float) * mu
            want = {
                "heights": heights,
                "widths": widths,
                "breaks": np.concatenate([[0.0], np.cumsum(widths)]),
                "cum_integral": np.concatenate([[0.0], np.cumsum(heights * widths)]),
            }
            field = CellField(vals, mu)
            for name, array in want.items():
                assert np.array_equal(getattr(field, name), array), name

    def test_star_values(self):
        vals, mu = step_function()
        field = CellField(vals, mu)
        assert star(field, 0.0) == 2.0
        assert star(field, 0.5) == 2.0
        assert star(field, 1.0) == 1.0  # right continuous at the break
        assert star(field, 2.9) == 1.0
        assert star(field, 3.0) == 0.0
        assert star(field, 7.0) == 0.0

    def test_double_star_values(self):
        vals, mu = step_function()
        field = CellField(vals, mu)
        assert double_star(field, 0.5) == pytest.approx(2.0)
        assert double_star(field, 2.0) == pytest.approx(1.5)  # (2 + 1)/2
        assert double_star(field, 4.0) == pytest.approx(1.0)  # ||f||_1 / t
        assert double_star(field, 8.0) == pytest.approx(0.5)
        with pytest.raises(ValueError):
            double_star(field, 0.0)

    def test_distribution_values(self):
        vals, mu = step_function()
        field = CellField(vals, mu)
        assert distribution(field, 0.0) == pytest.approx(3.0)
        assert distribution(field, 0.5) == pytest.approx(3.0)
        assert distribution(field, 1.0) == pytest.approx(1.0)
        assert distribution(field, 1.5) == pytest.approx(1.0)
        assert distribution(field, 2.0) == 0.0

    def test_gaussian_star_matches_closed_form(self):
        # for f = exp(-x^2), {f > s} has measure 2 sqrt(-ln s), so
        # f*(t) = exp(-t^2/4)
        spec = TestFunctionSpec(family="gaussian", center=0.0, width=1.0, amplitude=1.0, window=(-6.0, 6.0))
        u = make_test_function(spec, Grid1D(-6.0, 6.0, 1024))
        field = CellField(u.center_values(0), u.grid.h)
        for t in (0.5, 1.0, 2.0, 3.0):
            assert star(field, t) == pytest.approx(math.exp(-t * t / 4.0), abs=2e-2)

    def test_equimeasurable_under_shuffle(self):
        vals, mu = step_function()
        shuffled = np.random.default_rng(0).permutation(vals)
        assert equimeasurable(CellField(vals, mu), CellField(shuffled, mu))
        assert not equimeasurable(CellField(vals, mu), CellField(2.0 * vals, mu))

    def test_norms_are_rearrangement_invariant(self):
        vals, mu = step_function()
        shuffled = np.random.default_rng(1).permutation(vals)
        rng = np.random.default_rng(2)
        signed = rng.normal(size=vals.size)
        for text in ("L:1", "L:2", "L:4", "L:inf", "Lor:2,2", "Orl:exp"):
            space = SpaceDescriptor.parse(text)
            assert space_norm(space, CellField(vals, mu)) == pytest.approx(
                space_norm(space, CellField(shuffled, mu)), rel=1e-12
            )
            # a field holds |f|, so flipping signs changes no bit of a norm
            for f in (vals, signed):
                flipped = f * rng.choice([-1.0, 1.0], size=f.size)
                assert space_norm(space, CellField(flipped, mu)) == space_norm(space, CellField(f, mu))
                assert space_norm(space, CellField(-f, mu)) == space_norm(space, CellField(f, mu))

    @pytest.mark.parametrize("mu", [0.0, -0.25, math.nan])
    @pytest.mark.parametrize("norm", ["lebesgue", "lorentz", "luxemburg", "modular"])
    def test_non_positive_cell_measure_rejected(self, norm, mu):
        # with a bare measure, L^2 at -0.25 came out complex, at 0 it was 0,
        # and the modular went negative; a field cannot carry such a measure
        young = YoungFunction("pow", (Fraction(2),))
        evaluate = {
            "lebesgue": lambda f: lebesgue_norm(f, Fraction(2)),
            "lorentz": lambda f: lorentz_norm(f, Fraction(2), Fraction(2)),
            "luxemburg": lambda f: luxemburg_norm(f, young),
            "modular": lambda f: modular(young, f),
        }[norm]
        assert evaluate(CellField([1.0, 2.0, 0.5], 0.25)) > 0.0
        with pytest.raises(ValueError, match="cell measure must be positive"):
            evaluate(CellField([1.0, 2.0, 0.5], mu))

    @settings(max_examples=40, derandomize=True, deadline=None, database=None)
    @given(
        values=st.lists(st.floats(-1e3, 1e3, allow_subnormal=False), min_size=1, max_size=200),
        mu=st.sampled_from([1e-3, 1.0 / 64.0, 1.0]),
    )
    def test_profile_read_order_leaves_norms_bit_identical(self, values, mu):
        # the profile is one sort of a copy: reading it first or last
        # moves no value the Lebesgue and Luxemburg norms read
        young = YoungFunction("pow", (Fraction(3, 2),))

        def others(f):
            return [lebesgue_norm(f, Fraction(3)), lebesgue_norm(f, INF), luxemburg_norm(f, young)]

        first, last = CellField(values, mu), CellField(values, mu)
        lorentz_first = lorentz_norm(first, Fraction(2), Fraction(2))
        others_first, others_last = others(first), others(last)
        lorentz_last = lorentz_norm(last, Fraction(2), Fraction(2))
        assert repr(others_first) == repr(others_last)
        assert repr(lorentz_first) == repr(lorentz_last)


class TestDescriptors:
    @pytest.mark.parametrize(
        "text",
        [
            "L:2",
            "L:inf",
            "L:3/2",
            "Lor:2,2",
            "Lor:3/2,1",
            "Lor:2,inf",
            "Orl:pow:2",
            "Orl:powlog:2,1",
            # t log(e + t)^a bends its elasticity sharply for a large a
            "Orl:powlog:1,15",
            "Orl:powlog:1,19",
            "Orl:exp",
        ],
    )
    def test_round_trip(self, text):
        assert SpaceDescriptor.parse(text).format() == text

    def test_lorentz_edge_cases_collapse_to_lebesgue(self):
        assert SpaceDescriptor.parse("Lor:1,1") == SpaceDescriptor.parse("L:1")
        assert SpaceDescriptor.parse("Lor:inf,inf") == SpaceDescriptor.parse("L:inf")

    @pytest.mark.parametrize(
        "text",
        [
            "L:1/2",
            "L:0",
            "Lor:1,2",
            "Lor:inf,2",
            "Lor:2",
            "Orl:pow:inf",
            "Orl:none",
            "X:2",
            "Orl:powlog:1,-1",
            # numbers that do not parse, or that no norm can read
            "Orl:powlog:2,1/0",
            "Orl:powlog:2,abc",
            "Orl:powlog:2,1e400",
            "L:1e999",
            "Lor:2,1e999",
            "Lor:1e999,2",
            "Orl:pow:1e999",
            "Orl:powlog:1e999,1",
        ],
    )
    def test_inadmissible_rejected(self, text):
        with pytest.raises(AdmissibilityError):
            SpaceDescriptor.parse(text)

    def test_index_parsing_is_exact(self):
        assert parse_index("3/2") == Fraction(3, 2)
        assert parse_index("inf") == INF

    def test_index_cap_is_the_largest_float(self):
        # the largest index a float holds parses and evaluates
        assert space_norm(SpaceDescriptor.parse("L:1e308"), CellField(np.ones(3), 1.0 / 3.0)) == 1.0
        with pytest.raises(AdmissibilityError, match="index 1e999 lies beyond the largest float"):
            parse_index("1e999")

    def test_powlog_with_exponent_zero_is_the_power(self):
        # t^p log(e + t)^0 is t^p: it parses as Orl:pow:p, text and all
        for a in ("0", "0/7", "-0"):
            z = SpaceDescriptor.parse(f"Orl:powlog:3/2,{a}")
            assert z.young.kind == "pow" and z.format() == "Orl:pow:3/2"

    def test_equality_and_hash(self):
        a = SpaceDescriptor.parse("Lor:2,2")
        assert a == SpaceDescriptor.parse("Lor:2,2")
        assert a != SpaceDescriptor.parse("Lor:2,3")
        assert a != SpaceDescriptor.parse("L:2")
        assert hash(SpaceDescriptor.parse("L:2")) == hash(SpaceDescriptor.parse("L:2"))
        assert SpaceDescriptor.parse("Orl:pow:2") == SpaceDescriptor.parse("Orl:pow:2")

    def test_equal_orlicz_spaces_hash_equal(self):
        # Orlicz equality compares Young-function keys: a product's is
        # unordered, and powlog:p,0 parses as pow:p, so two routes to one
        # function are equal and hash alike, whatever their texts
        P = SpaceDescriptor.parse
        a, b = P("Orl:powlog:2,0"), P("Orl:pow:2")
        assert a.format() == b.format() == "Orl:pow:2"
        c = cl_combine(P("Orl:exp"), P("Orl:pow:2"), Fraction(1, 3))
        d = cl_combine(P("Orl:pow:2"), P("Orl:exp"), Fraction(2, 3))
        assert c.format() != d.format()
        for x, y in ((a, b), (c, d)):
            assert x == y
            assert hash(x) == hash(y)
            assert len({x, y}) == 1

    def test_nearby_young_functions_are_not_equal(self):
        # another function, though its inverse is within 1e-9 of t^2's on
        # the oracle's grid
        P = SpaceDescriptor.parse
        assert P("Orl:powlog:2,1/1000000000") != P("Orl:pow:2")
        assert young_inverses_agree(P("Orl:powlog:2,1/1000000000").young, P("Orl:pow:2").young)

    def test_orlicz_spaces_hash_apart(self):
        # unlike Orlicz spaces hash apart
        spaces = [SpaceDescriptor.parse(text) for text in ("Orl:exp", "Orl:pow:2", "Orl:pow:3")]
        assert len({hash(space) for space in spaces}) == 3


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
        # the generic product of pow:1 and pow:3 has the inverse of pow:3/2
        a = YoungFunction("pow", (Fraction(1),))
        b = YoungFunction("pow", (Fraction(3),))
        gen = YoungFunction("combined", factors=(a, b), theta=Fraction(1, 2))
        s = np.logspace(-6.0, 6.0, 49)
        assert gen.inverse(s) == pytest.approx(s ** (2.0 / 3.0), rel=1e-12)
        assert young_inverses_agree(gen, YoungFunction("pow", (Fraction(3, 2),)))

    def test_power_leaves_of_a_product_count_as_one(self):
        # exp^(1/2) pow:2^(1/4) pow:3^(1/4) has the inverse of
        # exp^(1/2) pow:12/5^(1/2): s^(1/8 + 1/12) = (s^(5/12))^(1/2)
        P = SpaceDescriptor.parse
        three = cl_combine(cl_combine(P("Orl:exp"), P("Orl:pow:2"), Fraction(2, 3)), P("Orl:pow:3"), Fraction(3, 4))
        two = cl_combine(P("Orl:pow:12/5"), P("Orl:exp"), Fraction(1, 2))
        assert three.format() == "Orl:combined(exp,pow:2,pow:3;1/2,1/4)"
        assert three == two and hash(three) == hash(two)
        assert young_inverses_agree(three.young, two.young)
        # the same weights on another power are another function
        assert three != cl_combine(P("Orl:pow:2"), P("Orl:exp"), Fraction(1, 2))

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

    def test_nested_product_is_the_direct_product(self, monkeypatch):
        # X^(2/3) (X^(1/4) Y^(3/4))^(1/3) = X^(3/4) Y^(1/4): one flat form,
        # one interned function, one text, one arithmetic
        monkeypatch.setattr(spaces_module, "_COMBINED", {})
        x, y = SpaceDescriptor.parse("Orl:exp"), SpaceDescriptor.parse("Orl:pow:2")
        inner = cl_combine(x, y, Fraction(1, 4))
        nested = cl_combine(x, inner, Fraction(2, 3))
        direct = cl_combine(x, y, Fraction(3, 4))
        assert nested.young is direct.young
        assert len(spaces_module._COMBINED) == 2
        assert direct.format() == "Orl:combined(exp,pow:2;3/4)"
        # built afresh from the nested factors, outside the table
        rebuilt = YoungFunction("combined", factors=(x.young, inner.young), theta=Fraction(2, 3))
        assert rebuilt is not direct.young
        assert rebuilt.describe() == direct.young.describe()
        assert rebuilt.leaves == ((x.young, Fraction(3, 4)), (y.young, Fraction(1, 4)))
        t = np.concatenate([[0.0, 1e-300], np.logspace(-12.0, 8.0, 101)])
        assert rebuilt(t).tobytes() == direct.young(t).tobytes()
        assert rebuilt.inverse(t).tobytes() == direct.young.inverse(t).tobytes()

    def test_three_leaf_text_lists_all_but_the_last_weight(self):
        pow3 = YoungFunction("pow", (Fraction(3),))
        young = YoungFunction("combined", factors=(_EXP_POW2, pow3), theta=Fraction(1, 2))
        assert young.leaves == ((_EXP, Fraction(1, 6)), (_POW2, Fraction(1, 3)), (pow3, Fraction(1, 2)))
        assert young.describe() == "combined(exp,pow:2,pow:3;1/6,1/3)"

    def test_a_build_that_raises_is_not_kept(self, monkeypatch):
        monkeypatch.setattr(spaces_module, "_COMBINED", {})
        x, y = SpaceDescriptor.parse("Orl:exp"), SpaceDescriptor.parse("Orl:pow:2")
        build = YoungFunction.__init__

        def refuse(young, *args, **kwargs):
            raise AdmissibilityError("refused")

        monkeypatch.setattr(YoungFunction, "__init__", refuse)
        with pytest.raises(AdmissibilityError, match="refused"):
            cl_combine(x, y, Fraction(1, 3))
        assert spaces_module._COMBINED == {}
        monkeypatch.setattr(YoungFunction, "__init__", build)
        z = cl_combine(x, y, Fraction(1, 3))
        assert list(spaces_module._COMBINED.values()) == [z.young]

    def test_descriptor_equality_samples_no_inverse(self, monkeypatch):
        # two objects of one product compare by key: no inverse is read
        def no_inverse(s):
            raise AssertionError("equality sampled an inverse")

        monkeypatch.setattr(YoungFunction, "inverse", no_inverse)
        a = YoungFunction("combined", factors=(_EXP, _POW2), theta=Fraction(1, 3))
        b = YoungFunction("combined", factors=(_POW2, _EXP), theta=Fraction(2, 3))
        assert a is not b
        assert SpaceDescriptor("orlicz", young=a) == SpaceDescriptor("orlicz", young=b)
        assert SpaceDescriptor("orlicz", young=a) != SpaceDescriptor("orlicz", young=_EXP)

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
    """Solve fn(t) = y by bisection, one target at a time: the oracle that
    the Newton inversions in spaces.YoungFunction are checked against."""
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
    # targets that some midpoint of the oracle's bisection meets exactly
    return fn(np.array([0.75, 1.5, 3.0, 6.0]))


class TestArrayBisection:
    # (Young function, evaluation that runs the Newton kernel, targets); the
    # oracle for the powlog product calls the powlog inverse once per scalar
    # step, so it gets 0, 1e-300 and every 20th of the rest
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
        # t log(e + t)^a for a large a: Newton bounced inside a closed
        # bracket, so powlog:1,15 failed its build check and powlog:1,19
        # inverted no s near 6e4, which the targets include; parsed in the
        # test, so that a refusal fails this case alone
        "powlog:1,15 inverse": ("Orl:powlog:1,15", "inverse", _BISECTION_TARGETS),
        "powlog:1,19 inverse": ("Orl:powlog:1,19", "inverse", _BISECTION_TARGETS),
    }

    @pytest.mark.parametrize("name", sorted(CASES))
    def test_matches_scalar_loop(self, name):
        young, method, targets = self.CASES[name]
        if isinstance(young, str):
            young = SpaceDescriptor.parse(young).young
        evaluate = getattr(young, method)
        # a forward value inverts the inverse and vice versa
        closed_form = young.inverse if method == "__call__" else young
        targets = np.concatenate([targets, exact_hits(closed_form)])
        want = scalar_bisect_monotone(closed_form, targets)
        got = {shape: evaluate(targets.reshape(shape)) for shape in ((-1,), (2, -1))}
        got_scalar = evaluate(float(targets[-1]))
        for shape, values in got.items():
            assert values.shape == targets.reshape(shape).shape
            np.testing.assert_allclose(values, want.reshape(shape), rtol=1e-12, atol=0.0)
        assert isinstance(got_scalar, float)
        assert got_scalar == pytest.approx(want[-1], rel=1e-12)

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
        assert _EXP_POW2(t) == pytest.approx(direct, rel=1e-9, abs=0.0)
        assert _EXP_POW2(1e-300) < 1e-300

    @staticmethod
    def bounded_log_inverse(y):
        # an increasing log-inverse that never leaves (-1, 1)
        return np.tanh(y), 1.0 - np.tanh(y) ** 2

    def test_unreachable_target_raises_inversion_error(self, monkeypatch):
        with pytest.raises(YoungInversionError, match="did not converge"):
            spaces_module._newton(self.bounded_log_inverse, np.array([0.5, 2.0]), np.zeros(2))
        young = YoungFunction("combined", factors=(_EXP, _POW2), theta=Fraction(1, 3))
        monkeypatch.setattr(young, "_log_inverse", self.bounded_log_inverse)
        assert young(1.0) == 1.0  # log t = 0 = tanh(0)
        with pytest.raises(YoungInversionError, match="did not converge"):
            young(np.array([1.0, 10.0]))  # log 10 > 1

    def test_nan_target_raises_inversion_error(self):
        with pytest.raises(YoungInversionError, match="NaN"):
            spaces_module._newton(self.bounded_log_inverse, np.array([0.5, math.nan]), np.zeros(2))
        with pytest.raises(YoungInversionError, match="NaN"):
            _EXP_POW2(np.array([1.0, math.nan]))
        with pytest.raises(YoungInversionError, match="NaN"):
            _POWLOG.inverse(math.nan)

    def test_infinite_arguments(self):
        # an infinite forward value is real overflow, not a solver failure
        assert _POWLOG.inverse(math.inf) == math.inf
        with pytest.raises(OverflowError):
            _EXP_POW2(math.inf)
        with pytest.raises(OverflowError):
            _EXP_POW2(1e200)  # finite argument, value beyond the largest float

    def test_luxemburg_norm_lets_inversion_error_through(self, monkeypatch):
        # an OverflowError in the modular reads as rho = inf; a solver
        # failure must not be mistaken for one
        young = YoungFunction("combined", factors=(_EXP, _POW2), theta=Fraction(1, 3))
        monkeypatch.setattr(young, "_log_inverse", self.bounded_log_inverse)
        with pytest.raises(YoungInversionError):
            luxemburg_norm(CellField(np.array([1.0, 0.01]), 0.5), young)


def newton_solve(fn, start=None):
    """The Newton kernel on ``fn``, each target started at itself or at
    ``start``: its solutions and slopes, a row per target."""
    return lambda y: np.stack(spaces_module._newton(fn, y, y if start is None else np.full_like(y, start)), axis=-1)


class TestNewtonKernel:
    # each target is solved on its own, so a batch and its parts agree bit
    # for bit; that is what lets one call serve a grid and its midpoints
    _COMBINED_OF_COMBINED = YoungFunction(
        "combined", factors=(_EXP_POW2, YoungFunction("pow", (Fraction(3),))), theta=Fraction(1, 2)
    )
    _LOG_T = np.concatenate([[-math.inf, math.inf, 0.0, -700.0], np.linspace(-60.0, 60.0, 41)])
    # tanh is flat (slope exactly 0) from about 19 on, so a start at 20 takes
    # an open fallback step to 18 and then bisects a bracket of width ~1e15
    _TANH_TARGETS = np.array([-0.9, -0.5, 0.0, 0.3, 0.99, 0.999999])
    CASES = {
        "exp x pow:2": (newton_solve(_EXP_POW2._log_inverse), _LOG_T),
        "combined of combined": (newton_solve(_COMBINED_OF_COMBINED._log_inverse), _LOG_T),
        "powlog:2,1 inverse": (lambda y: _POWLOG._log_inverse(y)[0], _LOG_T[2:]),
        "fallback and bisection": (newton_solve(TestArrayBisection.bounded_log_inverse, 20.0), _TANH_TARGETS),
        # forward values, each started at its own log t
        "exp x pow:2 seeded forward": (_EXP_POW2, np.concatenate([[0.0, 1e-300], np.logspace(-12.0, 8.0, 41)])),
    }

    @pytest.mark.parametrize("name", sorted(CASES))
    def test_batch_equals_its_parts_bit_for_bit(self, name):
        solve, targets = self.CASES[name]
        whole = solve(targets)
        for cuts in ([], [1], [2, 3], list(range(1, targets.size))):
            parts = np.concatenate([solve(part) for part in np.split(targets, cuts)])
            assert parts.tobytes() == whole.tobytes(), cuts

    def test_flat_start_takes_the_fallback_and_bisection_steps(self):
        iterates = []

        def recorded(x):
            iterates.append(float(x[0]))
            return TestArrayBisection.bounded_log_inverse(x)

        (x,), _ = spaces_module._newton(recorded, np.array([0.3]), np.array([20.0]))
        assert math.tanh(x) == pytest.approx(0.3, rel=1e-13)
        assert iterates[:2] == [20.0, 18.0]  # slope 0 at 20: a step of 2 towards the target
        # then it halves the bracket [about -2e15, 18] down to Newton's range
        bisections = [
            x for i, x in enumerate(iterates) if any(x == 0.5 * (a + b) for a in iterates[:i] for b in iterates[:i])
        ]
        assert len(bisections) > 20



class TestNorms:
    def test_lebesgue_indicator(self):
        vals, mu = indicator(1024, 1024)  # chi_[0,4]
        assert lebesgue_norm(CellField(vals, mu), Fraction(2)) == pytest.approx(2.0, rel=1e-12)
        assert lebesgue_norm(CellField(vals, mu), Fraction(1)) == pytest.approx(4.0, rel=1e-12)
        assert lebesgue_norm(CellField(vals, mu), INF) == 1.0

    def test_lorentz_indicator_sqrt2(self):
        f = CellField(*indicator())  # measure exactly 1
        assert lorentz_norm(f, Fraction(2), Fraction(2)) == pytest.approx(math.sqrt(2.0), rel=1e-12)

    def test_lorentz_indicator_general_closed_form(self):
        # ||chi_E||^p = m^(p/P) (P/p + 1/(p - p/P)) for |E| = m
        vals, mu = indicator(512)  # m = 2
        P, p = Fraction(3, 2), Fraction(1)
        expected = 2.0 ** (2.0 / 3.0) * (1.5 + 3.0)
        assert lorentz_norm(CellField(vals, mu), P, p) == pytest.approx(expected, rel=1e-12)

    def test_lorentz_step_oracle(self):
        # exact integral of (f**)^2 t^(2/2 - 1): 4 + int_1^3 ((1+t)/t)^2 + 16/3
        vals, mu = step_function()
        expected = math.sqrt(12.0 + 2.0 * math.log(3.0))
        assert lorentz_norm(CellField(vals, mu), Fraction(2), Fraction(2)) == pytest.approx(expected, rel=1e-10)

    def test_weak_lorentz_step_oracle(self):
        # sup t^(1/2) f**(t) sits at the end of the support, 4/sqrt(3)
        f = CellField(*step_function())
        assert lorentz_norm(f, Fraction(2), INF) == pytest.approx(4.0 / math.sqrt(3.0), rel=1e-12)

    def test_lorentz_temporaries_stay_plateau_sized(self):
        # 300k distinct values make 300k plateaus.  The binomial sum of an
        # integer q takes its q + 1 terms one at a time, so the call holds
        # the profile and a few plateau-sized temporaries; a plateaus x 16
        # table of quadrature nodes would peak near 70 input sizes.
        vals = np.random.default_rng(0).random(300_000) + 0.5
        started = not tracemalloc.is_tracing()
        if started:
            tracemalloc.start()
        try:
            tracemalloc.reset_peak()
            before = tracemalloc.get_traced_memory()[0]
            lorentz_norm(CellField(vals, 1e-3), Fraction(2), Fraction(2))
            peak = tracemalloc.get_traced_memory()[1] - before
        finally:
            if started:
                tracemalloc.stop()
        assert peak < 16 * vals.nbytes

    def test_quadrature_temporaries_stay_plateau_sized(self):
        # the twin of the test above for a q that is not an integer: the
        # quadrature takes its 16 Gauss-Legendre nodes one at a time
        vals = np.random.default_rng(0).random(300_000) + 0.5
        started = not tracemalloc.is_tracing()
        if started:
            tracemalloc.start()
        try:
            tracemalloc.reset_peak()
            before = tracemalloc.get_traced_memory()[0]
            lorentz_norm(CellField(vals, 1e-3), Fraction(2), Fraction(5, 2))
            peak = tracemalloc.get_traced_memory()[1] - before
        finally:
            if started:
                tracemalloc.stop()
        assert peak < 16 * vals.nbytes

    def test_luxemburg_power_matches_lebesgue(self):
        vals, mu = step_function()
        y = YoungFunction("pow", (Fraction(2),))
        f = CellField(vals, mu)
        assert luxemburg_norm(f, y) == pytest.approx(lebesgue_norm(f, Fraction(2)), rel=1e-7)

    @pytest.mark.parametrize("p", [Fraction(1), Fraction(3, 2), Fraction(2), Fraction(9, 4), Fraction(8), Fraction(100)])
    def test_orlicz_power_is_lebesgue(self, p):
        rng = np.random.default_rng(11)
        for mu in (1e-4, 1.0 / 64.0, 10.0):
            f = CellField(rng.normal(size=777) * 10.0 ** rng.uniform(-3.0, 3.0, 777), mu)
            space = SpaceDescriptor.parse(f"Orl:pow:{p}")
            got = space_norm(space, f)
            assert got == space_norm(SpaceDescriptor("lebesgue", primary=p), f)
            assert got == pytest.approx(luxemburg_norm(f, space.young), rel=1e-7)

    @pytest.mark.parametrize("p", [107, 113, 155, 1000])
    def test_large_orlicz_power_parses_and_is_lebesgue(self, p):
        # t^p leaves the floats on a fixed grid of [1e-3, 100] from p = 107,
        # so powers are not validated on one
        space = SpaceDescriptor.parse(f"Orl:pow:{p}")
        f = CellField(np.random.default_rng(13).random(1024), 1.0 / 1024.0)
        assert space_norm(space, f) == space_norm(SpaceDescriptor.parse(f"L:{p}"), f)

    @pytest.mark.parametrize("p", [100, 107, 113, 155, 300])
    def test_large_powlog_index_is_validated_in_the_log_domain(self, p):
        # t^p log(e + t) goes subnormal at 1e-3 from p = 107 and overflows
        # at 100 from p = 155; its validation reads log phi, which does not
        young = SpaceDescriptor.parse(f"Orl:powlog:{p},1").young
        t = np.geomspace(0.1, 10.0, 9)
        np.testing.assert_allclose(young.inverse(young(t)), t, rtol=1e-12)
        f = CellField(np.random.default_rng(13).random(1024), 1.0 / 1024.0)
        norm = space_norm(SpaceDescriptor("orlicz", young=young), f)
        # t^p <= phi(t) <= log(e + top) t^p on [0, top], where f / ||f||
        # lies for top = max f / ||f||_p, since ||f||_p <= ||f||
        lebesgue = lebesgue_norm(f, Fraction(p))
        top = float(np.max(f.values)) / lebesgue
        assert lebesgue * (1.0 - 1e-7) <= norm <= lebesgue * math.log(math.e + top) ** (1.0 / p)
        product = _product(f"powlog:{p},1", "pow:2", Fraction(1, 2))
        assert product.inverse(product(t)) == pytest.approx(t, rel=1e-9)

    def test_large_power_of_large_values_is_finite(self):
        # (1e10)^50 overflows a double; the scale-free sum does not
        f = CellField(1e10 * np.arange(1, 65) / 64.0, 1.0 / 64.0)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            lebesgue = space_norm(SpaceDescriptor.parse("L:50"), f)
            orlicz = space_norm(SpaceDescriptor.parse("Orl:pow:50"), f)
            secant = luxemburg_norm(f, YoungFunction("pow", (Fraction(50),)))
        assert math.isfinite(lebesgue) and lebesgue == orlicz
        assert lebesgue == pytest.approx(secant, rel=1e-7)

    @pytest.mark.parametrize(
        "text", ["L:1", "L:3/2", "L:2", "L:50", "L:300", "Orl:pow:2", "Orl:pow:7/2", "Orl:pow:100"]
    )
    @pytest.mark.parametrize("c", [1e-6, 3e-4, 0.7, 1.9e3, 1e6])
    def test_power_norms_are_homogeneous(self, text, c):
        space = SpaceDescriptor.parse(text)
        rng = np.random.default_rng(12)
        values = rng.normal(size=512) * 10.0 ** rng.uniform(-2.0, 2.0, 512)
        nf = space_norm(space, CellField(values, 1.0 / 128.0))
        assert math.isfinite(nf) and nf > 0.0
        assert space_norm(space, CellField(c * values, 1.0 / 128.0)) == pytest.approx(c * nf, rel=1e-12)

    @pytest.mark.parametrize("text", ["Lor:2,2", "Lor:3/2,5/2", "Lor:2,60", "Lor:101/100,15", "Lor:2,inf"])
    @pytest.mark.parametrize("c", [1e-300, 1e-6, 1e6, 1e300])
    def test_lorentz_norms_are_homogeneous(self, text, c):
        # taken as M ||f/M||, M = max|f|: no p-th power of a value leaves
        # the floats, though (1e6)^60 and (1e-6)^60 do
        space = SpaceDescriptor.parse(text)
        values = np.random.default_rng(12).random(512)
        nf = space_norm(space, CellField(values, 1.0 / 128.0))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            scaled = space_norm(space, CellField(c * values, 1.0 / 128.0))
        assert scaled == pytest.approx(c * nf, rel=1e-12)

    @pytest.mark.parametrize("mu", [1e-300, 1e300])
    def test_lorentz_norm_outside_the_floats_is_a_range_error(self, mu):
        # the 30th power of the breaks, which are measures, leaves the floats
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(NormRangeError, match="Lor:2,60"):
                lorentz_norm(CellField(np.linspace(0.0, 1e-6, 257), mu), Fraction(2), Fraction(60))

    @pytest.mark.parametrize(
        "text, named",
        [("L:1", "L:1"), ("L:2", "L:2"), ("Orl:pow:2", "L:2"), ("Lor:2,2", "Lor:2,2"), ("Lor:2,inf", "Lor:2,inf")],
    )
    def test_norm_beyond_the_floats_is_a_range_error(self, text, named):
        # |f| = 1e300 on 4 cells of measure 1e300: the norm and the integral
        # of f* leave the floats, which is a NormRangeError, with no numpy
        # warning on the way
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(NormRangeError, match=named):
                space_norm(SpaceDescriptor.parse(text), CellField(np.full(4, 1e300), 1e300))

    def test_luxemburg_exp_indicator(self):
        # rho(chi/lam) = e^(1/lam) - 1 = 1 at lam = 1/ln 2
        f = CellField(*indicator())
        assert luxemburg_norm(f, YoungFunction("exp")) == pytest.approx(1.0 / math.log(2.0), rel=1e-6)

    def test_zero_function_all_spaces(self):
        z = np.zeros(64)
        for text in ("L:2", "L:inf", "Lor:2,2", "Orl:exp"):
            assert space_norm(SpaceDescriptor.parse(text), CellField(z, 0.25)) == 0.0

    @pytest.mark.parametrize("text", ["L:1", "L:2", "L:inf", "Lor:2,2", "Lor:3/2,1", "Lor:2,inf", "Orl:pow:2", "Orl:exp"])
    def test_norm_axioms(self, text):
        space = SpaceDescriptor.parse(text)
        rng = np.random.default_rng(7)
        f = rng.normal(size=512)
        g = rng.normal(size=512)
        mu = 1.0 / 128.0
        nf = space_norm(space, CellField(f, mu))
        # homogeneity
        assert space_norm(space, CellField(3.0 * f, mu)) == pytest.approx(3.0 * nf, rel=1e-7)
        # triangle inequality
        assert space_norm(space, CellField(f + g, mu)) <= (nf + space_norm(space, CellField(g, mu))) * (1.0 + 1e-7)
        # lattice property
        assert space_norm(space, CellField(0.5 * np.abs(f), mu)) <= nf * (1.0 + 1e-7)

    def test_modular_overflow_raises(self):
        with pytest.raises(ModularRangeError) as err:
            modular(YoungFunction("exp"), CellField(np.array([1e6]), 1.0), scale=1e-3)
        assert err.value.argument == pytest.approx(1e9)
        # a power overflows in numpy, whose warning must not come out first
        with pytest.raises(ModularRangeError) as err:
            modular(YoungFunction("pow", (Fraction(3),)), CellField(np.array([1e200, 1.0]), 0.5))
        assert err.value.argument == pytest.approx(1e200)
        # every value is finite, their sum is not
        with pytest.raises(ModularRangeError, match="the sum is not finite"):
            modular(YoungFunction("pow", (Fraction(3),)), CellField(np.full(1000, 1e102), 1.0))

    def test_modular_outside_the_floats_term_by_term(self):
        # e^800 and the sum of 1000 terms of 1e306 overflow a double; at
        # these cell measures the modulars, 2.7e47 and 1e299, do not
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = modular(YoungFunction("exp"), CellField(np.array([800.0]), 1e-300))
            assert got == pytest.approx(math.exp(800.0 - 300.0 * math.log(10.0)), rel=1e-12)
            got = modular(YoungFunction("pow", (Fraction(3),)), CellField(np.full(1000, 1e102), 1e-10))
            assert got == pytest.approx(1e299, rel=1e-12)
            # a modular outside the floats still raises, at an argument beyond them too
            with pytest.raises(ModularRangeError) as err:
                modular(YoungFunction("exp"), CellField(np.array([1e300]), 1.0), scale=1e-300)
            assert err.value.argument == math.inf


def _product(x, y, theta):
    return cl_combine(SpaceDescriptor.parse(f"Orl:{x}"), SpaceDescriptor.parse(f"Orl:{y}"), theta).young


def bisection_luxemburg(values, cell_measure, young):
    """The Luxemburg norm by bisection on lambda, the oracle that
    norms.luxemburg_norm is checked against: double or halve from max|f|
    (at most 200 times) to a bracket, then bisect down to LUXEMBURG_REL_TOL;
    None where no bracket is found."""
    v = np.abs(np.asarray(values, dtype=float)).ravel()
    v = v[v > 0.0]
    if v.size == 0:
        return 0.0

    def rho(lam):
        try:
            return float(np.sum(young(v / lam)) * cell_measure)
        except OverflowError:
            return math.inf

    lo = hi = float(np.max(v))
    if rho(lo) > 1.0:
        for _ in range(200):
            hi *= 2.0
            if rho(hi) <= 1.0:
                break
            lo = hi
        else:
            return None
    else:
        for _ in range(200):
            lo *= 0.5
            if rho(lo) > 1.0:
                break
            hi = lo
        else:
            return None
    while hi - lo > LUXEMBURG_REL_TOL * hi:
        mid = 0.5 * (lo + hi)
        if rho(mid) > 1.0:
            lo = mid
        else:
            hi = mid
    return hi


def outer_evaluations(monkeypatch):
    """A list that gets one entry per luxemburg_norm call from here on: the
    number of level evaluations its Newton loop made."""
    counts, solve = [], norms_module._log_modular_root

    def counted(levels, *args):
        def evaluate(x, z):
            counts[-1] += 1
            return levels(x, z)

        counts.append(0)
        return solve(evaluate, *args)

    monkeypatch.setattr(norms_module, "_log_modular_root", counted)
    return counts


class TestLuxemburgSolver:
    YOUNG = {
        "pow:1": YoungFunction("pow", (Fraction(1),)),
        "pow:3/2": YoungFunction("pow", (Fraction(3, 2),)),
        "pow:2": _POW2,
        "pow:3": YoungFunction("pow", (Fraction(3),)),
        "exp": _EXP,
        "exp x pow:2": _EXP_POW2,
        "pow:3 x exp": _product("pow:3", "exp", Fraction(3, 4)),
        "powlog:2,1 x pow:2": YoungFunction("combined", factors=(_POWLOG, _POW2), theta=Fraction(1, 2)),
    }

    @pytest.mark.parametrize("name", sorted(YOUNG))
    def test_evaluations_on_corpus_fields(self, name, monkeypatch):
        # |u|, |u'| and |u''| of every bundled member at a 1D and a 2D grid
        # size of the default suite's order: a power takes one exact Newton
        # step from the flat-field start and one evaluation to confirm it;
        # the others took at most 6 (exp) and 5 (products, whose levels are
        # solved in the same loop) when measured
        young = self.YOUNG[name]
        budget = 2 if young.kind == "pow" else 6
        evaluations = outer_evaluations(monkeypatch)
        for dim, n in ((1, 1024), (2, 64)):
            for spec in members(dim):
                u = make_test_function(spec, grid_for_spec(spec, n))
                mu = u.grid.h if dim == 1 else u.grid.cell_area
                for order in (0, 1, 2):
                    luxemburg_norm(CellField(u.center_values(order), mu), young)
                    assert evaluations[-1] <= budget, (spec.name, order)

    # the largest number of log-modular evaluations over the fields below
    EXP_EVALUATIONS = {1e-4: 6, 1e-3: 5, 1.0 / 1024.0: 5, 0.1: 4}

    @pytest.mark.parametrize("mu", sorted(EXP_EVALUATIONS))
    def test_exp_evaluations_at_small_total_measure(self, mu, monkeypatch):
        # a small total measure puts the unit-modular scale where phi is
        # far from linear; the flat-field start is already in that regime
        rng = np.random.default_rng(0)
        evaluations = outer_evaluations(monkeypatch)
        for _ in range(20):
            f = CellField(rng.random(1024), mu)
            got = luxemburg_norm(f, _EXP)
            assert evaluations[-1] <= self.EXP_EVALUATIONS[mu]
            assert modular(_EXP, f, scale=got) <= 1.0
            assert modular(_EXP, f, scale=got * (1.0 - LUXEMBURG_REL_TOL)) > 1.0

    def test_flat_field_start_is_the_root(self, monkeypatch):
        # a field constant on its support is solved at its start: the first
        # evaluation meets the target, or a second confirms the step
        evaluations = outer_evaluations(monkeypatch)
        for young in (_EXP, _POWLOG, _EXP_POW2):
            for mu in (1e-300, 1e-4, 1.0, 1e300):
                f = CellField(np.repeat([2.5, 0.0], [100, 28]), mu)
                got = luxemburg_norm(f, young)
                # 100 mu phi(2.5 / root) = 1, and the result is nudged up
                root = 2.5 / young.inverse(0.01 / mu)
                assert got == pytest.approx(root * (1.0 + 0.01 * LUXEMBURG_REL_TOL), rel=1e-12, abs=0.0)
        assert max(evaluations) <= 2

    def test_combined_norm_makes_no_inner_solve(self, monkeypatch):
        # a combined function's levels are unknowns of the norm's own loop,
        # updated from its closed-form log-inverse: no Newton kernel runs
        spec = members(1)[0]
        u = make_test_function(spec, grid_for_spec(spec, 1024))
        f = CellField(u.center_values(0), u.grid.h)
        assert f.values.size == 1024
        calls, solve = [], spaces_module._newton

        def counted(fn, targets, start):
            calls.append(fn)
            return solve(fn, targets, start)

        monkeypatch.setattr(spaces_module, "_newton", counted)
        got = luxemburg_norm(f, _EXP_POW2)
        assert calls == []
        monkeypatch.undo()
        assert got == pytest.approx(bisection_luxemburg(f.values, f.cell_measure, _EXP_POW2), rel=LUXEMBURG_REL_TOL)

    @pytest.mark.parametrize("name", ["exp x pow:2", "pow:3 x exp", "powlog:2,1 x pow:2"])
    def test_combined_norms_of_large_fields_match_the_oracle(self, name):
        young = self.YOUNG[name]
        spec = members(1)[1]
        u = make_test_function(spec, grid_for_spec(spec, 16384))
        rng = np.random.default_rng(17)
        fields = [CellField(u.center_values(2), u.grid.h), CellField(rng.random(16384) * 1e3, 1e-4)]
        for f in fields:
            assert f.values.size == 16384
            want = bisection_luxemburg(f.values, f.cell_measure, young)
            assert luxemburg_norm(f, young) == pytest.approx(want, rel=LUXEMBURG_REL_TOL, abs=0.0)

    @pytest.mark.parametrize(
        "elasticity, match",
        [(1.0, "did not converge"), (math.inf, "slope is inf"), (math.nan, "slope is nan"), (0.0, "slope is 0")],
    )
    def test_loop_failures_are_inversion_errors(self, elasticity, match):
        # residuals that never settle, or a slope sum p e that is not
        # positive and finite, end the loop with no numpy warning
        rng = np.random.default_rng(0)

        def levels(x, z):
            return z, np.full_like(z, elasticity), rng.normal(size=z.size)

        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(YoungInversionError, match=match):
                norms_module._log_modular_root(levels, np.zeros(4), 0.0, 0.0, np.zeros(4))

    def test_norm_outside_the_floats_is_a_range_error(self):
        # exp at cell measure 1e300 puts the scale near 1e300 max|f|, and at
        # 1e-300 near max|f| / 690, which is subnormal for max|f| = 1e-306
        with pytest.raises(NormRangeError):
            luxemburg_norm(CellField(np.full(4, 1e10), 1e300), _EXP)
        with pytest.raises(NormRangeError):
            luxemburg_norm(CellField(np.full(4, 1e-306), 1e-300), _EXP)
        want = 1e-300 / math.log1p(0.25e300) * (1.0 + 0.01 * LUXEMBURG_REL_TOL)
        assert luxemburg_norm(CellField(np.full(4, 1e-300), 1e-300), _EXP) == pytest.approx(want, rel=1e-12, abs=0.0)

    def test_powlog_forward_stays_in_the_floats(self):
        # t^310 overflows at t = 10, but t^310 log(e + t)^-5 = 9.4e307 does not
        young = SpaceDescriptor.parse("Orl:powlog:310,-5").young
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            value = young(10.0)
            assert value == pytest.approx(9.4023e307, rel=1e-4)
            for top in (1.0, 10.0):
                f = CellField(np.linspace(0.0, top, 257), 1.0 / 256.0)
                norm = luxemburg_norm(f, young)
                assert math.isfinite(norm)
                assert modular(young, f, scale=norm) <= 1.0 < modular(young, f, scale=norm * (1.0 - LUXEMBURG_REL_TOL))
        with pytest.raises(OverflowError):
            young(11.0)


class TestFactorization:
    def test_equal_inputs_give_equality(self):
        vals, mu = step_function()
        x = SpaceDescriptor.parse("L:2")
        f = CellField(vals, mu)
        lhs, rhs, ok = cl_factorization_check(x, x, x, f, f, f, Fraction(1, 2))
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
        h, f, g = (CellField(v, mu) for v in (h, f, g))
        lhs, rhs, ok = cl_factorization_check(z, x, y, h, f, g, Fraction(1, 2))
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
        h, f, g = (CellField(v, mu) for v in (h, f, g))
        lhs, rhs, ok = cl_factorization_check(z, x, y, h, f, g, Fraction(1, 2))
        assert ok

    def test_zero_numerator_passes(self):
        mu = 0.25
        f = CellField(np.ones(16), mu)
        x = SpaceDescriptor.parse("L:2")
        lhs, _, ok = cl_factorization_check(x, x, x, CellField(np.zeros(16), mu), f, f, Fraction(1, 2))
        assert ok and lhs == 0.0

    def test_pointwise_violation_rejected(self):
        mu = 0.25
        f = np.ones(16)
        with pytest.raises(ValueError):
            cl_factorization_check(
                SpaceDescriptor.parse("L:2"),
                SpaceDescriptor.parse("L:2"),
                SpaceDescriptor.parse("L:2"),
                CellField(2.0 * f, mu),
                CellField(f, mu),
                CellField(f, mu),
                Fraction(1, 2),
            )


@st.composite
def young_products(draw):
    # exp x pow:q, or powlog:p,a x (exp or pow:q), either factor first
    q = draw(st.sampled_from([Fraction(3, 2), Fraction(2), Fraction(3)]))
    theta = Fraction(draw(st.integers(1, 63)), 64)
    factors = (_EXP, YoungFunction("pow", (q,)))
    if draw(st.booleans()):
        p = draw(st.sampled_from([Fraction(1), Fraction(3, 2), Fraction(2)]))
        a = draw(st.sampled_from([Fraction(0), Fraction(1), Fraction(2)]))
        factors = (YoungFunction("powlog", (p, a)), draw(st.sampled_from(factors)))
    if draw(st.booleans()):
        factors = factors[::-1]
    return YoungFunction("combined", factors=factors, theta=theta)


@settings(max_examples=40, derandomize=True, deadline=None, database=None)
@given(
    young=young_products(),
    values=st.lists(st.floats(1e-3, 1e2), min_size=1, max_size=64),
    c=st.floats(0.1, 10.0),
    t=st.floats(1e-6, 30.0),
)
# the derandomized draws leave out a = 0 and p = 2; pin them in both orders
@example(young=_product("powlog:2,0", "exp", Fraction(1, 3)), values=[0.5, 3.0, 40.0], c=2.5, t=7.0)
@example(young=_product("pow:3/2", "powlog:1,0", Fraction(1, 2)), values=[0.5, 3.0, 40.0], c=0.3, t=1e-3)
@example(young=_product("powlog:2,2", "pow:2", Fraction(3, 4)), values=[1e-3, 1.0, 90.0], c=4.0, t=25.0)
@example(young=_product("exp", "powlog:2,1", Fraction(1, 5)), values=[2.0], c=0.7, t=0.2)
def test_combined_orlicz_properties(young, values, c, t):
    space = SpaceDescriptor("orlicz", young=young)
    f = np.array(values)
    mu = 1.0 / 64.0
    nf = luxemburg_norm(CellField(f, mu), young)
    assert luxemburg_norm(CellField(c * f, mu), young) == pytest.approx(c * nf, rel=norm_tolerance(space))
    assert modular(young, CellField(f, mu), scale=nf) <= 1.0 + 1e-6
    assert young.inverse(young(t)) == pytest.approx(t, rel=1e-9)


@st.composite
def young_leaf_texts(draw):
    # pow:p, exp or powlog:p,a, with p >= 1; a powlog that its build check
    # refuses is not drawn
    kind = draw(st.sampled_from(["pow", "exp", "powlog"]))
    if kind == "exp":
        return "Orl:exp"
    p = 1 + Fraction(draw(st.integers(0, 400)), draw(st.sampled_from([1, 2, 3])))
    if kind == "pow":
        return f"Orl:pow:{p}"
    text = f"Orl:powlog:{p},{Fraction(draw(st.integers(-20, 100)), draw(st.sampled_from([1, 2, 4])))}"
    try:
        SpaceDescriptor.parse(text)
    except AdmissibilityError:
        reject()
    return text


@settings(max_examples=100, derandomize=True, deadline=None, database=None)
@given(
    leaves=st.lists(young_leaf_texts(), min_size=2, max_size=3),
    weights=st.lists(st.fractions(0, 1, max_denominator=16), min_size=2, max_size=2),
)
# three powlog leaves at flat weights 5/8, 1/8, 1/4, one of them bending
# sharply: the Newton kernel once bounced inside its bracket on this one
@example(
    leaves=["Orl:powlog:142/3,5", "Orl:powlog:139/2,25/2", "Orl:powlog:1,19"],
    weights=[Fraction(5, 6), Fraction(3, 4)],
)
@example(leaves=["Orl:powlog:1,15", "Orl:exp"], weights=[Fraction(1, 2), Fraction(1, 2)])
def test_a_product_of_young_functions_is_one(leaves, weights):
    # psi^{-1} = prod (phi_i^{-1})^(w_i) is a weighted geometric mean of
    # concave increasing functions, so it is concave and psi is a Young
    # function (Lozanovskii; Maligranda, Orlicz Spaces and Interpolation,
    # 1989).  Products are not checked at run time; this checks the
    # theorem with the grid check a powlog function gets when it is built
    spaces = [SpaceDescriptor.parse(text) for text in leaves]
    z = spaces[0]
    for space, theta in zip(spaces[1:], weights):
        z = cl_combine(z, space, theta)
    z.young._validate()


# index and exponent texts that parse, that do not, and that parse to a
# number no norm can read; the exponents are coarse, since the sampled
# oracle cannot tell apart functions within 1e-9 (powlog:2,1/1000000000
# and pow:2 are pinned in TestDescriptors instead)
_INDEX_TEXTS = ["1", "3/2", "6/4", "2", "4/2", "5/2", "3", "inf", "1/2", "1e999", "1/0", "abc"]
_EXPONENT_TEXTS = ["0", "0/5", "1", "2/2", "1/2", "-1/2", "2", "1e999", "1/0", "abc"]
_FAMILIES = ["L", "Lor", "Orl"]


@st.composite
def descriptor_texts(draw, family):
    index = st.sampled_from(_INDEX_TEXTS)
    if family == "L":
        return f"L:{draw(index)}"
    if family == "Lor":
        return f"Lor:{draw(index)},{draw(index)}"
    kind = draw(st.sampled_from(["pow", "powlog", "powlog", "exp"]))
    if kind == "pow":
        return f"Orl:pow:{draw(index)}"
    if kind == "powlog":
        return f"Orl:powlog:{draw(index)},{draw(st.sampled_from(_EXPONENT_TEXTS))}"
    return "Orl:exp"


def _parse_or_none(text):
    """The descriptor of ``text``, or None where it is refused; any other
    exception propagates."""
    try:
        return SpaceDescriptor.parse(text)
    except AdmissibilityError:
        return None


@st.composite
def descriptor_chains(draw, family):
    """Up to 4 descriptor texts of one family, the ones that parse combined
    in a nested chain at random weights, each factor on a random side;
    None when every text is refused."""
    texts = draw(st.lists(descriptor_texts(family), min_size=1, max_size=4))
    z = None
    for y in filter(None, map(_parse_or_none, texts)):
        if z is None:
            z = y
        # Lor:1,1 and Lor:inf,inf are Lebesgue spaces, which do not combine with Lorentz ones
        elif y.kind == z.kind:
            theta = draw(st.fractions(0, 1, max_denominator=6))
            z = cl_combine(z, y, theta) if draw(st.booleans()) else cl_combine(y, z, 1 - theta)
    return z


@st.composite
def descriptor_pairs(draw):
    """Two chains: half the first ones are Orlicz, and the second is of the
    first's family two times in three."""
    family = draw(st.sampled_from(["Orl"] + _FAMILIES))
    other = draw(st.sampled_from([family] * 3 + _FAMILIES))
    return draw(descriptor_chains(family)), draw(descriptor_chains(other))


def _same_space(a, b) -> bool:
    """The oracle: like kinds, with equal indices as floats, or Young
    functions whose sampled inverses agree."""
    if a.kind != b.kind:
        return False
    if a.kind == "orlicz":
        return young_inverses_agree(a.young, b.young)
    pairs = ((a.primary, b.primary), (a.secondary, b.secondary))
    return all(index_float(u) == index_float(v) for u, v in pairs if u is not None)


@settings(max_examples=400, derandomize=True, deadline=None, database=None)
@given(spaces=descriptor_pairs(), theta=st.fractions(0, 1, max_denominator=6))
@example(spaces=(SpaceDescriptor.parse("Orl:powlog:2,0"), SpaceDescriptor.parse("Orl:pow:2")), theta=Fraction(1, 2))
@example(spaces=(SpaceDescriptor.parse("Orl:exp"), SpaceDescriptor.parse("Orl:powlog:2,1")), theta=Fraction(1, 3))
@example(spaces=(SpaceDescriptor.parse("Lor:1,1"), SpaceDescriptor.parse("L:1")), theta=Fraction(1, 2))
def test_descriptor_equality_is_the_sampled_oracle(spaces, theta):
    # every drawn text parses or is refused with an AdmissibilityError;
    # descriptors are equal exactly where the oracle says so and equal ones
    # hash alike, on the draws and on products of them: a product does not
    # depend on its factors' order, and X^t (X^(1/2) Y^(1/2))^(1-t) is
    # X^((1+t)/2) Y^((1-t)/2)
    a, b = spaces
    if a is None or b is None:
        return
    pairs = [(a, b)]
    if a.kind == b.kind:
        ab, ba = cl_combine(a, b, theta), cl_combine(b, a, 1 - theta)
        nested = cl_combine(a, cl_combine(a, b, Fraction(1, 2)), theta)
        direct = cl_combine(a, b, (1 + theta) / 2)
        assert ab == ba and nested == direct
        pairs += [(ab, ba), (nested, direct), (ab, a), (ab, b), (nested, ab)]
    for x, y in pairs:
        assert (x == y) == _same_space(x, y)
        if x == y:
            assert hash(x) == hash(y)


@st.composite
def young_functions(draw):
    kind = draw(st.sampled_from(["pow", "exp", "powlog", "combined"]))
    if kind == "pow":
        p = draw(st.sampled_from([Fraction(1), Fraction(3, 2), Fraction(2), Fraction(8)]))
        return YoungFunction("pow", (p,))
    if kind == "powlog":
        p = draw(st.sampled_from([Fraction(1), Fraction(3, 2), Fraction(2)]))
        return YoungFunction("powlog", (p, draw(st.sampled_from([Fraction(0), Fraction(1), Fraction(2)]))))
    return _EXP if kind == "exp" else draw(young_products())


@st.composite
def positive_fields(draw):
    # magnitudes log-uniform between two exponents in [-150, 150]
    low = draw(st.integers(-150, 150))
    high = draw(st.integers(low, 150))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    return 10.0 ** rng.uniform(low, high, draw(st.integers(1, 4096)))


@settings(max_examples=60, derandomize=True, deadline=None, database=None)
@given(young=young_functions(), values=positive_fields(), mu=st.sampled_from([1e-4, 1.0 / 64.0, 1.0, 10.0]))
def test_luxemburg_matches_bisection_oracle(young, values, mu):
    want = bisection_luxemburg(values, mu, young)
    got = luxemburg_norm(CellField(values, mu), young)
    assert got == pytest.approx(want, rel=LUXEMBURG_REL_TOL, abs=0.0)
    assert modular(young, CellField(values, mu), scale=got) <= 1.0
    assert modular(young, CellField(values, mu), scale=got * (1.0 - LUXEMBURG_REL_TOL)) > 1.0


# powlog functions with a < 0 that are Young functions (convex) on every scale
_POWLOG_NEGATIVE = [
    YoungFunction("powlog", (Fraction(p), Fraction(a)))
    for p, a in (("3/2", "-1/2"), ("2", "-1"), ("3", "-2"), ("5", "-3"), ("310", "-5"))
]


@st.composite
def young_beyond_powers(draw):
    kind = draw(st.sampled_from(["exp", "powlog", "combined"]))
    if kind == "exp":
        return _EXP
    if kind == "powlog":
        return draw(st.sampled_from(_POWLOG_NEGATIVE))
    return draw(young_products())


@settings(max_examples=60, derandomize=True, deadline=None, database=None)
@given(
    young=young_beyond_powers(),
    values=st.lists(st.floats(1e-3, 1e3), min_size=1, max_size=64),
    mu=st.sampled_from([1e-300, 1e-12, 1e-4, 1.0, 1e12, 1e300]),
    log_c=st.floats(-300.0, 300.0),
)
@example(young=_POWLOG_NEGATIVE[-1], values=[1e-3, 10.0], mu=1e-300, log_c=0.0)
@example(young=_EXP, values=[1e-3, 1e3], mu=1e-300, log_c=-300.0)
@example(young=_EXP_POW2, values=[0.5, 2.0], mu=1e300, log_c=300.0)
def test_luxemburg_norm_at_every_scale(young, values, mu, log_c):
    # each norm is finite or a GnsparseError; where both are finite,
    # ||c f|| = c ||f||; each is the smallest scale with rho <= 1, to
    # LUXEMBURG_REL_TOL, and matches the oracle wherever that brackets
    c = 10.0**log_c
    norms = {}
    for scale in (1.0, c):
        values_at = scale * np.array(values)
        f = CellField(values_at, mu)
        try:
            norm = luxemburg_norm(f, young)
        except GnsparseError:
            continue
        assert math.isfinite(norm) and norm > 0.0
        assert modular(young, f, scale=norm) <= 1.0 < modular(young, f, scale=norm * (1.0 - LUXEMBURG_REL_TOL))
        want = bisection_luxemburg(values_at, mu, young)
        if want is not None:
            assert norm == pytest.approx(want, rel=LUXEMBURG_REL_TOL, abs=0.0)
        norms[scale] = norm
    if len(norms) == 2:
        assert norms[c] == pytest.approx(c * norms[1.0], rel=1e-8, abs=0.0)


@st.composite
def cell_fields(draw, measures=(1e-4, 1.0 / 64.0, 1.0, 10.0)):
    # a few repeated levels make plateaus wider than one cell; some cells are 0
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    n = draw(st.integers(1, 2048))
    levels = 10.0 ** rng.uniform(-3.0, 3.0, draw(st.integers(1, 64)))
    values = rng.choice(np.append(levels, 0.0), n) * rng.choice([1.0, -1.0], n)
    return CellField(values, draw(st.sampled_from(measures)))


@settings(max_examples=200, derandomize=True, deadline=None, database=None)
@given(f=cell_fields(), P=st.sampled_from([Fraction(101, 100), Fraction(3, 2), Fraction(2), Fraction(5)]))
def test_weak_lorentz_norm_matches_the_plateau_loop(f, P):
    want = loop_weak_lorentz_norm(f, P)
    got = lorentz_norm(f, P, INF)
    assert abs(got - want) <= 1e-15 * want


@settings(max_examples=200, derandomize=True, deadline=None, database=None)
@given(
    f=cell_fields(measures=(1e-6, 1e-4, 1.0 / 64.0, 1.0, 10.0, 1e4)),
    P=st.sampled_from([Fraction(101, 100), Fraction(3, 2), Fraction(2), Fraction(9, 4), Fraction(3)]),
    q=st.integers(1, 15),
)
# the log term: p/P - i = 0 for some i
@example(f=CellField(np.repeat([3.0, 2.0, 0.5, 0.0], [5, 40, 300, 7]), 1e-6), P=Fraction(2), q=2)
@example(f=CellField(np.repeat([3.0, 2.0, 0.5, 0.0], [5, 40, 300, 7]), 1e4), P=Fraction(3, 2), q=3)
@example(f=CellField(np.repeat([7.0, 1.0, 0.25], [1, 2, 2000]), 1.0), P=Fraction(9, 4), q=9)
def test_binomial_lorentz_matches_the_quadrature(f, P, q):
    want = quadrature_lorentz_norm(f, P, q)
    assert lorentz_norm(f, P, Fraction(q)) == pytest.approx(want, rel=1e-13)


@settings(max_examples=200, derandomize=True, deadline=None, database=None)
@given(
    f=cell_fields(measures=(1e-4, 1e-2, 1.0, 1e2)),
    P=st.sampled_from([Fraction(101, 100), Fraction(3, 2), Fraction(2), Fraction(9, 4), Fraction(3)]),
    q=st.integers(1, 15),
)
# a plateau of ratio 6 next to the pole of f** at t = 0, and one of ratio 667
@example(f=CellField(np.repeat([2.0, 1.0], [1, 5]), 1.0), P=Fraction(3), q=15)
@example(f=CellField(np.repeat([7.0, 1.0, 0.25], [1, 2, 2000]), 1.0), P=Fraction(3), q=5)
def test_log_quadrature_matches_the_binomial_sum(f, P, q):
    # an integer q takes the binomial sum in lorentz_norm; here it is forced
    # through the quadrature that every other q takes, on the same plateaus
    t = f.breaks[1:]
    A = f.cum_integral[1:-1] - f.breaks[1:-1] * f.heights[1:]
    v = f.heights[1:]
    alpha = Fraction(q) / P
    want = _binomial_plateaus(t, A, v, 1.0, q, alpha)
    got = _quadrature_plateaus(t, A, v, 1.0, float(q), float(alpha))
    assert abs(got - want) <= 1e-13 * want
