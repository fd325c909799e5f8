"""Interpolation-ratio harness: GN reports, the first-order chain, exponent
algebra, and the corpus runner."""

import dataclasses
import functools
import gc
import math
import os
import re
import tracemalloc
import weakref
from collections import Counter
from fractions import Fraction

import numpy as np
import pytest

from gnsparse import gn as gn_module
from gnsparse import norms as norms_module
from gnsparse import operator as operator_module
from gnsparse import rearrangement as rearrangement_module
from gnsparse import spaces as spaces_module
from gnsparse import testfunctions as testfunctions_module
from gnsparse.errors import AdmissibilityError, ConstructionError, CorpusConfigError
from gnsparse.gn import (
    CHECK_NAMES,
    CaseResult,
    GNCase,
    first_order_chain_check,
    gn_ratio,
    induction_identity_check,
    run_case,
    run_corpus,
)
from gnsparse.operator import CellFamily, apply_sparse_operator, operator_norm_check
from gnsparse.rearrangement import CellField
from gnsparse.spaces import SpaceDescriptor, cl_combine
from gnsparse.testfunctions import TestFunctionSpec, make_test_function

from corpus import member, members, run_config

P = SpaceDescriptor.parse
ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

GAUSS = TestFunctionSpec(
    family="gaussian", center=0.0, width=1.0, amplitude=1.0, window=(-6.0, 6.0), name="gauss"
)
BUMP = TestFunctionSpec(
    family="smooth-bump", center=0.0, width=1.0, amplitude=1.0, window=(-1.5, 1.5), name="bump"
)


def case_1d(spec, x, y, j=1, k=2, mode="pure", n=256):
    return GNCase(spec=spec, j=j, k=k, x_space=P(x), y_space=P(y), mode=mode, n=n)


def record_families(monkeypatch):
    """Wrap gn's two family builds; the returned list receives every family
    they build."""
    families = []
    for name in ("build_family_1d", "build_family_2d"):

        def recorded(*args, build=getattr(gn_module, name)):
            families.append(build(*args))
            return families[-1]

        monkeypatch.setattr(gn_module, name, recorded)
    return families


class TestGNCase:
    def test_order_validation(self):
        with pytest.raises(AdmissibilityError):
            case_1d(GAUSS, "L:2", "L:2", j=2, k=2)
        with pytest.raises(AdmissibilityError):
            case_1d(GAUSS, "L:2", "L:2", j=1, k=4)
        with pytest.raises(AdmissibilityError):
            case_1d(GAUSS, "L:2", "L:2", j=0, k=1)

    def test_mode_and_axis_validation(self):
        with pytest.raises(AdmissibilityError):
            case_1d(GAUSS, "L:2", "L:2", mode="mixed")
        with pytest.raises(AdmissibilityError):
            GNCase(spec=GAUSS, j=1, k=2, x_space=P("L:2"), y_space=P("L:2"), axis=2)

    def test_space_kinds_must_match(self):
        with pytest.raises(AdmissibilityError):
            case_1d(GAUSS, "L:2", "Lor:2,2")

    def test_case_id_carries_the_discriminating_fields(self):
        case = case_1d(GAUSS, "Lor:3,2", "Lor:2,2", j=1, k=3, n=512)
        assert case.case_id() == "gauss-pure-j1k3-Lor:3,2-Lor:2,2-n512"
        assert case.theta == Fraction(1, 3)

    def test_case_id_includes_axis_for_2d(self):
        spec = member("p1")
        case = GNCase(spec=spec, j=1, k=2, x_space=P("L:2"), y_space=P("L:2"), axis=2, n=128)
        assert "-ax2-" in case.case_id()


class TestGNRatio:
    def test_zero_function_has_ratio_zero(self):
        silent = dataclasses.replace(BUMP, amplitude=0.0)
        report = gn_ratio(case_1d(silent, "L:2", "L:2"))
        assert report.lhs == 0.0
        assert report.ratio == 0.0
        assert report.stable

    def test_gaussian_l2_ratio_at_most_one(self):
        # integration by parts: int u'^2 = -int u u'' <= ||u||_2 ||u''||_2,
        # so the sharp constant for this pairing is 1
        report = gn_ratio(case_1d(GAUSS, "L:2", "L:2", n=512))
        assert report.z_space == P("L:2")
        assert 0.5 < report.ratio <= 1.0 + 1e-3
        assert report.stable

    def test_bump_l1_ratio_finite_and_stable(self):
        report = gn_ratio(case_1d(BUMP, "L:1", "L:1", n=512))
        assert 0.0 < report.ratio < 10.0
        assert report.drift <= 0.01
        assert report.stable

    @pytest.mark.parametrize(
        "x, y",
        [("L:2", "L:2"), ("Lor:2,2", "Lor:2,2"), ("Orl:pow:2", "Orl:pow:2"), ("L:2", "L:1"), ("Lor:2,60", "Lor:2,60")],
    )
    def test_scale_invariance(self, x, y):
        # Lor:2,60 takes 60th powers of the values, which leave the floats
        # at these amplitudes unless the norm is taken scale-free
        base = gn_ratio(case_1d(GAUSS, x, y)).ratio
        assert 0.0 < base < math.inf
        for amplitude in (3.0, 1e-6, 1e6):
            scaled = gn_ratio(case_1d(dataclasses.replace(GAUSS, amplitude=amplitude), x, y)).ratio
            assert abs(scaled - base) <= 1e-9 * base, amplitude

    @pytest.mark.parametrize("p", ["L:1", "L:2"])
    def test_dilation_coherence(self, p):
        # u(x) -> u(2x) with the window shrunk to match keeps the same point
        # density; the GN exponents are scaling-critical so the ratio holds
        narrow = dataclasses.replace(GAUSS, width=0.5, window=(-3.0, 3.0))
        wide = gn_ratio(case_1d(GAUSS, p, p, n=512)).ratio
        squeezed = gn_ratio(case_1d(narrow, p, p, n=512)).ratio
        assert abs(squeezed - wide) <= 0.01 * wide

    def test_modes_coincide_in_1d(self):
        reports = [gn_ratio(case_1d(BUMP, "L:2", "L:1", mode=m)) for m in ("pure", "gradient", "pure-sum")]
        assert reports[0].ratio == reports[1].ratio == reports[2].ratio

    def test_pure_lhs_below_gradient_lhs_in_2d(self):
        spec = member("p1")
        pure = gn_ratio(GNCase(spec=spec, j=1, k=2, x_space=P("L:2"), y_space=P("L:2"), mode="pure", n=128))
        grad = gn_ratio(GNCase(spec=spec, j=1, k=2, x_space=P("L:2"), y_space=P("L:2"), mode="gradient", n=128))
        assert pure.lhs <= grad.lhs * (1.0 + 1e-6)

    def test_third_order_case(self):
        report = gn_ratio(case_1d(GAUSS, "L:2", "L:2", j=1, k=3, n=512))
        assert report.z_space == cl_combine(P("L:2"), P("L:2"), Fraction(1, 3))
        assert 0.0 < report.ratio < 10.0
        assert report.stable


    def test_refinement_rerun_keeps_no_center_field(self):
        # the rerun's 2n sample holds no node field; one center field at a
        # time, its absolute value and the Luxemburg norm's temporaries come
        # to about four fields, sampling the three node fields adds three,
        # and keeping the three center fields until the rerun ends two more
        spec = member("r1")
        case = GNCase(spec=spec, j=1, k=2, x_space=P("Orl:pow:2"), y_space=P("Orl:pow:2"), n=128)
        u = make_test_function(spec, case.n)
        for order in (0, case.j, case.k):
            u.center_values(order)
        field = (2 * case.n) ** 2 * 8  # bytes of one float64 field at 2n
        started = not tracemalloc.is_tracing()
        if started:
            tracemalloc.start()
        try:
            tracemalloc.reset_peak()
            before = tracemalloc.get_traced_memory()[0]
            gn_ratio(case, u)
            peak = tracemalloc.get_traced_memory()[1] - before
        finally:
            if started:
                tracemalloc.stop()
        assert peak < 5 * field

    @pytest.mark.parametrize("axis", [1, 2])
    def test_gradient_fields_are_summed_in_place(self, axis):
        # the partials evaluated for a gradient field are made absolute and
        # summed in their own arrays: with the own field and the norms'
        # temporaries the rerun peaks at about four fields of 2n, where a
        # copy per partial and per partial sum made five
        spaces = dict(x_space=P("L:2"), y_space=P("L:2"))
        case = GNCase(spec=member("p1"), j=1, k=2, mode="gradient", axis=axis, n=256, **spaces)
        u = make_test_function(case.spec, case.n, axis=axis)
        for order in (0, case.j, case.k):
            u.center_values(order)
        field = (2 * case.n) ** 2 * 8  # bytes of one float64 field at 2n
        started = not tracemalloc.is_tracing()
        if started:
            tracemalloc.start()
        try:
            tracemalloc.reset_peak()
            before = tracemalloc.get_traced_memory()[0]
            gn_ratio(case, u)
            peak = tracemalloc.get_traced_memory()[1] - before
        finally:
            if started:
                tracemalloc.stop()
        assert peak < 4.5 * field

    @pytest.mark.parametrize("dim", [1, 2])
    def test_refinement_rerun_evaluates_no_node_field(self, dim, monkeypatch):
        # the 2n sample is read only at cell centers
        if dim == 1:
            case = case_1d(BUMP, "L:1", "L:1", n=256)
        else:
            case = GNCase(spec=member("p1"), j=1, k=2, x_space=P("L:2"), y_space=P("L:2"), n=64)
        sizes = []

        def recording(make):
            def make_recorded(spec):
                evaluate = make(spec)

                def recorded(*args):
                    sizes.append(args[dim - 1].shape[-1])
                    return evaluate(*args)

                return recorded

            return make_recorded

        for name in ("make_evaluator_1d", "make_evaluator_2d"):
            monkeypatch.setattr(testfunctions_module, name, recording(getattr(testfunctions_module, name)))
        gn_ratio(case)
        # the last axis of every lattice has one point per cell: n + 1 would be nodes
        assert set(sizes) == {case.n, 2 * case.n}


class TestFirstOrderChain:
    def test_chain_links_on_the_bump(self):
        u = make_test_function(BUMP, 512)
        report = first_order_chain_check(u, P("L:1"), P("L:1"))
        names = [link.name for link in report.links]
        assert names == ["pointwise-to-norm", "factorization", "operator-x", "operator-y", "end-to-end"]
        for link in report.links:
            assert link.ok, (link.name, link.lhs, link.rhs)
        assert report.ok
        assert report.overlap <= 3
        assert report.pointwise_max <= 1.0

    @pytest.mark.parametrize("spec", members(1), ids=lambda s: s.name)
    def test_chain_holds_across_the_corpus(self, spec):
        u = make_test_function(spec, 512)
        report = first_order_chain_check(u, P("L:2"), P("L:1"))
        assert report.ok, [l.name for l in report.links if not l.ok]

    def test_chain_rejects_2d_input(self):
        spec = member("p1")
        u = make_test_function(spec, 64)
        with pytest.raises(ConstructionError):
            first_order_chain_check(u, P("L:1"), P("L:1"))


class TestLorentzParameterSolve:
    """cl_combine at theta = j/k solves j/P + (k-j)/Q = k/R and
    j/p + (k-j)/q = k/r for the combined indices (R, r)."""

    def test_all_l1(self):
        assert cl_combine(P("L:1"), P("L:1"), Fraction(1, 2)) == P("L:1")

    def test_half_plus_quarter(self):
        z = cl_combine(P("Lor:2,2"), P("Lor:4,4"), Fraction(1, 2))
        assert (z.primary, z.secondary) == (Fraction(8, 3), Fraction(8, 3))

    def test_reciprocal_of_infinity_is_zero(self):
        assert cl_combine(P("L:inf"), P("L:2"), Fraction(1, 2)) == P("L:4")

    def test_agrees_with_combined_descriptor(self):
        combined = cl_combine(P("Lor:3,2"), P("Lor:2,2"), Fraction(1, 3))
        assert combined == SpaceDescriptor("lorentz", primary=Fraction(9, 4), secondary=Fraction(2))


class TestInductionIdentities:
    def test_equal_spaces_are_trivially_consistent(self):
        for k in (3, 4):
            result = induction_identity_check(P("L:2"), P("L:2"), k)
            assert result.ok and result.failures == ()

    def test_lebesgue_one_three(self):
        # 1/R on the left: (2/3)*1 + (1/3)*(1/3) = 7/9; the composed route
        # goes through 1/3 + 2/9 = 5/9 and lands on the same 7/9
        assert cl_combine(P("L:1"), P("L:3"), Fraction(2, 3)) == P("L:9/7")
        result = induction_identity_check(P("L:1"), P("L:3"), 3)
        assert result.ok, result.failures

    def test_lorentz_pair(self):
        result = induction_identity_check(P("Lor:3,2"), P("Lor:3/2,1"), 3)
        assert result.ok, result.failures

    def test_orlicz_powers(self):
        result = induction_identity_check(P("Orl:pow:1"), P("Orl:pow:3"), 3)
        assert result.ok, result.failures

    def test_k_four_includes_the_interior_step(self):
        result = induction_identity_check(P("L:1"), P("L:4"), 4)
        assert result.ok, result.failures
        result = induction_identity_check(P("Orl:pow:2"), P("Orl:exp"), 4)
        assert result.ok, result.failures

    def test_orlicz_identities_are_not_a_tautology(self, monkeypatch):
        # both sides of a combined identity are interned by their flat form,
        # so they are one object when the exponent rule is right; a wrong
        # rule gives a different flat form, which the sampled comparison
        # must reject
        monkeypatch.setattr(spaces_module, "_COMBINED", {})
        x, y = P("Orl:exp"), P("Orl:pow:2")
        for k in (3, 4):
            assert induction_identity_check(x, y, k).ok
        rule = spaces_module._product_leaves

        def swapped(a, b, theta):
            # X^b (X^a Y^(1-a))^(1-b) read with the weights of X and Y exchanged
            leaves = rule(a, b, theta)
            if "combined" not in (a.kind, b.kind):
                return leaves
            (xa, wx), (ya, wy) = leaves
            return ((xa, wy), (ya, wx))

        monkeypatch.setattr(spaces_module, "_COMBINED", {})
        monkeypatch.setattr(spaces_module, "_product_leaves", swapped)
        for k in (3, 4):
            result = induction_identity_check(x, y, k)
            assert not result.ok
            assert result.failures[0].startswith(f"step-down identity at k={k}")

    def test_orlicz_products_are_compared_unsolved(self, monkeypatch):
        # both sides of every identity are one interned object, compared
        # without an evaluation: no product is validated or solved
        monkeypatch.setattr(spaces_module, "_COMBINED", {})

        def refuse(*args):
            raise AssertionError("a product was validated or solved")

        monkeypatch.setattr(spaces_module.YoungFunction, "_validate", refuse)
        monkeypatch.setattr(spaces_module, "_newton", refuse)
        for k in (3, 4):
            assert induction_identity_check(P("Orl:exp"), P("Orl:pow:2"), k).ok
        assert len(spaces_module._COMBINED) == 5

    def test_starts_at_three(self):
        with pytest.raises(AdmissibilityError):
            induction_identity_check(P("L:1"), P("L:2"), 2)

    def test_mixed_kinds_rejected(self):
        with pytest.raises(AdmissibilityError):
            induction_identity_check(P("L:2"), P("Orl:pow:2"), 3)


class TestRunCorpus:
    def test_empty_corpus(self):
        assert run_corpus([], ("gn",)) == []

    def test_unknown_check_rejected(self):
        with pytest.raises(ValueError):
            run_corpus([case_1d(BUMP, "L:1", "L:1")], ("gn", "sparsity"))

    def test_order_preserved_and_verdicts_named(self):
        cases = [case_1d(BUMP, "L:1", "L:1"), case_1d(GAUSS, "L:2", "L:2")]
        results = run_corpus(cases, ("overlap", "gn"))
        assert [r.case.spec.name for r in results] == ["bump", "gauss"]
        for result in results:
            assert [name for name, _ in result.verdicts] == ["overlap", "gn"]
            assert result.passed
            assert result.first_failure() is None

    def test_all_checks_pass_on_the_bump(self):
        result = run_case(case_1d(BUMP, "L:1", "L:1"), CHECK_NAMES)
        assert dict(result.verdicts) == {name: "pass" for name in CHECK_NAMES}
        assert result.overlap_max == 3
        assert result.pointwise_max is not None and result.pointwise_max <= 128.0
        assert len(result.intervals)

    def test_all_checks_pass_in_a_large_orlicz_power(self):
        case = GNCase(spec=member("b1"), j=1, k=2, x_space=P("Orl:pow:200"), y_space=P("Orl:pow:200"))
        result = run_case(case, CHECK_NAMES)
        assert dict(result.verdicts) == {name: "pass" for name in CHECK_NAMES}

    @pytest.mark.parametrize("checks", [CHECK_NAMES, ("gn",)])
    def test_case_samples_once_per_resolution(self, checks, monkeypatch):
        # the family build and the GN ratio share the sample at n; only the
        # refinement rerun samples again, at 2n
        sampled = []

        def counting(spec, n, **kwargs):
            sampled.append(n)
            return make_test_function(spec, n, **kwargs)

        case = case_1d(BUMP, "L:1", "L:1")
        monkeypatch.setattr(gn_module, "make_test_function", counting)
        result = run_case(case, checks)
        assert sampled == [256, 512]
        assert result.report == gn_ratio(case)

    @pytest.mark.parametrize("dim", [1, 2])
    def test_case_averages_once_per_field(self, dim, monkeypatch):
        # one CellFamily per case, T applied to |u| and |u''| once each, and
        # Z combined once, shared by the Z text and the GN ratio
        if dim == 1:
            case = case_1d(BUMP, "L:1", "L:1")
        else:
            spec = member("p1")
            case = GNCase(spec=spec, j=1, k=2, x_space=P("L:2"), y_space=P("L:2"), n=128)
        built, averaged, combined = [], [], []
        inside_induction = []

        for attr in ("from_intervals", "from_masks"):
            method = getattr(CellFamily, attr).__func__

            def build(cls, *args, method=method, **kwargs):
                built.append(method.__name__)
                return method(cls, *args, **kwargs)

            monkeypatch.setattr(CellFamily, attr, classmethod(build))

        def average(family, values):
            averaged.append(values)
            return apply_sparse_operator(family, values)

        def combine(*args):
            if not inside_induction:
                combined.append(args)
            return cl_combine(*args)

        def induction(*args):
            inside_induction.append(True)
            try:
                return induction_identity_check(*args)
            finally:
                inside_induction.pop()

        monkeypatch.setattr(gn_module, "apply_sparse_operator", average)
        monkeypatch.setattr(operator_module, "apply_sparse_operator", average)
        monkeypatch.setattr(gn_module, "cl_combine", combine)
        monkeypatch.setattr(gn_module, "induction_identity_check", induction)
        result = run_case(case, CHECK_NAMES)
        assert result.passed, result.verdicts
        assert built == ["from_intervals" if dim == 1 else "from_masks"]
        assert len(averaged) == 2
        assert averaged[0] is not averaged[1]
        assert len(combined) == 1
        assert result.z_text == result.report.z_space.format()

    @pytest.mark.parametrize("dim, mode", [(1, "pure"), (2, "pure"), (2, "pure-sum"), (2, "gradient")])
    def test_case_evaluates_each_center_field_once(self, dim, mode, monkeypatch):
        # the family build, its verification, T|u|, T|u''| and the GN norms
        # all read the center fields that the sample at n stores; a 2D
        # lattice is evaluated in row blocks, so a pass over the centers
        # is counted at its block that starts at row 0
        if dim == 1:
            case = case_1d(BUMP, "L:1", "L:1")
        else:
            spec = member("p1")
            case = GNCase(spec=spec, j=1, k=2, x_space=P("L:2"), y_space=P("L:2"), mode=mode, n=128)
        at_centers = Counter()

        def counting_sample(spec, n, axis=1):
            u = make_test_function(spec, n, axis)
            if n != case.n:
                return u
            if u.dim == 1:
                centers = [u.grid.centers()]
            else:
                cx, cy = u.grid.gx.centers(), u.grid.gy.centers()
                centers = [cx[: u.BLOCK_ROWS, None], cy[None, :]]
            evaluate = u.evaluate

            def counted(*args):
                points, orders = args[: u.dim], args[u.dim]
                if all(p.shape == c.shape and np.array_equal(p, c) for p, c in zip(points, centers)):
                    at_centers.update(orders)
                return evaluate(*args)

            u.evaluate = counted
            return u

        monkeypatch.setattr(gn_module, "make_test_function", counting_sample)
        result = run_case(case, CHECK_NAMES)
        assert result.passed, result.verdicts
        assert at_centers and max(at_centers.values()) == 1, at_centers

    def test_1d_case_evaluates_the_centers_once_per_resolution(self, monkeypatch):
        # every center order the checks read at n comes from one evaluator
        # call, and so do the GN rerun's three orders at 2n
        case = case_1d(BUMP, "L:1", "L:1")
        calls = Counter()

        def counting_sample(spec, n, axis=1):
            u = make_test_function(spec, n, axis)
            centers, evaluate = u.grid.centers(), u.evaluate

            def counted(x, orders):
                if x.shape == centers.shape and np.array_equal(x, centers):
                    calls[n] += 1
                return evaluate(x, orders)

            u.evaluate = counted
            return u

        monkeypatch.setattr(gn_module, "make_test_function", counting_sample)
        result = run_case(case, CHECK_NAMES)
        assert result.passed, result.verdicts
        assert calls == {case.n: 1, 2 * case.n: 1}

    @pytest.mark.parametrize("dim", [1, 2])
    def test_case_takes_each_field_absolute_once_and_sorts_it_once(self, dim, monkeypatch):
        # a field holds |f| from its constructor on: the norms, the operator
        # and the GN steps neither take np.abs of its values nor wrap them
        # in a new field, and no field is sorted into f* twice.  |u| and
        # |u''| at n are built once for the operator checks and the GN
        # ratio, and T f and the sums of absolute partials are stored
        # without a copy through np.abs, so the 1D case takes 6 absolute
        # values where it took 10, and the 2D gradient case 12 where it took 20
        if dim == 1:
            case = case_1d(BUMP, "Lor:2,2", "Lor:3,2")
        else:
            x, y = P("Lor:2,2"), P("Lor:3,2")
            case = GNCase(spec=member("p1"), j=1, k=2, x_space=x, y_space=y, mode="gradient", n=128)
        fields, again, sorts, absolute = [], [], [], []

        def of_a_field(array):
            return isinstance(array, np.ndarray) and any(np.shares_memory(array, f.values) for f in fields)

        init = CellField.__init__

        def tracked(field, values, cell_measure):
            if of_a_field(values):
                again.append("CellField")
            init(field, values, cell_measure)
            fields.append(field)

        build = CellField._plateaus.func

        def counted(field):
            sorts.append((field.values.tobytes(), field.cell_measure))
            return build(field)

        plateaus = functools.cached_property(counted)
        plateaus.__set_name__(CellField, "_plateaus")

        class Numpy:
            def __getattr__(self, name):
                return getattr(np, name)

            @staticmethod
            def abs(x, *args, **kwargs):
                if of_a_field(x):
                    again.append("np.abs")
                if np.size(x):
                    absolute.append(np.size(x))
                return np.abs(x, *args, **kwargs)

        monkeypatch.setattr(CellField, "__init__", tracked)
        monkeypatch.setattr(CellField, "_plateaus", plateaus)
        for module in (norms_module, operator_module, gn_module, rearrangement_module):
            monkeypatch.setattr(module, "np", Numpy())
        result = run_case(case, CHECK_NAMES)
        assert result.passed, result.verdicts
        assert again == []
        assert len(absolute) == {1: 6, 2: 12}[dim], absolute
        # Z, X and Y are Lorentz spaces: the GN norms sort three fields at n and three at 2n
        assert len(sorts) >= 6, len(sorts)
        assert len(set(sorts)) == len(sorts)

    def test_induction_runs_once_per_space_pair(self, monkeypatch):
        # the induction verdict depends on X and Y alone: the bundled suite's
        # 27 cases hold 7 pairs, each checked at k = 3 and 4, and every case
        # gets the verdict a run of its own gives
        cases = run_config().cases
        alone = [run_case(case, ("induction",)).verdicts for case in cases]
        calls = []

        def counted(x, y, k):
            calls.append((x.format(), y.format(), k))
            return induction_identity_check(x, y, k)

        monkeypatch.setattr(gn_module, "induction_identity_check", counted)
        results = run_corpus(cases, ("induction",))
        assert [result.verdicts for result in results] == alone
        pairs = {(case.x_space.format(), case.y_space.format()) for case in cases}
        assert len(pairs) == 7
        assert sorted(calls) == sorted((x, y, k) for x, y in pairs for k in (3, 4))

    def test_induction_runs_once_per_space_pair_across_processes(self, monkeypatch, forced_fork):
        # a forked worker fills only its own copy of the verdicts, and its
        # calls are not counted here: every pair is checked before the fork
        self.test_induction_runs_once_per_space_pair(monkeypatch)
        assert forced_fork

    def test_z_is_combined_on_first_use(self, monkeypatch):
        # building a case combines nothing; a combination that fails is the
        # case's error verdict
        def refuse(*args):
            raise AdmissibilityError("refused")

        monkeypatch.setattr(gn_module, "cl_combine", refuse)
        case = case_1d(BUMP, "L:1", "L:1")
        result = run_case(case, ("overlap", "gn"))
        assert result.error == "AdmissibilityError: refused"
        assert result.verdicts == (("overlap", "error"), ("gn", "error"))

    def test_only_package_errors_become_verdicts(self, monkeypatch):
        def raising(exc):
            def check(*args, **kwargs):
                raise exc

            return check

        case = case_1d(BUMP, "L:1", "L:1")
        monkeypatch.setattr(gn_module, "verify_pointwise_1d", raising(ConstructionError("refused")))
        result = run_case(case, ("overlap", "pointwise", "gn"))
        assert result.error == "ConstructionError: refused"
        assert result.verdicts == (("overlap", "pass"), ("pointwise", "error"), ("gn", "pass"))
        # anything else is a programming error and fails loudly
        monkeypatch.setattr(gn_module, "verify_pointwise_1d", raising(ValueError("bug")))
        with pytest.raises(ValueError, match="bug"):
            run_case(case, ("overlap", "pointwise", "gn"))

    def test_overlap_limit_violation_is_named(self, monkeypatch):
        # the verdict names a cell, and its center, where the family's cell
        # count is its maximum
        families = record_families(monkeypatch)
        monkeypatch.setattr(gn_module, "OVERLAP_LIMIT_1D", 2)
        result = run_case(case_1d(BUMP, "L:1", "L:1"), ("overlap",))
        assert not result.passed
        name, verdict = result.first_failure()
        assert name == "overlap"
        match = re.fullmatch(r"fail: overlap (\d+) > 2 at cell (\d+) \(x=(.+)\)", verdict)
        cell = int(match[2])
        assert float(match[3]) == make_test_function(BUMP, 256).grid.centers()[cell]
        (family,) = families
        assert int(match[1]) == family.cells.max_overlap == family.cells.counts[cell]

    def test_overlap_limit_violation_names_a_2d_cell(self, monkeypatch):
        families = record_families(monkeypatch)
        monkeypatch.setattr(gn_module, "OVERLAP_LIMIT_2D", 0)
        case = GNCase(spec=member("p1"), j=1, k=2, x_space=P("L:2"), y_space=P("L:2"), n=128)
        name, verdict = run_case(case, ("overlap",)).first_failure()
        assert name == "overlap"
        match = re.fullmatch(r"fail: overlap (\d+) > 0 at cell \((\d+), (\d+)\)", verdict)
        (family,) = families
        cell = np.ravel_multi_index((int(match[2]), int(match[3])), family.d1c.shape)
        assert int(match[1]) == family.cells.max_overlap == family.cells.counts[cell]

    def test_default_suite_overlap_is_the_operator_constant(self, monkeypatch):
        # on every bundled case the reported overlap-max is the overlap of
        # the family's cells, which is the K the operator-norm check uses
        families, constants = record_families(monkeypatch), []

        def check(cells, f, tf):
            constants.append(cells.max_overlap)
            return operator_norm_check(cells, f, tf)

        monkeypatch.setattr(gn_module, "operator_norm_check", check)
        cases = run_config().cases
        assert len(cases) == 27
        for case in cases:
            families.clear()
            constants.clear()
            result = run_case(case, CHECK_NAMES)
            assert result.passed, result.verdicts
            (family,) = families
            assert len(constants) == 2
            assert {result.overlap_max} == {family.cells.max_overlap} == set(constants), case.case_id()

    def test_understated_constant_fails_every_default_1d_case(self, monkeypatch):
        # with K lowered by one, int_0^t (T f)* <= K int_0^t f* breaks on
        # every bundled 1D case, for |u''| (operator-norm) and |u| (modular)
        def understated(*args, build=gn_module.build_family_1d):
            family = build(*args)
            family.cells.max_overlap -= 1
            return family

        monkeypatch.setattr(gn_module, "build_family_1d", understated)
        cases = [case for case in run_config().cases if case.dim == 1]
        assert len(cases) == 21
        for case in cases:
            verdicts = dict(run_case(case, ("operator-norm", "modular")).verdicts)
            for name, label in (("operator-norm", "T|u''|"), ("modular", "T|u|")):
                match = re.fullmatch(rf"fail: {re.escape(label)} majorization ratio (\S+) > 1\+1e-12", verdicts[name])
                assert match and float(match[1]) > 1.4, (case.case_id(), verdicts[name])

    def test_zero_2d_function_passes_with_no_slab(self):
        # the zero function has no level to skip, so its empty family is no error
        spec = TestFunctionSpec(
            family="smooth-bump", center=(0.0, 0.0), width=(1.0, 1.0),
            amplitude=0.0, window=((-1.5, 1.5), (-1.5, 1.5)), name="zero",
        )
        result = run_case(GNCase(spec=spec, j=1, k=2, x_space=P("L:2"), y_space=P("L:2"), n=32), CHECK_NAMES)
        assert result.passed, result.verdicts
        assert result.slabs == () and result.overlap_max == 0

    def test_case_error_is_recorded_and_run_continues(self, monkeypatch):
        # a 2D gaussian never leaves the widened band, so the slab build
        # refuses it; the runner must log that and keep going.  The build
        # runs once: the checks that read the family are errors, and the GN
        # ratio, which does not, is still measured
        open_spec = TestFunctionSpec(
            family="gaussian",
            center=(0.0, 0.0),
            width=(1.0, 1.0),
            amplitude=1.0,
            window=((-3.0, 3.0), (-3.0, 3.0)),
            name="open",
        )
        bad = GNCase(spec=open_spec, j=1, k=2, x_space=P("L:2"), y_space=P("L:2"), n=64)
        good = case_1d(BUMP, "L:1", "L:1")
        builds, original = [], gn_module.build_family_2d

        def build(u):
            builds.append(u)
            return original(u)

        monkeypatch.setattr(gn_module, "build_family_2d", build)
        results = run_corpus([bad, good], CHECK_NAMES)
        assert not results[0].passed
        assert results[0].error.startswith("CorpusConfigError: ")
        verdicts = dict(results[0].verdicts)
        assert {name for name, verdict in verdicts.items() if verdict == "error"} == {
            "overlap",
            "pointwise",
            "operator-norm",
            "modular",
        }
        assert results[0].report is not None and verdicts["gn"] != "error"
        assert len(builds) == 1
        assert results[1].passed

    def test_selected_checks_only(self):
        result = run_case(case_1d(GAUSS, "L:2", "L:2"), ("induction",))
        assert result.verdicts == (("induction", "pass"),)
        assert result.overlap_max is None
        assert result.report is None


def default_case(dim):
    """The first case of the bundled suite in ``dim`` dimensions."""
    return next(case for case in run_config().cases if case.dim == dim)


# the CaseResult fields each check fills; run alone, a check leaves the
# others at their defaults
FILLED = {
    "overlap": ("overlap_max", "intervals", "slabs"),
    "pointwise": ("pointwise_max", "intervals", "slabs"),
    "operator-norm": ("intervals", "slabs"),
    "modular": ("intervals", "slabs"),
    "gn": ("report",),
    "induction": (),
}


def comparable(result, field):
    """A CaseResult field in a form that compares with ==: slab masks as
    bytes, the interval table as its rows."""
    value = getattr(result, field)
    if field == "intervals":
        return tuple(np.asarray(value).tolist())
    if field == "slabs":
        return tuple(dataclasses.replace(s, mask=s.mask.tobytes()) for s in value)
    return value


class TestCheckMethods:
    @pytest.fixture(scope="class", params=[1, 2], ids=["1d", "2d"])
    def full_run(self, request):
        case = default_case(request.param)
        return case, run_case(case, CHECK_NAMES)

    @pytest.mark.parametrize("name", CHECK_NAMES)
    def test_check_alone_matches_the_full_run(self, full_run, name):
        # each check builds what it reads on first use, so running it alone
        # gives the verdict and the fields of the run with every check
        case, full = full_run
        assert full.passed, full.verdicts
        family = full.intervals if case.dim == 1 else full.slabs
        assert full.overlap_max and full.pointwise_max and full.report and len(family)
        alone = run_case(case, (name,))
        assert alone.verdicts == ((name, "pass"),)
        blank = CaseResult(case=case, z_text="", verdicts=())
        for field in ("overlap_max", "pointwise_max", "report", "intervals", "slabs"):
            source = full if field in FILLED[name] else blank
            assert comparable(alone, field) == comparable(source, field), field

    def test_samples_are_freed_when_the_case_returns(self, monkeypatch):
        # a result keeps no sample alive, so the peak memory of a suite is
        # that of its largest case, not the sum over the results it keeps
        refs = []

        def recording(spec, n, axis=1):
            u = make_test_function(spec, n, axis)
            refs.append(weakref.ref(u))
            return u

        monkeypatch.setattr(gn_module, "make_test_function", recording)
        results = [run_case(default_case(dim), CHECK_NAMES) for dim in (1, 2)]
        gc.collect()
        assert all(result.passed for result in results)
        assert len(refs) == 4  # n and the refinement rerun at 2n, per case
        assert all(ref() is None for ref in refs)

    def test_every_name_is_a_check_method(self):
        for name in CHECK_NAMES:
            method = getattr(gn_module._CaseRun, name.replace("-", "_"), None)
            assert callable(method), name
            assert method.__doc__, name

    def test_docs_list_the_checks_in_order(self):
        with open(os.path.join(ROOT, "README.md"), encoding="utf-8") as handle:
            readme = handle.read()
        cfg_path = os.path.join(os.path.dirname(gn_module.__file__), "data", "default.cfg")
        with open(cfg_path, encoding="utf-8") as handle:
            cfg = handle.read()
        for text in (readme, cfg):
            lines = [line for line in text.splitlines() if line.startswith("checks =")]
            assert lines
            for line in lines:
                assert tuple(part.strip() for part in line.partition("=")[2].split(",")) == CHECK_NAMES
        section = readme.partition("\n## Checks\n")[2].partition("\n## ")[0]
        rows = [line.split("|")[1].strip().strip("`") for line in section.splitlines() if line.startswith("| `")]
        assert tuple(rows) == CHECK_NAMES
