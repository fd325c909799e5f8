"""Acceptance gate: every headline bound, one test per criterion.

Each test prints a single ``[criterion NN] PASS/FAIL`` line (run with
``pytest -s`` to see them stream) and asserts the criterion at its stated
tolerance, so the suite doubles as a checklist of what the package claims.
"""

import math
import random
import subprocess
import sys
import time
import warnings
from fractions import Fraction

import numpy as np
import pytest

from gnsparse.gn import GNCase, first_order_chain_check, gn_ratio, induction_identity_check
from gnsparse.grid import Grid1D, interval_integrals
from gnsparse.norms import lebesgue_norm, lorentz_norm, luxemburg_norm, space_norm
from gnsparse.operator import (
    CellFamily,
    apply_sparse_operator,
    modular_contraction_check,
    operator_norm_check,
)
from gnsparse.rearrangement import CellField
from gnsparse.spaces import SpaceDescriptor, YoungFunction, cl_combine
from gnsparse.sparse1d import (
    build_family_1d,
    default_k_min,
    level_index,
    verify_pointwise_1d,
)
from gnsparse.sparse2d import build_family_2d, verify_family_2d
from gnsparse.testfunctions import TestFunctionSpec, make_test_function

from corpus import members
from mollifier import BoundaryContaminationWarning, mollify
from oracles import BOUND_YOUNGS, modular_bound, observation_bounds_report, resolved_k_min, space_bound, star

P = SpaceDescriptor.parse


def criterion(num, ok, detail):
    print(f"\n[criterion {num:02d}] {'PASS' if ok else 'FAIL'}: {detail}")
    assert ok, f"criterion {num}: {detail}"


@pytest.fixture(scope="module")
def corpus_1024():
    """(u, family at the default floor) for every 1D member at n = 1024."""
    out = {}
    for spec in members(1):
        u = make_test_function(spec, 1024)
        out[spec.name] = (u, build_family_1d(u, default_k_min(u)))
    return out


@pytest.fixture(scope="module")
def corpus_2d():
    """((family, report) at 128, (family, report) at 256) for every 2D member."""
    out = {}
    for spec in members(2):
        runs = []
        for n in (128, 256):
            u = make_test_function(spec, n)
            family = build_family_2d(u)
            fields = (CellField(u.center_values(order), u.cell_measure) for order in (0, 2))
            runs.append((family, verify_family_2d(family, *fields)))
        out[spec.name] = tuple(runs)
    return out


def test_criterion_01_overlap_1d(corpus_1024):
    # max overlap of the 1D covering family is exactly bounded by 3
    families = {spec.family for spec in members(1)}
    assert len(corpus_1024) >= 20
    assert families == {"gaussian", "smooth-bump", "modulated-bump", "sine-window"}
    worst = 0
    for name, (u, fam) in corpus_1024.items():
        overlap = fam.cells.max_overlap
        assert overlap <= 3, f"{name}: overlap {overlap}"
        worst = max(worst, overlap)
    criterion(1, worst <= 3, f"{len(corpus_1024)} members, max overlap {worst} <= 3")


def test_criterion_02_pointwise_constant(corpus_1024):
    # u'(x)^2 <= 128 * (avg |u''|)(avg |u|) at every covered node, and the
    # measured max over the grid-resolved levels moves < 1% under n -> 2n
    worst_ratio = 0.0
    worst_drift = 0.0
    for spec in members(1):
        u1, _ = corpus_1024[spec.name]
        floor = resolved_k_min(u1)
        _, r1 = verify_pointwise_1d(u1, build_family_1d(u1, floor))
        assert r1 <= 128.0 * 1.02, f"{spec.name}: ratio {r1}"
        u2 = make_test_function(spec, 2048)
        _, r2 = verify_pointwise_1d(u2, build_family_1d(u2, floor))
        drift = abs(r2 - r1) / r1
        assert drift < 0.01, f"{spec.name}: drift {drift:.2%}"
        worst_ratio = max(worst_ratio, r1)
        worst_drift = max(worst_drift, drift)

    # spot value: sine at its center node, own level-1 family interval
    sine = TestFunctionSpec(
        family="sine-window", center=0.0, width=1.0, amplitude=1.0, frequency=1.0,
        window=(-1.5 * math.pi, 1.5 * math.pi), name="spot",
    )
    u = make_test_function(sine, 1024)
    x0 = float(u.grid.nodes()[512])
    k = level_index(float(u.evaluate(x0, (1,))[0]))
    fam = build_family_1d(u, default_k_min(u))
    iv = fam.intervals
    ((z, y),) = np.column_stack([iv.z, iv.y])[(iv.k == k) & (iv.sign == 1) & (iv.z < x0) & (x0 < iv.y)]
    a2, a0 = interval_integrals(lambda t: [np.abs(f) for f in u.evaluate(t, (2, 0))], z, y, u.grid.h)[:, 0] / (y - z)
    spot = u.evaluate(x0, (1,))[0] ** 2 / (a2 * a0)
    assert spot == pytest.approx(4.386, rel=0.02)
    criterion(
        2,
        worst_ratio <= 128.0 * 1.02 and worst_drift < 0.01,
        f"max ratio {worst_ratio:.4f} <= 130.56, refinement drift {worst_drift:.2e} < 1%, "
        f"spot {spot:.3f} ~ 4.386",
    )


def test_criterion_03_observation_bounds(corpus_1024):
    worst_a = 0.0
    worst_b = 0.0
    for name, (u, fam) in corpus_1024.items():
        a, b, ok = observation_bounds_report(u, fam)
        assert ok, f"{name}: slack a={a:.4f} b={b:.4f}"
        worst_a = max(worst_a, a)
        worst_b = max(worst_b, b)
    criterion(3, True, f"both bounds hold at every covered node; worst lhs/rhs a={worst_a:.4f} b={worst_b:.4f}")


def test_criterion_04_overlap_2d(corpus_2d):
    assert len(corpus_2d) >= 5
    worst_overlap = 0
    worst_drift = 0.0
    for name, ((fam1, rep1), (_, rep2)) in corpus_2d.items():
        assert fam1.cells.max_overlap <= 5, f"{name}: overlap {fam1.cells.max_overlap}"
        assert math.isfinite(rep1.max_ratio) and rep1.max_ratio > 0.0
        drift = abs(rep2.max_ratio - rep1.max_ratio) / rep1.max_ratio
        assert drift <= 0.05, f"{name}: drift {drift:.2%}"
        worst_overlap = max(worst_overlap, fam1.cells.max_overlap)
        worst_drift = max(worst_drift, drift)
    criterion(
        4,
        True,
        f"{len(corpus_2d)} members, overlap {worst_overlap} <= 5, "
        f"ratio drift {worst_drift:.2%} <= 5% under n -> 2n",
    )


def test_criterion_05_operator_bounds(corpus_1024):
    # the majorization certificate, then the L1 and Linf bounds it implies
    l1, linf = P("L:1"), P("L:inf")
    worst = 0.0
    for name, (u, fam) in corpus_1024.items():
        grid = u.grid
        cells = fam.cells
        centers = grid.centers()
        for label, order in (("|u''|", 2), ("|u|", 0), ("1", None)):
            f = CellField(np.ones(len(centers)) if order is None else u.evaluate(centers, (order,))[0], grid.h)
            tf = apply_sparse_operator(cells, f)
            ratio, ok = operator_norm_check(cells, f, tf)
            assert ok, f"{name} {label}: majorization ratio {ratio}"
            worst = max(worst, ratio)
            for space in (l1, linf):
                lhs, rhs, ok = space_bound(space, cells, f, tf)
                assert ok, f"{name} {label} {space.format()}: {lhs} > {rhs}"

    # L1 equality witness: nested pair, input the inner indicator
    grid = Grid1D(0.0, 2.0, 512)
    nested = CellFamily.from_intervals([0.0, 0.0], [1.0, 2.0], grid)
    f = CellField((grid.centers() < 1.0).astype(float), grid.h)
    tf = apply_sparse_operator(nested, f)
    assert operator_norm_check(nested, f, tf) == (1.0, True) and nested.max_overlap == 2
    lhs, rhs, ok = space_bound(l1, nested, f, tf)
    assert ok
    assert lhs == pytest.approx(rhs, rel=1e-12)
    criterion(
        5,
        True,
        f"int_0^t (Tf)* <= K int_0^t f* on all {len(corpus_1024)} families (worst ratio {worst:.6f}), "
        f"so T is bounded by K in L1 and Linf; L1 equality {lhs:.12f} = K||f||_1 on the nested-pair indicator",
    )


def test_criterion_06_modular_contraction(corpus_1024):
    # the certificate on |u|, then rho(Tu/K) <= rho(u) for five Young functions
    for name, (u, fam) in corpus_1024.items():
        cells = fam.cells
        f = CellField(u.evaluate(u.grid.centers(), (0,))[0], u.grid.h)
        tf = apply_sparse_operator(cells, f)
        ratio, ok = modular_contraction_check(cells, f, tf)
        assert ok, f"{name}: majorization ratio {ratio}"
        for young in BOUND_YOUNGS:
            lhs, rhs, ok = modular_bound(young, cells, f, tf)
            assert ok, f"{name} {young.describe()}: {lhs} > {rhs}"
    criterion(
        6,
        True,
        f"rho(Tu/K) <= rho(u) for every Young function, and directly for {len(BOUND_YOUNGS)}, "
        f"on all {len(corpus_1024)} families",
    )


def test_criterion_07_norm_engine(corpus_1024):
    # equimeasurability: the rearrangement preserves Lebesgue norms
    worst = 0.0
    for name, (u, _) in corpus_1024.items():
        f = np.abs(u.evaluate(u.grid.centers(), (0,))[0])
        h = u.grid.h
        field = CellField(f, h)
        m = int(round(field.support_measure / h))
        rearranged = star(field, h * (np.arange(m) + 0.5))
        for p in (1, 2, 4):
            a = lebesgue_norm(CellField(rearranged, h), Fraction(p))
            b = lebesgue_norm(field, Fraction(p))
            rel = abs(a - b) / b
            assert rel <= 1e-6, f"{name} p={p}: rel {rel}"
            worst = max(worst, rel)

    # Luxemburg of a power Young function is the Lebesgue norm
    u, _ = corpus_1024["b1"]
    f = np.abs(u.evaluate(u.grid.centers(), (0,))[0])
    for p in (Fraction(3, 2), Fraction(2)):
        lux = luxemburg_norm(CellField(f, u.grid.h), YoungFunction("pow", (p,)))
        leb = lebesgue_norm(CellField(f, u.grid.h), p)
        assert lux == pytest.approx(leb, rel=1e-6)

    # closed forms on the unit indicator
    vals = np.zeros(1024)
    vals[:256] = 1.0
    mu = 1.0 / 256.0
    lor = lorentz_norm(CellField(vals, mu), Fraction(2), Fraction(2))
    assert lor == pytest.approx(math.sqrt(2.0), rel=1e-6)
    exp_norm = luxemburg_norm(CellField(vals, mu), YoungFunction("exp"))
    assert exp_norm == pytest.approx(1.0 / math.log(2.0), rel=1e-6)
    criterion(
        7,
        True,
        f"rearrangement preserves L^p to {worst:.1e}; Luxemburg=Lebesgue on powers; "
        f"||chi||_(2,2)={lor:.6f}~sqrt2; exp case {exp_norm:.6f}~1/ln2",
    )


def test_criterion_08_gn_sharp_witness():
    gauss = TestFunctionSpec(
        family="gaussian", center=0.0, width=1.0, amplitude=1.0, window=(-6.0, 6.0), name="sharp"
    )
    report = gn_ratio(GNCase(spec=gauss, j=1, k=2, x_space=P("L:2"), y_space=P("L:2"), n=1024))
    ok = report.ratio <= 1.0 + 1e-3 and report.stable
    criterion(8, ok, f"gaussian L2 ratio {report.ratio:.6f} <= 1 + 1e-3 (integration by parts)")


def test_criterion_09_gn_l1_headline():
    bump = TestFunctionSpec(
        family="smooth-bump", center=0.0, width=1.0, amplitude=1.0, window=(-1.5, 1.5), name="headline"
    )
    report = gn_ratio(GNCase(spec=bump, j=1, k=2, x_space=P("L:1"), y_space=P("L:1"), n=1024))
    assert math.isfinite(report.ratio) and report.ratio > 0.0
    assert report.drift <= 0.01 and report.stable

    u = make_test_function(bump, 1024)
    chain = first_order_chain_check(u, P("L:1"), P("L:1"))
    assert chain.ok, [link.name for link in chain.links if not link.ok]
    criterion(
        9,
        True,
        f"bump L1 ratio {report.ratio:.6f} stable to {report.drift:.2e}; "
        f"all {len(chain.links)} chain links hold",
    )


def harmonic(P, Q, theta):
    """R with 1/R = theta/P + (1 - theta)/Q, in exact rationals."""
    return 1 / (theta / P + (1 - theta) / Q)


def test_criterion_10_exponent_algebra():
    rng = random.Random(413)
    checked = 0
    while checked < 50:
        Pq = Fraction(rng.randint(11, 400), rng.randint(2, 100))
        Qq = Fraction(rng.randint(11, 400), rng.randint(2, 100))
        if Pq <= 1 or Qq <= 1:
            continue
        pq = 1 + Fraction(rng.randint(0, 300), rng.randint(1, 60))
        qq = 1 + Fraction(rng.randint(0, 300), rng.randint(1, 60))
        k = rng.choice((2, 3))
        j = rng.randrange(1, k)
        theta = Fraction(j, k)
        combined = cl_combine(
            SpaceDescriptor("lorentz", primary=Pq, secondary=pq),
            SpaceDescriptor("lorentz", primary=Qq, secondary=qq),
            theta,
        )
        assert (combined.primary, combined.secondary) == (harmonic(Pq, Qq, theta), harmonic(pq, qq, theta))
        checked += 1

    for x, y in ((P("L:1"), P("L:3")), (P("Lor:3,2"), P("Lor:2,2")), (P("Orl:pow:1"), P("Orl:pow:3"))):
        for k in (3, 4):
            result = induction_identity_check(x, y, k)
            assert result.ok, (x.format(), y.format(), k, result.failures)
    criterion(
        10, True, "cl_combine matches 1/R = theta/P + (1-theta)/Q on 50 random Lorentz pairs; "
        "induction identities hold at k = 3, 4"
    )


def test_criterion_11_mollification_contracts():
    spaces = [P("L:1"), P("L:2"), P("Lor:2,2"), P("Orl:pow:2")]
    worst = 0.0
    for spec in members(1):
        u = make_test_function(spec, 1024)
        h = u.grid.h
        with warnings.catch_warnings():
            # members filling their window legitimately touch the kernel radius
            warnings.simplefilter("ignore", BoundaryContaminationWarning)
            smoothed = mollify(u, 32.0 * h)
        (smoothed0,), (u0,) = (g.evaluate(u.grid.nodes(), (0,)) for g in (smoothed, u))
        for space in spaces:
            a = space_norm(space, CellField(smoothed0, h))
            b = space_norm(space, CellField(u0, h))
            assert a <= b * (1.0 + 1e-6), f"{spec.name} {space.format()}: {a} > {b}"
            if b > 0:
                worst = max(worst, a / b)
    criterion(11, True, f"||mollify(u, 32h)||_X <= ||u||_X in 4 spaces across the corpus (max quotient {worst:.6f})")


def test_criterion_12_end_to_end_cli(tmp_path, source_env):
    elapsed = {}
    for run in ("a", "b"):
        start = time.monotonic()
        proc = subprocess.run(
            [sys.executable, "-m", "gnsparse.cli", "--out", str(tmp_path / run)],
            capture_output=True,
            text=True,
            timeout=600,
            env=source_env,
        )
        elapsed[run] = time.monotonic() - start
        assert proc.returncode == 0, proc.stderr
    first = (tmp_path / "a" / "report.csv").read_bytes()
    second = (tmp_path / "b" / "report.csv").read_bytes()
    assert first == second
    total = elapsed["a"] + elapsed["b"]
    criterion(
        12,
        total < 600.0,
        f"default suite exits 0 twice in {total:.1f}s (< 10 min), reports byte-identical",
    )
