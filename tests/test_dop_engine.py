"""Ladder operators: closed forms, defining action, connection identities."""
from __future__ import annotations

from fractions import Fraction

import pytest

from qkrall import (DOperatorSpec, Poly, UnsupportedFamily, alsalam_carlitz,
                    dop_action, dop_catalog, laguerre, meixner,
                    q_derivative_ops, qpochhammer, verify_dop)
from conftest import B0, C0, Q0, T0, apply_by_shifts, count_image_sums

F = Fraction


def _defining_action(spec, family, n) -> Poly:
    """The triangular ladder action as its literal double sum: the oracle
    for the running pass of dops.dop_action and dops.verify_dop."""
    acc = -F(1, 2) * spec.sigma(n + 1) * family.poly(n)
    chain = F(1)
    for j in range(1, n + 1):
        chain *= spec.eps(n - j + 1)
        acc = acc + (F(-1) ** (j + 1)) * spec.sigma(n + 1 - j) * chain \
            * family.poly(n - j)
    return acc


@pytest.mark.parametrize("maker", [
    lambda: meixner(Q0, B0, C0),
    lambda: laguerre(Q0, T0),
])
def test_closed_forms_equal_defining_action(maker):
    family = maker()
    for spec in dop_catalog(family):
        for n in range(11):
            expected = _defining_action(spec, family, n)
            assert spec.closed_form.apply(family.poly(n)) == expected, \
                f"{spec.spec_id} at n = {n}"


def test_dop_action_helper_agrees_with_local_sum():
    # all five specs, over bases in (0, 1), below zero and above one
    for q in (Q0, F(-3, 7), F(5, 3)):
        for family in (meixner(q, B0, C0), laguerre(q, T0)):
            for spec in dop_catalog(family):
                oracle = [_defining_action(spec, family, n)
                          for n in range(13)]
                assert [dop_action(spec, family, n)
                        for n in range(13)] == oracle
                assert [spec.closed_form.apply(family.poly(n))
                        for n in range(13)] == oracle
                report = verify_dop(spec, family, 12)
                assert [e["n"] for e in report] == list(range(13))
                assert all(e["passed"] for e in report), (q, spec.spec_id)


def test_catalog_shapes_and_geometric_data():
    mfam = meixner(Q0, B0, C0)
    mspecs = {s.spec_id: s for s in dop_catalog(mfam)}
    assert set(mspecs) == {"q-meixner-1", "q-meixner-2", "q-meixner-3"}
    lfam = laguerre(Q0, T0)
    lspecs = {s.spec_id: s for s in dop_catalog(lfam)}
    assert set(lspecs) == {"q-laguerre-1", "q-laguerre-2"}
    for fam in (mfam, lfam):
        for n in range(11):
            assert fam.theta(n) == fam.theta(0) * Q0 ** n, fam.kind


def test_catalog_rejects_unsupported_family():
    with pytest.raises(UnsupportedFamily):
        dop_catalog(alsalam_carlitz(Q0, F(4, 3)))


def test_verify_dop_reports_clean_pass():
    family = laguerre(Q0, T0)
    for spec in dop_catalog(family):
        report = verify_dop(spec, family, 8)
        assert len(report) == 9
        assert all(entry["passed"] for entry in report)
        assert all(entry["residual"] is None for entry in report)


def test_verify_dop_detects_wrong_ladder_data(monkeypatch):
    family = meixner(Q0, B0, C0)
    good = dop_catalog(family)[0]
    bad = DOperatorSpec(spec_id="broken", eps=lambda n: 2 * good.eps(n),
                        v=good.v, q=good.q,
                        compose=lambda: good.closed_form)
    passes = count_image_sums(monkeypatch)
    report = verify_dop(bad, family, 4)
    # one pass per entry decides it and, if it fails, gives its residual
    assert passes == [family.poly(n) for n in range(5)]
    failures = [e for e in report if not e["passed"]]
    assert failures, "a corrupted ladder sequence must be detected"
    assert all(e["residual"] is not None for e in failures)
    # a failing entry carries closed_form(p_n) - action(n), from the
    # definitions of both
    for e in report:
        n = e["n"]
        want = (apply_by_shifts(good.closed_form, family.poly(n))
                - _defining_action(bad, family, n))
        assert e["passed"] is want.is_zero()
        assert e["residual"] == (None if e["passed"] else want)


def test_meixner_parameter_shift_identity():
    # q/(1-bq) m_{n-1} at (bq, c/q) equals the alternating telescoped sum of
    # lower-degree members at (b, c), for every n <= 8.
    fam = meixner(Q0, B0, C0)
    shifted = meixner(Q0, B0 * Q0, C0 / Q0)
    for n in range(1, 9):
        lhs = Q0 / (1 - B0 * Q0) * shifted.poly(n - 1)
        rhs = Poly.zero()
        for j in range(1, n + 1):
            rhs = rhs + (F(-1) ** (j + 1)) * Q0 ** (n + 1 - j) \
                / qpochhammer(B0 * Q0 ** (n - j + 1), Q0, j) * fam.poly(n - j)
        assert lhs == rhs, f"n = {n}"


def test_laguerre_level_connection_identity():
    # (-1)^n (tq;q)_n L_n at level t equals sum_j (-q)^(n-j) (t;q)_(n-j)
    # L_(n-j) at level t/q, n <= 8.
    top = laguerre(Q0, T0)
    low = laguerre(Q0, T0 / Q0)
    for n in range(9):
        lhs = F(-1) ** n * qpochhammer(T0 * Q0, Q0, n) * top.poly(n)
        rhs = Poly.zero()
        for j in range(n + 1):
            rhs = rhs + (-Q0) ** (n - j) * qpochhammer(T0, Q0, n - j) \
                * low.poly(n - j)
        assert lhs == rhs, f"n = {n}"


def test_laguerre_backward_derivative_identity():
    # D_(1/q) L_n at level t equals tq/((1-q)(1-tq)) L_(n-1) at level tq,
    # n <= 8.
    fam = laguerre(Q0, T0)
    up = laguerre(Q0, T0 * Q0)
    _, d_inv = q_derivative_ops(Q0)
    for n in range(1, 9):
        lhs = d_inv.apply(fam.poly(n))
        rhs = T0 * Q0 / ((1 - Q0) * (1 - T0 * Q0)) * up.poly(n - 1)
        assert lhs == rhs, f"n = {n}"
    assert d_inv.apply(fam.poly(0)).is_zero()
