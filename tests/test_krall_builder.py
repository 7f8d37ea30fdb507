"""Higher-order operator construction from ladder data."""
from __future__ import annotations

from fractions import Fraction

import pytest

import qkrall.krall
from qkrall import (CrossCheckFailed, DOperatorSpec, GammaVanishes,
                    LaguerreParams, MeixnerParams, ParamDegeneracy, Poly,
                    QKrallError, UnknownTheorem,
                    agree_up_to, build, dop_action, dop_catalog,
                    hankel_orthogonal, measure_catalog, meixner,
                    meixner_moments, qpochhammer, theorem_catalog,
                    verify_dop, verify_eigen)
from qkrall import (LAGUERRE_I, LAGUERRE_II, MEIXNER_I, MEIXNER_II,
                    MEIXNER_III, THEOREMS)
from conftest import (B0, C0, Q0, T0, apply_by_shifts, count_image_sums,
                      reference_configs)

F = Fraction


def _reference_build(n_top: int = 10):
    td = theorem_catalog(MEIXNER_I, meixner(Q0, B0, C0).params, 2)
    return td, build(td.family, td.spec, td.p2, n_top)


@pytest.mark.parametrize("entry", ["polys_up_to", "build", "verify_dop",
                                   "dop_action", "hankel_orthogonal"])
def test_negative_index_bound_is_refused(entry):
    # a negative bound leaves an empty index range, which is no pass
    td = theorem_catalog(MEIXNER_I, MeixnerParams(Q0, B0, C0), 1)
    calls = {
        "polys_up_to": lambda: td.family.polys_up_to(-1),
        "build": lambda: build(td.family, td.spec, td.p2, -1),
        "verify_dop": lambda: verify_dop(td.spec, td.family, -1),
        "dop_action": lambda: dop_action(td.spec, td.family, -1),
        "hankel_orthogonal": lambda: hankel_orthogonal(
            meixner_moments(td.family.params), -1),
    }
    with pytest.raises(ParamDegeneracy,
                       match="n must be nonnegative, got n = -1"):
        calls[entry]()


def test_sequences_satisfy_defining_relations():
    td, kc = _reference_build()
    spec, fam, p2, p1 = td.spec, td.family, kc.p2, kc.p1
    for n in range(1, kc.n_top + 2):
        assert kc.gamma(n) == p2(fam.theta(n - 1))
    assert kc.lam(0) == (p1(fam.theta(0))
                         - spec.sigma(1) * p2(fam.theta(0))) / 2
    for n in range(1, kc.n_top + 1):
        assert kc.lam(n) == kc.lam(n - 1) + spec.sigma(n) * kc.gamma(n)
    for n in range(kc.n_top):
        assert kc.lam(n + 1) + kc.lam(n) == p1(fam.theta(n))
    for n in range(1, kc.n_top + 1):
        assert kc.beta(n) == spec.eps(n) * kc.gamma(n + 1) / kc.gamma(n)
        assert kc.qpoly(n) == fam.poly(n) + kc.beta(n) * fam.poly(n - 1)
    assert kc.qpoly(0) == Poly.one()


def test_eigen_equation_and_order():
    td, kc = _reference_build()
    assert kc.operator.order() == td.expected_order == 6
    report = verify_eigen(kc)
    assert len(report) == kc.n_top + 1
    assert all(entry["passed"] for entry in report)


def test_index_bounds_are_validated():
    _, kc = _reference_build(4)
    with pytest.raises(IndexError):
        kc.gamma(0)
    with pytest.raises(IndexError):
        kc.lam(5)
    with pytest.raises(IndexError):
        kc.beta(0)
    with pytest.raises(IndexError):
        kc.qpoly(-1)


def test_p1_grows_degree_by_one():
    td, kc = _reference_build(2)
    assert kc.p1.degree() == kc.p2.degree() + 1


def test_gamma_vanishing_is_reported_with_its_index():
    fam = meixner(Q0, B0, C0)
    spec = dop_catalog(fam)[0]
    # a quadratic with a root exactly at theta_2 kills gamma_3
    p2 = Poly((-fam.theta(2), 1)) * Poly((1, 1))
    with pytest.raises(GammaVanishes) as info:
        build(fam, spec, p2, 8)
    assert info.value.n == 3
    assert str(info.value) == "gamma_3 = P2(theta_2) vanishes"


def test_lambda_check_names_its_first_failing_index():
    # sigma_n = v q^n read over a base other than the family's: lambda_1 +
    # lambda_0 = P1(theta_0) holds by the definition of lambda_0, and the
    # next sum is the first that the ladder data gets wrong
    fam = meixner(Q0, B0, C0)
    good = dop_catalog(fam)[0]
    spec = DOperatorSpec(good.spec_id, good.eps, good.v, F(3, 7),
                         lambda: good.closed_form)
    p2 = Poly((1, 2))
    assert build(fam, spec, p2, 1).lam(1) is not None
    with pytest.raises(CrossCheckFailed) as info:
        build(fam, spec, p2, 4)
    assert str(info.value) == ("lambda_2 + lambda_1 != P1(theta_1); the "
                               "ladder sequences are inconsistent with P1")


def test_beta_override_breaks_the_eigen_equation(monkeypatch):
    td = theorem_catalog(MEIXNER_II, meixner(Q0, B0, C0).params, 1)
    clean = build(td.family, td.spec, td.p2, 6)
    assert all(e["passed"] for e in verify_eigen(clean))
    tampered = build(td.family, td.spec, td.p2, 6,
                     beta_override={3: F(7)})
    assert tampered.beta(3) == 7
    passes = count_image_sums(monkeypatch)
    report = verify_eigen(tampered)
    # one pass per entry decides it and, if it fails, gives its residual
    assert passes == tampered.qpolys()
    bad = [e for e in report if not e["passed"]]
    assert bad and all(e["residual"] is not None for e in bad)
    assert any(e["n"] == 3 for e in bad)
    # a failing entry carries D(q_n) - lambda_n q_n, from the definition
    for e in report:
        p, lam = tampered.qpoly(e["n"]), tampered.lam(e["n"])
        want = apply_by_shifts(tampered.operator, p) - lam * p
        assert e["passed"] is want.is_zero()
        assert e["residual"] == (None if e["passed"] else want)


def _gam_by_pochhammers(q: F, t: F, mass: F, i: int) -> F:
    """1 + M (tq; q)_i / (q; q)_i, two q-Pochhammer products of length i."""
    return 1 + mass * qpochhammer(t * q, q, i) / qpochhammer(q, q, i)


def test_point_mass_displayed_beta_equals_built_beta():
    # displayed beta_n = gam(n) / ((1 - t q^n) gam(n - 1)) with gam read
    # through (q^(i+1); q)_alpha, on every laguerre-ii reference set
    configs = [c for c in reference_configs() if c[0] == LAGUERRE_II]
    assert len(configs) == 6
    for name, params, alpha, mass in configs:
        td = theorem_catalog(name, params, alpha, mass=mass)
        kc = build(td.family, td.spec, td.p2, 40)
        q, t = params.q, params.t
        for n in range(1, 41):
            gam = [_gam_by_pochhammers(q, t, mass, i) for i in (n - 1, n)]
            want = gam[1] / ((1 - t * q ** n) * gam[0])
            assert td.displayed_beta(n) == kc.beta(n) == want, (alpha, mass, n)


def test_catalog_covers_all_instances():
    mp = meixner(Q0, B0, C0).params
    lp = LaguerreParams(Q0, T0)
    for name in THEOREMS:
        if name.startswith("meixner"):
            td = theorem_catalog(name, mp, 2)
            assert td.expected_order == 6
        elif name == LAGUERRE_I:
            td = theorem_catalog(name, lp, 2)
            assert td.expected_order == 6
        else:
            td = theorem_catalog(name, LaguerreParams(Q0, Q0 ** 2), 2,
                                 mass=F(7, 3))
            assert td.expected_order == 6
        kc = build(td.family, td.spec, td.p2, 6)
        assert kc.operator.order() == 6
        for n in range(1, 7):
            assert kc.beta(n) == td.displayed_beta(n), (name, n)


def test_catalog_validates_inputs():
    mp = meixner(Q0, B0, C0).params
    with pytest.raises(UnknownTheorem):
        theorem_catalog("no-such-instance", mp, 1)
    with pytest.raises(UnknownTheorem):
        theorem_catalog(LAGUERRE_I, mp, 1)  # wrong parameter type
    with pytest.raises(UnknownTheorem):
        theorem_catalog(LAGUERRE_II, LaguerreParams(Q0, Q0 ** 2), 2)  # no mass
    with pytest.raises(ParamDegeneracy):
        # t = 3/4 is not a positive power of q, so no point-mass instance
        theorem_catalog(LAGUERRE_II, LaguerreParams(Q0, T0), 1, mass=F(1))
    with pytest.raises(ParamDegeneracy):
        # the degree label must match the exponent of t
        theorem_catalog(LAGUERRE_II, LaguerreParams(Q0, Q0 ** 2), 3,
                        mass=F(1))


@pytest.mark.parametrize("name", [MEIXNER_I, MEIXNER_II, MEIXNER_III])
def test_meixner_instances_reject_b_zero(name):
    # the family itself is valid at b = 0; the instances built on it are not
    params = meixner(Q0, 0, C0).params
    with pytest.raises(ParamDegeneracy, match="b != 0"):
        theorem_catalog(name, params, 1)
    with pytest.raises(ParamDegeneracy, match="b != 0"):
        measure_catalog(name, params, 1)


def test_point_mass_instance_rejects_zero_mass():
    # with M = 0 no point mass is left and the operator has order 2
    params = LaguerreParams(Q0, Q0 ** 2)
    with pytest.raises(ParamDegeneracy, match="M != 0"):
        theorem_catalog(LAGUERRE_II, params, 2, mass=0)
    with pytest.raises(ParamDegeneracy, match="M != 0"):
        measure_catalog(LAGUERRE_II, params, 2, mass=0)


_MP = MeixnerParams(Q0, B0, C0)
_LP2 = LaguerreParams(Q0, Q0 ** 2)   # t = q^2, the point-mass instance
# (name, params, k_or_alpha, mass, error, part of its message): inputs
# that are not a catalogued instance.
_REJECTED = [
    ("no-such-instance", _MP, 1, None, UnknownTheorem, "unknown instance"),
    (LAGUERRE_I, _MP, 1, None, UnknownTheorem, "needs Laguerre parameters"),
    (MEIXNER_III, _LP2, 1, None, UnknownTheorem, "needs Meixner parameters"),
    *[(name, params, -1, mass, ParamDegeneracy, "must be nonnegative")
      for name, params, mass in [
          (MEIXNER_I, _MP, None), (MEIXNER_II, _MP, None),
          (MEIXNER_III, _MP, None), (LAGUERRE_I, LaguerreParams(Q0, T0), None),
          (LAGUERRE_II, _LP2, F(1))]],
    (MEIXNER_II, MeixnerParams(Q0, 0, C0), 1, None, ParamDegeneracy,
     "b != 0"),
    (LAGUERRE_II, _LP2, 2, None, UnknownTheorem, "needs the point mass M"),
    (LAGUERRE_II, _LP2, 2, 0, ParamDegeneracy, "M != 0"),
    (LAGUERRE_II, LaguerreParams(Q0, T0), 1, F(1), ParamDegeneracy,
     "t = q^alpha"),
    (LAGUERRE_II, _LP2, 1, F(1), ParamDegeneracy,
     "degree parameter 1 disagrees with alpha = 2"),
]


@pytest.mark.parametrize("name, params, k, mass, error, message", _REJECTED)
def test_both_catalogs_give_the_same_verdict(name, params, k, mass, error,
                                             message):
    verdicts = []
    for catalog in (theorem_catalog, measure_catalog):
        with pytest.raises(QKrallError) as info:
            catalog(name, params, k, mass=mass)
        verdicts.append((type(info.value), str(info.value)))
    assert verdicts[0] == verdicts[1]
    assert verdicts[0][0] is error and message in verdicts[0][1]


def test_catalog_measure_is_built_on_first_read_only(monkeypatch):
    calls = []
    real = qkrall.krall.measure_catalog

    def counting(*args, **kwargs):
        calls.append((args, kwargs))
        return real(*args, **kwargs)

    monkeypatch.setattr(qkrall.krall, "measure_catalog", counting)
    lp = LaguerreParams(Q0, Q0 ** 2)
    td = theorem_catalog(LAGUERRE_II, lp, 2, mass=F(7, 3), n_depth=20)
    kc = build(td.family, td.spec, td.p2, 6)
    assert all(e["passed"] for e in verify_eigen(kc))
    assert calls == []
    mu = td.measure
    assert len(calls) == 1
    assert td.measure is mu and len(calls) == 1
    # the same functional as the catalog builds directly, to the same depth
    direct = measure_catalog(LAGUERRE_II, lp, 2, mass=F(7, 3), n_depth=20)
    assert mu.max_n == direct.max_n
    assert agree_up_to(mu, direct, 20) is None


def test_operator_is_composed_on_first_read_only(monkeypatch):
    calls = []
    real = qkrall.krall.poly_of_operator

    def counting(*args):
        calls.append(args)
        return real(*args)

    monkeypatch.setattr(qkrall.krall, "poly_of_operator", counting)
    td = theorem_catalog(MEIXNER_I, MeixnerParams(Q0, B0, C0), 2)
    kc = build(td.family, td.spec, td.p2, 6)
    assert kc.qpolys() and kc.lam(6) is not None
    assert calls == []
    op = kc.operator
    assert len(calls) == 2  # P1(D_fam) and P2(D_fam)
    assert kc.operator is op and len(calls) == 2
    assert op.order() == td.expected_order
    assert all(e["passed"] for e in verify_eigen(kc))
