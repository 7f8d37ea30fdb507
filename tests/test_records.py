"""The contract of the nine immutable records (``qkrall.exact.Record``):
equality, hashing, immutability, ``vars``, ``repr``, construction and the
checks each record makes when it is built."""
from __future__ import annotations

import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

import qkrall.krall
from qkrall import (MEIXNER_I, AlSalamCarlitzParams, GramData,
                    KrallConstruction, LaguerreParams, MeixnerParams,
                    ParamDegeneracy, Poly, SearchProblem, SearchResult,
                    TheoremData, ThreeTermRecurrence, build, meixner,
                    theorem_catalog)
from conftest import B0, C0, Q0, T0

F = Fraction
SRC = Path(__file__).resolve().parents[1] / "src"


def _one(n: int) -> Fraction:
    return F(1)


def _polys(n: int) -> tuple[Poly, ...]:
    return tuple(Poly((1,) * (k + 1)) for k in range(n))


# Each value-compared record, built twice from equal (not identical) values.
VALUE_RECORDS = {
    "MeixnerParams": lambda: MeixnerParams(Q0, B0, C0),
    "LaguerreParams": lambda: LaguerreParams(Q0, T0),
    "AlSalamCarlitzParams": lambda: AlSalamCarlitzParams(Q0, T0),
    "ThreeTermRecurrence": lambda: ThreeTermRecurrence(_one, _one, _one),
    "SearchProblem": lambda: SearchProblem(_polys(13), 1, Q0),
    "SearchResult": lambda: SearchResult(True, None, (F(1), F(2)), 3),
    "GramData": lambda: GramData([Poly.one()], [F(1, 2)]),
}


@pytest.fixture(scope="module")
def theorem() -> TheoremData:
    return theorem_catalog(MEIXNER_I, MeixnerParams(Q0, B0, C0), 1,
                           n_depth=8)


@pytest.fixture(scope="module")
def construction(theorem) -> KrallConstruction:
    return build(theorem.family, theorem.spec, theorem.p2, 3)


@pytest.mark.parametrize("name", sorted(VALUE_RECORDS))
def test_equal_records_compare_and_hash_equal(name):
    a, b = VALUE_RECORDS[name](), VALUE_RECORDS[name]()
    assert a is not b and a == b and not a != b
    if name == "GramData":
        # its fields are lists, so, as with any list, it has no hash
        with pytest.raises(TypeError):
            hash(a)
    else:
        assert hash(a) == hash(b)


def test_params_fields_are_coerced_to_rationals():
    p = MeixnerParams(2, "1/3", F(3, 2))
    assert p == MeixnerParams(F(2), F(1, 3), F(3, 2))
    assert hash(p) == hash(MeixnerParams(F(2), F(1, 3), F(3, 2)))
    assert all(type(v) is Fraction for v in (p.q, p.b, p.c))
    assert MeixnerParams(Q0, B0, C0) != MeixnerParams(Q0, B0, 2 * C0)


def test_records_of_different_classes_are_unequal():
    lag, asc = LaguerreParams(Q0, T0), AlSalamCarlitzParams(Q0, T0)
    assert lag != asc and asc != lag and not lag == asc
    assert len({lag, asc}) == 2
    assert MeixnerParams(Q0, B0, C0) != (Q0, B0, C0)


def test_construction_and_theorem_compare_by_identity(theorem, construction):
    twin = theorem_catalog(MEIXNER_I, theorem.family.params, 1, n_depth=8)
    assert twin is not theorem and twin != theorem and theorem == theorem
    assert hash(theorem) == object.__hash__(theorem)
    again = build(theorem.family, theorem.spec, theorem.p2, 3)
    assert again.qpolys() == construction.qpolys()
    assert again != construction and construction == construction
    assert hash(construction) == object.__hash__(construction)


def test_assigning_or_deleting_a_field_raises(theorem, construction):
    records = [make() for make in VALUE_RECORDS.values()]
    for record in records + [theorem, construction]:
        field = next(iter(vars(record)))
        before = getattr(record, field)
        with pytest.raises(AttributeError):
            setattr(record, field, None)
        with pytest.raises(AttributeError):
            delattr(record, field)
        with pytest.raises(AttributeError):
            record.undeclared = 1
        assert getattr(record, field) is before


@pytest.mark.parametrize("params, fields", [
    (MeixnerParams(Q0, B0, C0), {"q": Q0, "b": B0, "c": C0}),
    (LaguerreParams(Q0, T0), {"q": Q0, "t": T0}),
    (AlSalamCarlitzParams(Q0, T0), {"q": Q0, "a": T0}),
])
def test_vars_holds_exactly_the_declared_fields(params, fields):
    assert vars(params) == fields


def test_repr_text_is_unchanged():
    assert repr(meixner(Q0, B0, C0)) == (
        "PolynomialFamily('q-meixner', MeixnerParams(q=Fraction(2, 5), "
        "b=Fraction(1, 3), c=Fraction(3, 2)))")
    assert repr(LaguerreParams(Q0, T0)) == (
        "LaguerreParams(q=Fraction(2, 5), t=Fraction(3, 4))")
    assert repr(AlSalamCarlitzParams(Q0, 2)) == (
        "AlSalamCarlitzParams(q=Fraction(2, 5), a=Fraction(2, 1))")
    assert repr(SearchResult(False, None, None, 3)) == (
        "SearchResult(found=False, operator=None, eigenvalues=None, "
        "nullspace_dim=3)")
    assert repr(GramData([Poly.one()], [F(1, 2)])) == (
        "GramData(polys=[Poly(['1'])], norms=[Fraction(1, 2)])")


def test_keyword_and_mixed_construction():
    polys, norms = [Poly.one()], [F(1, 2)]
    assert GramData(polys=polys, norms=norms) == GramData(polys, norms)
    assert GramData(norms=norms, polys=polys).polys is polys
    assert (MeixnerParams(Q0, c=C0, b=B0)
            == MeixnerParams(q=Q0, b=B0, c=C0)
            == MeixnerParams(Q0, B0, C0))


@pytest.mark.parametrize("args, kwargs", [
    ((Q0, B0), {}),
    ((Q0, B0, C0, C0), {}),
    ((Q0, B0), {"d": C0}),
    ((Q0, B0, C0), {"q": Q0}),
    ((Q0,), {"q": Q0, "b": B0, "c": C0}),
])
def test_wrong_fields_are_refused(args, kwargs):
    with pytest.raises(TypeError):
        MeixnerParams(*args, **kwargs)


@pytest.mark.parametrize("make, error, message", [
    (lambda: MeixnerParams(1, B0, C0), ParamDegeneracy,
     "q != +-1 and q != 0 required, got q = 1"),
    (lambda: MeixnerParams(2, 1, C0), ParamDegeneracy,
     "b = q^0 is excluded for the Meixner family"),
    (lambda: MeixnerParams(2, F(1, 4), C0), ParamDegeneracy,
     "b = q^-2 is excluded for the Meixner family"),
    (lambda: MeixnerParams(2, B0, 0), ParamDegeneracy,
     "c = 0 is excluded for the Meixner family"),
    (lambda: MeixnerParams(2, B0, -4), ParamDegeneracy,
     "c = -q^2 is excluded for the Meixner family"),
    (lambda: LaguerreParams(-1, T0), ParamDegeneracy,
     "q != +-1 and q != 0 required, got q = -1"),
    (lambda: LaguerreParams(Q0, 0), ParamDegeneracy,
     "t = 0 is excluded for the Laguerre family"),
    (lambda: LaguerreParams(2, F(1, 2)), ParamDegeneracy,
     "t = q^-1 is excluded for the Laguerre family"),
    (lambda: AlSalamCarlitzParams(0, T0), ParamDegeneracy,
     "q != +-1 and q != 0 required, got q = 0"),
    (lambda: AlSalamCarlitzParams(Q0, 0), ParamDegeneracy,
     "a = 0 is excluded for the Al-Salam-Carlitz family"),
    (lambda: SearchProblem(_polys(13), 0, Q0), ValueError,
     "window half-width must be positive"),
    (lambda: SearchProblem(_polys(12), 1, Q0), ValueError,
     "h=1 needs 13 eigenpolynomials, got 12"),
    (lambda: SearchProblem(_polys(12) + (Poly.one(),), 1, Q0), ValueError,
     "eigenpolynomial degrees must be exactly 0, 1, ..., N"),
    (lambda: SearchProblem(_polys(13), 1, F(1)), ParamDegeneracy,
     "q != +-1 and q != 0 required, got q = 1"),
    (lambda: MeixnerParams(True, B0, C0), TypeError,
     "bool is not a rational"),
])
def test_construction_checks_keep_their_errors(make, error, message):
    with pytest.raises(error) as info:
        make()
    assert type(info.value) is error and str(info.value) == message


def test_operator_and_measure_are_computed_once(monkeypatch, theorem):
    calls = {"family_operator": 0, "measure_catalog": 0}

    def counted(name):
        real = getattr(qkrall.krall, name)

        def wrapper(*args, **kwargs):
            calls[name] += 1
            return real(*args, **kwargs)
        monkeypatch.setattr(qkrall.krall, name, wrapper)

    counted("family_operator")
    counted("measure_catalog")
    kc = build(theorem.family, theorem.spec, theorem.p2, 2)
    assert kc.operator is kc.operator
    td = theorem_catalog(MEIXNER_I, theorem.family.params, 1, n_depth=8)
    assert td.measure is td.measure
    assert calls == {"family_operator": 1, "measure_catalog": 1}
    # the cached values sit beside the fields, not among them
    assert "operator" in vars(kc) and "operator" not in kc._fields
    assert "measure" in vars(td) and "measure" not in td._fields


def test_import_loads_no_code_generators():
    """``import qkrall.cli`` in a fresh interpreter (pytest itself loads
    both modules) brings in neither ``dataclasses`` nor ``inspect``."""
    path = os.pathsep.join(filter(None, [str(SRC),
                                         os.environ.get("PYTHONPATH")]))
    code = ("import sys, qkrall.cli; "
            "print(sorted({'dataclasses', 'inspect'} & set(sys.modules)))")
    out = subprocess.run([sys.executable, "-c", code], capture_output=True,
                         text=True, check=True, timeout=60,
                         env={**os.environ, "PYTHONPATH": path})
    assert out.stdout.strip() == "[]"
