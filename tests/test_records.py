"""Value semantics that code and tests rely on: models compare and hash by
kind and parameters, and the report records compare field by field and
build by keyword or by position in their field order."""

import pytest

import conescope as cs
from conescope.geometry import Verdict


def test_models_compare_and_hash_by_kind_and_parameters():
    equal_pairs = [
        (cs.FreeGroup(2), cs.FreeGroup(2)),
        (cs.FreeAbelian(3), cs.FreeAbelian(3)),
        (cs.KleinBottle(), cs.KleinBottle()),
        (cs.DirectProduct((cs.FreeGroup(2), cs.FreeAbelian(1))),
         cs.DirectProduct((cs.FreeGroup(2), cs.FreeAbelian(1)))),
        (cs.DirectProduct((cs.DirectProduct((cs.FreeGroup(2),
                                             cs.FreeAbelian(1))),
                           cs.FreeAbelian(1))),
         cs.DirectProduct((cs.DirectProduct((cs.FreeGroup(2),
                                             cs.FreeAbelian(1))),
                           cs.FreeAbelian(1)))),
    ]
    for a, b in equal_pairs:
        assert a is not b
        assert a == b and not a != b
        assert hash(a) == hash(b)
    unequal_pairs = [
        (cs.FreeGroup(2), cs.FreeAbelian(2)),
        (cs.FreeGroup(2), cs.FreeGroup(3)),
        (cs.FreeAbelian(2), cs.KleinBottle()),
        (cs.DirectProduct((cs.FreeGroup(2), cs.FreeAbelian(1))),
         cs.DirectProduct((cs.FreeAbelian(1), cs.FreeGroup(2)))),
        (cs.DirectProduct((cs.FreeGroup(2), cs.FreeAbelian(1))),
         cs.FreeGroup(2)),
    ]
    for a, b in unequal_pairs:
        assert a != b and b != a and not a == b
    # a model is usable as a dictionary key
    assert {cs.FreeGroup(2): 1}[cs.FreeGroup(2)] == 1


def test_elements_of_equal_models_are_equal():
    for make, word in ((lambda: cs.FreeGroup(2), "abA"),
                       (lambda: cs.FreeAbelian(2), "aaB"),
                       (cs.KleinBottle, "ba"),
                       (lambda: cs.DirectProduct((cs.FreeGroup(2),
                                                  cs.FreeAbelian(1))), "aBc")):
        first, second = make(), make()
        g, h = first.element(word), second.element(word)
        assert g == h and hash(g) == hash(h)
        assert g != second.identity()
        # either model multiplies the elements of the other
        assert first.multiply(g, h) == second.multiply(g, h)
    assert cs.FreeGroup(2).element("a") != cs.FreeAbelian(2).element("a")


def _records(f2):
    """Each report record's fields, all given, in the record's field order."""
    a, b = f2.element("a"), f2.element("b")
    cert = dict(r=1, center=a, swamp=frozenset({a}), witnesses=(a, b),
                verdict=Verdict.EVIDENCE)
    return {
        cs.SwampCertificate: cert,
        cs.AxiomReport: dict(oracle_name="o", radius=2, checked=5,
                             partition_failures=(), identity_failures=(),
                             closure_failures=(("a", "b", "ab", "negative"),)),
        cs.RayReport: dict(oracle_name="o", depth=2, maxima=(a, b),
                           length_failures=(), successor_failures=(),
                           geodesic_failures=(), negativity_failures=()),
        cs.ComponentReport: dict(oracle_name="o", r=1, radius=2,
                                 components=((a,), (b,)),
                                 representatives=(a, b)),
        cs.SeparationResult: dict(verdict=Verdict.EVIDENCE,
                                  avoiding_path=None, explored=7),
        cs.SurveyReport: dict(oracle_name="o", r=1, radii=(2, 3),
                              counts=(1, 1), stable=True,
                              classification=cs.SurveyClass.PRIETO_CONSISTENT,
                              verdict="v",
                              certificate=cs.SwampCertificate(**cert)),
        cs.ConeDfaReport: dict(verdict="PASS", radius=2, max_length=8,
                               in_ball=(a,), unresolved=(b,),
                               counterexamples=(), unresolved_products=()),
        cs.QuasigeodesicReport: dict(verdict="FAIL", lam=1, c=0,
                                     max_length=8, violation=("ab", 0, 2, 0)),
    }


def test_report_records_compare_by_fields_and_build_by_keyword(f2):
    other = cs.FreeGroup(2)  # equal to f2, not the same object
    for cls, fields in _records(f2).items():
        record = cls(**fields)
        for name, value in fields.items():
            assert getattr(record, name) is value
        # _records lists the fields in their order
        assert record == cls(*fields.values())
        # field values of an equal model compare equal
        again = cls(**{k: _rehome(v, other) for k, v in fields.items()})
        assert record == again and not record != again
        for name in fields:
            changed = cls(**{**fields, name: "changed"})
            assert changed != record, (cls.__name__, name)
        with pytest.raises(TypeError):
            cls(**fields, unknown=1)


def _rehome(value, model):
    """The value with each element moved to an equal model."""
    if isinstance(value, cs.Element):
        return cs.Element(model, value.key)
    if isinstance(value, tuple):
        return tuple(_rehome(v, model) for v in value)
    return value


def test_report_record_defaults():
    assert cs.SeparationResult(Verdict.CERTIFIED_TREE) == cs.SeparationResult(
        verdict=Verdict.CERTIFIED_TREE, avoiding_path=None, explored=0)
    survey = cs.SurveyReport("o", 1, (2,), (1,), True,
                             cs.SurveyClass.PRIETO_CONSISTENT, "v")
    assert survey.certificate is None
    qg = cs.QuasigeodesicReport("PASS", 1, 0, 8)
    assert qg.violation is None


def test_paths_compare_by_points_and_width(f2):
    other = cs.FreeGroup(2)  # equal to f2, not the same object
    keys = (f2.key_of((1,)), f2.key_of((1, 2)))
    path, again = cs.RPath(f2, keys, 1), cs.RPath(other, keys, 1)
    assert path == again and not path != again
    assert path != cs.RPath(f2, keys, 2)
    assert path != cs.RPath(f2, keys[:1], 1)
    # the same keys spell a and ab in F3
    assert path != cs.RPath(cs.FreeGroup(3), keys, 1)
    # a separation result compares its path
    found = cs.SeparationResult(Verdict.NOT_SEPARATING, path, 3)
    assert found == cs.SeparationResult(Verdict.NOT_SEPARATING, again, 3)
