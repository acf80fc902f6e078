"""The verification records: immutable, compared by value, and their JSON dict."""

import pytest

from anyongas.report import (KNOWN_ERRATA, AmbiguityNote, CheckResult, Erratum,
                             VerificationReport)


def _check(residual=1e-16):
    return CheckResult.from_residual("id", {"q": 0.5}, residual, 1e-15, note="n")


def _report(residual=1e-16):
    note = AmbiguityNote("note", "detail", {"value": 1.0})
    return VerificationReport([_check(residual)], [KNOWN_ERRATA[0]], [note])


@pytest.mark.parametrize("record, field", [
    (_check(), "residual"), (KNOWN_ERRATA[0], "adopted"),
    (AmbiguityNote("note", "detail", {}), "values"), (_report(), "checks")])
def test_records_refuse_assignment(record, field):
    with pytest.raises(AttributeError):
        setattr(record, field, None)
    with pytest.raises(AttributeError):
        record.extra = None  # no __dict__ either


def test_records_compare_by_value():
    assert _check() == _check()
    assert _check() != _check(2e-16)
    assert Erratum("e", "p", "a", "d") == Erratum("e", "p", "a", "d")
    assert _report() == _report()


def test_from_residual_sets_passed_strictly_below_the_threshold():
    assert _check(1e-16).passed is True
    assert _check(1e-15).passed is False
    assert CheckResult("id", {}, 0.0, 1.0, True).note == ""


def test_to_dict_holds_every_field_of_every_record():
    report = _report(2e-15)
    assert not report.all_passed
    assert report.to_dict() == {
        "all_passed": False,
        "checks": [{"check_id": "id", "inputs": {"q": 0.5}, "residual": 2e-15,
                    "threshold": 1e-15, "passed": False, "note": "n"}],
        "errata": [dict(zip(Erratum._fields, KNOWN_ERRATA[0]))],
        "notes": [{"note_id": "note", "detail": "detail", "values": {"value": 1.0}}],
    }
