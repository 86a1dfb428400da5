import cmath
import json
import math

import pytest

from pseudo_dce import hermitize, verify


def test_unknown_level_rejected():
    with pytest.raises(ValueError):
        verify.run_verify("paranoid")


def test_crashed_check_becomes_failure(monkeypatch):
    def boom():
        raise RuntimeError("synthetic fault")

    monkeypatch.setattr(verify, "_FAST_CHECKS", [("boom", boom)])
    report = verify.run_verify("fast")
    assert not report.all_passed
    assert report.checks[0].name == "boom"
    assert "synthetic fault" in report.checks[0].detail


def test_fast_level_passes_within_budget():
    report = verify.run_verify("fast")
    failures = [c for c in report.checks if not c.passed]
    assert report.all_passed, f"failed checks: {[c.name for c in failures]}"
    assert report.total_seconds < 30.0
    assert report.level == "fast"

    payload = json.loads(report.to_json())
    assert payload["all_passed"] is True
    assert {"name", "passed", "seconds", "detail"} <= set(payload["checks"][0])
    names = [c["name"] for c in payload["checks"]]
    assert "bogoliubov_identity" in names
    assert "fault_injection" in names
    assert "theta_conservation" not in names


def test_fault_injection_blind_to_a_2pi_pump_phase(monkeypatch):
    """The verdict and its figures stay put when the pump phase arg T is
    shifted by 2*pi in the T that evolve's Magnus steps read."""
    before = verify.check_fault_injection()
    calls = []
    counterpart = hermitize._counterpart

    def shifted(*args):
        chi, W, T = counterpart(*args)
        calls.append(T)
        return chi, W, T * cmath.exp(2j * math.pi)

    monkeypatch.setattr(hermitize, "_counterpart", shifted)
    after = verify.check_fault_injection()
    assert calls
    assert before[0] and after == before
