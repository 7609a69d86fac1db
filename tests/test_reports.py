import math

from torusgauge.expr import parse_expr
from torusgauge.polytrig import PolyTrig
from torusgauge.reports import CheckReport, phase_item
from torusgauge.scalar import Scalar


def verdict(slack):
    report = CheckReport("probe")
    ok = phase_item(report, "slack", slack)
    (item,) = report.items
    assert item.passed is ok and item.note is None
    return ok, item.residue


def test_phase_item_decides_on_the_slack():
    assert verdict(parse_expr("6*pi", 2)) == (True, "0")
    assert verdict(parse_expr("pi", 2)) == (False, "pi")
    assert verdict(parse_expr("x1", 2)) == (False, "nonconstant")
    near = PolyTrig.const(2, Scalar.approx(2 * math.pi - 1e-12))
    ok, residue = verdict(near)
    assert ok and "tol=" in residue
    far = PolyTrig.const(2, Scalar.approx(2 * math.pi - 1e-3))
    assert not verdict(far)[0]
