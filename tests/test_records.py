"""The value records: immutable, validated where they were, and equal,
hashed and printed by their fields."""
import math

import pytest

from kakutani import ParameterError, build_rho, solve_alpha
from kakutani.cover import CoverReport, LoopRule, SubstitutionMatrix, verify_cover
from kakutani.discrepancy import (
    DensityValue,
    DiscrepancySeries,
    GrowthFit,
    asymptotic_density,
)
from kakutani.geometry import Tile
from kakutani.params import Commensurable, Incommensurable
from kakutani.polynomials import IntPolynomial
from kakutani.spectral import SpreadClass, SurveyRow, classify_three_interval

SERIES = dict(
    alpha=0.3,
    t=10.0,
    density=1.5,
    density_method="closed_form",
    windows=(1.0, 2.0, 4.0),
    max_disc=(0.5, 0.5, 0.75),
)

ROW = dict(
    n=3,
    m=2,
    alpha=0.5,
    lambda1=1.5,
    lambda2_modulus=0.75,
    solomon=SpreadClass.SPREAD,
    theorem=True,
)


def samples():
    """One record of each kind, with its field names."""
    return [
        (Commensurable(3, 2), ("n", "m")),
        (Incommensurable(1.5), ("r",)),
        (Tile(0.5, 0.6, 2), ("position_value", "length_value", "label")),
        (build_rho(3, 2), ("loops", "alpha", "xi", "image")),
        (verify_cover(3, 2, 5), ("ok", "tile_count", "first_mismatch")),
        (SubstitutionMatrix(((1, 1), (1, 0))), ("entries",)),
        (DensityValue(1.5, "perron"), ("value", "method")),
        (DiscrepancySeries(**SERIES), ("alpha", "windows", "max_disc")),
        (GrowthFit("constant", 0.0, {"constant": 0.0}), ("best", "heuristic")),
        (IntPolynomial((-1, -1, 1)), ("coeffs",)),
        (SurveyRow(**ROW), ("n", "solomon", "theorem")),
        (classify_three_interval(3, 2, 1), ("loops", "polynomial", "spectral")),
    ]


@pytest.mark.parametrize("record, names", samples(), ids=lambda v: type(v).__name__)
def test_fields_cannot_be_set_or_added(record, names):
    for name in names:
        with pytest.raises(AttributeError):
            setattr(record, name, getattr(record, name))
    with pytest.raises(AttributeError):
        record.extra = 1


def test_validation_keeps_its_messages():
    for args, message in [
        ((0, 1), r"need n >= m >= 1, got \(0, 1\)"),
        ((2, 3), r"need n >= m >= 1, got \(2, 3\)"),
        ((4, 2), r"\(4, 2\) is not in lowest terms"),
    ]:
        with pytest.raises(ParameterError, match=message):
            Commensurable(*args)
    for entries in [(), ((1, 0),), ((1,), (1, 0))]:
        with pytest.raises(ParameterError, match="substitution matrix must be square"):
            SubstitutionMatrix(entries)
    for change, message in [
        ({"max_disc": (0.5, 0.5)}, "windows and maxima must align"),
        ({"windows": (1.0, 1.0, 4.0)}, "windows must be strictly increasing"),
        ({"max_disc": (0.5, 0.4, 0.75)}, "max deviation cannot shrink"),
    ]:
        with pytest.raises(ParameterError, match=message):
            DiscrepancySeries(**{**SERIES, **change})


def test_replace_validates():
    assert Commensurable(3, 2)._replace(n=5) == Commensurable(5, 2)
    with pytest.raises(ParameterError, match="lowest terms"):
        Commensurable(3, 2)._replace(n=4)
    with pytest.raises(ParameterError, match="must be square"):
        SubstitutionMatrix(((1,),))._replace(entries=((1, 0),))
    with pytest.raises(ParameterError, match="must align"):
        DiscrepancySeries(**SERIES)._replace(windows=(1.0,))


def test_repr_names_every_field():
    assert repr(Commensurable(3, 2)) == "Commensurable(n=3, m=2)"
    assert repr(Incommensurable(1.5)) == "Incommensurable(r=1.5)"
    assert repr(DensityValue(1.5, "perron")) == "DensityValue(value=1.5, method='perron')"
    assert repr(Tile(0.5, 0.6)) == "Tile(position_value=0.5, length_value=0.6, label=None)"
    assert repr(SubstitutionMatrix(((1,),))) == "SubstitutionMatrix(entries=((1,),))"
    assert repr(DiscrepancySeries(**SERIES)) == (
        "DiscrepancySeries(alpha=0.3, t=10.0, density=1.5, "
        "density_method='closed_form', windows=(1.0, 2.0, 4.0), "
        "max_disc=(0.5, 0.5, 0.75))"
    )
    assert repr(GrowthFit("power", 0.5, {"power": 0.1})) == (
        "GrowthFit(best='power', exponent=0.5, residuals={'power': 0.1}, heuristic=True)"
    )
    assert repr(verify_cover(2, 1, 3)) == (
        "CoverReport(ok=True, n=2, m=1, ell=3, tile_count=5, "
        "first_mismatch=None)"
    )
    assert repr(IntPolynomial((-1, -1, 1))) == "IntPolynomial('x^2 - x - 1')"
    assert repr(build_rho(2, 1)).startswith("LoopRule(loops=(2, 1), alpha=0.381966")
    assert repr(SurveyRow(**ROW)) == (
        "SurveyRow(n=3, m=2, alpha=0.5, lambda1=1.5, lambda2_modulus=0.75, "
        "solomon=<SpreadClass.SPREAD: 'Spread'>, theorem=True)"
    )
    assert repr(classify_three_interval(3, 2, 1)).startswith(
        "ThreeIntervalVerdict(loops=(3, 2, 1), polynomial=IntPolynomial('x^3 - x^2 - x - 1'), "
        "pv_member=True, pv_family='x^d - x^(d-1) - x^(d-2) - 1', spectral=SpectralReport("
    )


def test_equality_and_hash_follow_the_fields():
    # the hash of a record is the hash of its field tuple
    assert Commensurable(3, 2) == Commensurable(3, 2) != Commensurable(2, 1)
    assert hash(Commensurable(3, 2)) == hash((3, 2))
    assert {Commensurable(3, 2), Commensurable(3, 2)} == {Commensurable(3, 2)}
    assert build_rho(5, 3) == build_rho(5, 3) != build_rho(5, 2)
    assert hash(build_rho(5, 3)) == hash(build_rho(5, 3))
    assert verify_cover(3, 2, 6) == verify_cover(3, 2, 6) != verify_cover(3, 2, 7)
    assert asymptotic_density(0.3) == asymptotic_density(0.3)
    assert DiscrepancySeries(**SERIES) == DiscrepancySeries(**SERIES)
    assert hash(DiscrepancySeries(**SERIES)) == hash(tuple(SERIES.values()))
    assert SurveyRow(**ROW) == SurveyRow(**ROW) != SurveyRow(**{**ROW, "theorem": False})
    assert hash(SurveyRow(**ROW)) == hash(tuple(ROW.values()))
    v = classify_three_interval(3, 2, 1)
    assert v == classify_three_interval(3, 2, 1) != classify_three_interval(5, 3, 1)
    fields = (v.loops, v.polynomial, v.pv_member, v.pv_family, v.spectral, v.mismatch)
    assert hash(v) == hash(fields)
    p, q = IntPolynomial((-1, -1, 1)), IntPolynomial((-1, -1, 1, 0))
    assert p == q and hash(p) == hash(q) == hash(((-1, -1, 1),))
    assert p != IntPolynomial((1, -1, 1))
    assert p != (-1, -1, 1)
    with pytest.raises(TypeError):
        hash(GrowthFit("constant", 0.0, {"constant": 0.0}))  # a dict field


def test_records_that_are_not_sequences():
    # a polynomial divides as a polynomial
    x = IntPolynomial((0, 1))
    assert divmod(IntPolynomial((0, 0, 1)), x) == (x, IntPolynomial.zero())
    assert not isinstance(x, tuple)


def test_cover_report_truth_is_ok():
    assert verify_cover(3, 2, 5)
    report = verify_cover(3, 2, 5)._replace(ok=False)
    assert isinstance(report, CoverReport) and not report


def test_loop_rule_properties():
    rule = build_rho(3, 2)
    assert isinstance(rule, LoopRule)
    assert rule.size == 4
    assert rule.alpha == solve_alpha(3, 2)
    assert rule.polynomial == IntPolynomial((-1, -1, 0, 1))
    assert math.isclose(rule.xi, rule.alpha ** (-1 / 3))

