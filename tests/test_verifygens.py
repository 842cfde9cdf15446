"""Generator verification: parsing, discovery loop, dimension certificates."""

import importlib.resources as ir

import pytest

from wpp_mori import groebner, verifygens
from wpp_mori.groebner import Ideal
from wpp_mori.poly import SparsePoly, parse_poly
from wpp_mori.verifygens import (
    DiscoveryBudgetExceeded,
    discover_saturation_element,
    initial_basis,
    parse_instance,
    rees_multiplicities,
    verify,
)
from wpp_mori.weights import WeightTriple


def fixture_text():
    return ir.files("wpp_mori").joinpath("data/verify_gens_7_3_11.txt").read_text()


def test_parse_instance():
    inst = parse_instance(fixture_text())
    assert inst.weights.as_tuple() == (7, 3, 11)
    assert inst.variables == ("x", "y", "z")
    assert len(inst.ideal_gens) == 4
    assert str(inst.product) == "x*y*z"


def test_parse_errors():
    with pytest.raises(ValueError):
        parse_instance("vars: x y z\nideal: x\nproduct: x")
    with pytest.raises(ValueError):
        parse_instance("weights: 1 1 1\nproduct: x")
    with pytest.raises(ValueError):
        parse_instance("weights: 1 1 1\nideal: x - y")
    with pytest.raises(ValueError):
        parse_instance("weights: 1 1 1\nbogus: 1")
    with pytest.raises(ValueError):
        # inhomogeneous generator
        parse_instance("weights: 1 2 3\nideal: x + y\nproduct: x")


@pytest.mark.parametrize("weights", ["3 4", "3 4 5 6", ""])
def test_weights_need_three_integers(weights):
    with pytest.raises(ValueError, match="three integers"):
        parse_instance(f"weights: {weights}\nideal: x\nproduct: x*y*z")


@pytest.mark.parametrize(
    "names, message",
    [
        ("x y t", "reserved"),
        ("x y s1", "reserved"),
        ("t s1 s2", "reserved"),
        ("x y z w", "three distinct"),
        ("x y", "three distinct"),
        ("x x y", "three distinct"),
        ("x y 2", "not a name"),
        ("x y z^", "not a name"),
    ],
)
def test_variable_names_must_not_clash_with_the_rees_ring(names, message):
    ring = tuple(names.split())
    a, b = ring[:2]
    text = f"weights: 1 1 1\nvars: {names}\nideal: {a} - {b}\nideal: {a}\nproduct: {a}"
    with pytest.raises(ValueError, match=message):
        parse_instance(text)
    # library callers get the same check
    x = SparsePoly.variable(ring, a)
    with pytest.raises(ValueError, match=message):
        verifygens.BlowupInput(WeightTriple(1, 1, 1), ring, [x, x], x)


@pytest.mark.parametrize("repeat", ["weights: 1 1 1", "vars: x y z", "product: x"])
def test_repeated_section_is_rejected(repeat):
    # a second weights:, vars: or product: line must not replace the first
    text = f"weights: 1 1 1\nvars: x y z\nideal: x - y\nideal: x - z\nproduct: x*y*z\n{repeat}"
    with pytest.raises(ValueError, match="repeated"):
        parse_instance(text)


def test_unreserved_names_are_accepted():
    # with two ideal lines the Rees ring adds s1, s2 and t, so s3 is free
    inst = parse_instance("weights: 1 1 1\nvars: u s3 w\nideal: u - s3\nideal: u - w\nproduct: u")
    assert initial_basis(inst, rees_multiplicities(inst))[0] == ("u", "s3", "w", "s1", "s2", "t")


def test_rees_multiplicities_fixture():
    inst = parse_instance(fixture_text())
    assert rees_multiplicities(inst) == [1, 1, 1, 2]


def test_nonvanishing_generator_flagged():
    inst = parse_instance("weights: 1 1 1\nideal: x\nideal: x - y\nproduct: z")
    assert rees_multiplicities(inst) == [0, 1]
    cert = verify(inst)
    assert cert.warnings


def test_initial_basis_shape():
    inst = parse_instance(fixture_text())
    mults = rees_multiplicities(inst)
    ring, s_names, basis = initial_basis(inst, mults)
    assert ring == ("x", "y", "z", "s1", "s2", "s3", "s4", "t")
    assert s_names == ("s1", "s2", "s3", "s4")
    assert basis[0] == parse_poly("s1*t - x^2 + y*z", ring)
    assert basis[3] == parse_poly(
        "s4*t^2 - x^3*y^4 - y^11 + 3*x*y^5*z - z^3", ring
    )


def test_discover_trivial_cases():
    ring = ("x", "t")
    degree_map = {"x": (1, 0), "t": (0, 1)}
    tx = parse_poly("t*x", ring)
    found = discover_saturation_element(Ideal(ring, [tx]), "t", degree_map)
    assert str(found) == "x"
    # a t-saturated ideal is a fixed point
    x = parse_poly("x", ring)
    assert discover_saturation_element(Ideal(ring, [x]), "t", degree_map) is None


def test_verify_fixture_golden():
    cert = verify(parse_instance(fixture_text()))
    assert cert.ok
    assert cert.dims == (3, 3, 2)
    assert cert.multiplicities == [1, 1, 1, 2]
    assert len(cert.trace) == 5
    # the squared-section relation lies in the saturation of the final basis
    ring = cert.basis[0].variables
    rel = parse_poly("s3^2 + y^4*s1*s2 - z*s4", ring)
    sat = groebner.saturate(
        Ideal(ring, cert.basis), SparsePoly.variable(ring, "t")
    )
    gb = groebner.buchberger(sat)
    assert groebner.normal_form(rel, gb).is_zero()


def test_verify_kstar_instance():
    inst = parse_instance(
        "weights: 5 2 3\nideal: x - y*z\nideal: y^3 - z^2\nproduct: x*y*z"
    )
    cert = verify(inst)
    assert cert.ok
    assert cert.dims == (3, 3, 2)


def test_verify_simple_plane_instance():
    inst = parse_instance(
        "weights: 1 1 1\nideal: x - z\nideal: y - z\nproduct: x*y*z"
    )
    cert = verify(inst)
    assert cert.ok
    assert cert.dims == (3, 3, 2)


def test_discovery_budget_exceeded():
    with pytest.raises(DiscoveryBudgetExceeded):
        verify(parse_instance(fixture_text()), discovery_budget=1)


def test_certificate_text():
    cert = verify(
        parse_instance(
            "weights: 1 1 1\nideal: x - z\nideal: y - z\nproduct: x*y*z"
        )
    )
    text = verifygens.certificate_text(cert)
    assert "verified: True" in text
    assert "dims: 3 3 2" in text
