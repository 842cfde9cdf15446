"""Generator verification: parsing, discovery loop, dimension certificates."""

import hashlib
import importlib.resources as ir
import re

import pytest

from wpp_mori import coxring, groebner, verifygens
from wpp_mori.groebner import Ideal, buchberger, krull_dimension, normal_form, quotient_by
from wpp_mori.poly import SparsePoly, grevlex_key, parse_poly
from wpp_mori.verifygens import (
    Certificate,
    DiscoveryBudgetExceeded,
    certificate_text,
    discover_saturation_element,
    initial_basis,
    parse_instance,
    rees_multiplicities,
    verify,
)
from wpp_mori.weights import WeightTriple, coprime_triples


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


@pytest.mark.parametrize("product", ["1", "2", "0", "x + y"])
def test_product_must_be_one_term_of_positive_degree(product):
    # a constant makes <B u {t, f}> the unit ideal, so the dimension test
    # would hold with no meaning
    text = f"weights: 3 4 5\nideal: x^4 - y^3\nideal: -y^2 + x*z\nproduct: {product}"
    with pytest.raises(ValueError, match=f"one term of positive degree, not {re.escape(product)}$"):
        parse_instance(text)


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

    def discover(ideal):
        return discover_saturation_element(buchberger(ideal), degree_map)

    assert str(discover(Ideal(ring, [parse_poly("t*x", ring)]))) == "x"
    # a t-saturated ideal is a fixed point
    assert discover(Ideal(ring, [parse_poly("x", ring)])) is None


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


def _from_scratch_certificate(instance, discovery_budget=25):
    """The discovery loop with every basis, quotient and dimension computed
    afresh in each round: the oracle of the loop that carries them."""
    mults = rees_multiplicities(instance)
    warnings = [
        f"generator {f} does not vanish at the point"
        for f, m in zip(instance.ideal_gens, mults)
        if m == 0
    ]
    ring, s_names, basis = initial_basis(instance, mults)
    degree_map = verifygens._degree_map(instance, mults, s_names)
    t = SparsePoly.variable(ring, "t")
    f = instance.product.rename_ring(ring)

    def sort_key(p):
        deg = p.multi_degree(degree_map)
        head = deg if deg is not None else (10 ** 9, 10 ** 9)
        return (head, grevlex_key(p.leading()[0]))

    trace = []
    for _ in range(discovery_budget + 1):
        dim_t = krull_dimension(Ideal(ring, basis + [t]))
        dim_tf = krull_dimension(Ideal(ring, basis + [t, f]))
        dims = (3, dim_t, dim_tf)
        if dim_t == 3 and dim_t > (-1 if dim_tf is None else dim_tf):
            return certificate_text(Certificate(True, dims, list(basis), trace, mults, warnings))
        quotient = quotient_by(Ideal(ring, basis), t)
        gb = buchberger(Ideal(ring, basis))
        candidates = [normal_form(g, gb) for g in quotient.generators]
        candidates = [r.primitive() for r in candidates if not r.is_zero()]
        if not candidates:
            return certificate_text(Certificate(False, dims, list(basis), trace, mults, warnings))
        new = min(candidates, key=sort_key)
        basis.append(new)
        trace.append(new)
    raise DiscoveryBudgetExceeded


XYZ = ("x", "y", "z")


def _generator_instance(triple, gens):
    weights = WeightTriple(*triple)
    if gens == "mult2":
        # the Mult2 sections are written for the triple in the order classify gives
        cls = coxring.classify(weights)
        weights, gens = WeightTriple(*cls.reordering), coxring.mult2_fs(cls)
    return verifygens.BlowupInput(weights, XYZ, list(gens), parse_poly("x*y*z", XYZ))


def _oracle_instances():
    yield "fixture", parse_instance(fixture_text())
    for triple in [(3, 4, 5), (3, 5, 7)]:
        yield "mult2_%d_%d_%d" % triple, _generator_instance(triple, "mult2")
    for triple in [(3, 4, 5), (4, 5, 7)]:
        yield "chart_%d_%d_%d" % triple, _generator_instance(triple, coxring.chart_binomials(WeightTriple(*triple)))
    yield "kstar", parse_instance("weights: 5 2 3\nideal: x - y*z\nideal: y^3 - z^2\nproduct: x*y*z")
    yield "plane", parse_instance("weights: 1 1 1\nideal: x - z\nideal: y - z\nproduct: x*y*z")
    yield "nonvanishing", parse_instance("weights: 1 1 1\nideal: x\nideal: x - y\nproduct: z")
    # d_i - m_i = 0 for each generator, so the order's alpha is 2
    yield "squares", parse_instance(
        "weights: 1 1 1\nideal: x^2 - 2*x*z + z^2\nideal: x*y - x*z - y*z + z^2\n"
        "ideal: y^2 - 2*y*z + z^2\nproduct: x*y*z"
    )


ORACLE_INSTANCES = list(_oracle_instances())


@pytest.mark.parametrize("name, instance", ORACLE_INSTANCES, ids=[name for name, _ in ORACLE_INSTANCES])
def test_carried_bases_give_the_from_scratch_certificate(name, instance):
    text = certificate_text(verify(instance))
    assert text == _from_scratch_certificate(instance)
    if name.startswith("chart"):
        # the chart binomials alone reach the fixed point without the condition
        assert text.startswith("verified: False\ndims: 3 3 3\n")


def test_tf_dimension_only_where_it_can_decide(monkeypatch):
    # The (3,4,5) guess takes six rounds, with dim <B u {t}> = 5, 4, 4, 4, 3, 3.
    # The from-scratch loop computed dim <B u {t, f}> in each round; the
    # carried loop extends the basis of <B u {t}> by f only where
    # dim <B u {t}> = dim R_1 = 3.
    instance = _generator_instance((3, 4, 5), "mult2")
    calls = []

    def counting(ideal, **options):
        calls.append((ideal, options.get("start")))
        return buchberger(ideal, **options)

    monkeypatch.setattr(groebner, "buchberger", counting)
    cert = verify(instance)
    assert cert.ok and cert.dims == (3, 3, 2) and len(cert.trace) + 1 == 6
    ring = calls[0][0].variables
    t, f = SparsePoly.variable(ring, "t"), parse_poly("x*y*z", ring)
    by_f = [start for ideal, start in calls if ideal.generators == [f]]
    assert len(by_f) == 2
    # each extends a carried basis of <B u {t}>
    assert all(start is not None and normal_form(t, start).is_zero() for start in by_f)


MULT2_C13 = [t for t in coprime_triples(13) if coxring.classify(WeightTriple(*t)).is_mult2]

# sha256 (first 16 hex digits) of certificate_text of each Mult2 guess, taken
# when verify still ran its Groebner work under grevlex; the weighted order
# keeps each of them byte for byte
GREVLEX_CERTIFICATES = {
    (3, 4, 5): "db4f5a0aba93a557",
    (3, 5, 7): "674f1e2ae23b9354",
    (3, 7, 8): "5bcac76353419cd1",
    (3, 7, 11): "14a57784b7c75ce6",
    (3, 8, 13): "34d1bdca8104de2b",
    (3, 10, 11): "7878ecc1c5b9e03a",
    (3, 11, 13): "b436566f2946ac3f",
    (5, 6, 7): "fee7db7a158216ef",
    (5, 7, 9): "f570c98ffe92d7ff",
    (5, 8, 9): "956e4a0e6ad96c5e",
    (5, 8, 11): "ab6d40aec996fd3e",
    (5, 9, 13): "477ed854e32aed4d",
    (5, 11, 13): "390f6fc695ab4471",
    (7, 8, 9): "b4cb69569e1535a6",
    (7, 8, 11): "4945bb54f76fbe34",
    (7, 9, 11): "68dd5fac26e733f0",
    (7, 10, 13): "713a8a82e2564c5d",
    (8, 9, 13): "f87bb0cf401b17de",
    (9, 10, 11): "17ee1cbfdee3b9c4",
    (9, 11, 13): "8fa33625f6dff736",
    (11, 12, 13): "73a0260dc1a2d5f1",
}
# under the weighted order the discovery loop finds other representatives
# for these two, with the same verdict and dims
MOVED_CERTIFICATES = {(5, 11, 12), (7, 12, 13)}


def test_mult2_guess_certificate_table_covers_every_triple():
    assert sorted(GREVLEX_CERTIFICATES.keys() | MOVED_CERTIFICATES) == MULT2_C13


@pytest.mark.parametrize("triple", MULT2_C13, ids=["%d_%d_%d" % t for t in MULT2_C13])
def test_mult2_guess_certificates(triple):
    instance = _generator_instance(triple, "mult2")
    cert = verify(instance)
    assert cert.ok and cert.dims == (3, 3, 2)
    text = certificate_text(cert)
    if triple in GREVLEX_CERTIFICATES:
        assert hashlib.sha256(text.encode()).hexdigest()[:16] == GREVLEX_CERTIFICATES[triple]
        return
    # each discovered element lies in <B_0> : t^oo, read off its reduced grevlex basis
    ring, _, b0 = initial_basis(instance, cert.multiplicities)
    sat = groebner.saturate(Ideal(ring, b0), SparsePoly.variable(ring, "t"))
    gb = groebner.buchberger(sat)
    assert cert.trace and all(normal_form(g, gb).is_zero() for g in cert.trace)
