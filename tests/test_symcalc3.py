import random
from fractions import Fraction
from itertools import product

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from diffops import symcalc3
from diffops.chains import enumerate_chains
from diffops.errors import CompositionTypeError, InvalidArgumentError, InvalidDirectionError
from diffops.opgraph import build_space
from diffops.symcalc3 import (
    DEFAULT_DIRECTION,
    NONZERO_CHAINS,
    ZERO_CHAINS,
    Direction,
    Poly3,
    VecField3,
    chain_vanishes,
    compose_and_check,
    curl,
    direction,
    div,
    fill_vanishing,
    gateaux,
    grad,
    _random_int_poly3,
    make_chain,
    verify_identities,
)

from r3_reference import laplacian_direct, random_poly3, random_vecfield3

X1, X2, X3 = (Poly3.variable(i) for i in range(3))


def sweep_vanishes(ops, e):
    """Oracle for chain_vanishes: apply the chain to every monomial of degree
    k (times each basis vector when the input is a vector field).

    Each operation is a homogeneous first-order operator with constant
    coefficients, so a chain of length k is a sum of c_b * d^b over the
    multi-indices |b| = k. It sends the monomial x^b with |b| = k to b! c_b,
    so it vanishes identically iff it kills every one of them.
    """
    t = tuple(ops)
    k = len(t)
    vector_input = make_chain(t).signature[0] == 1
    for exps in product(range(k + 1), repeat=3):
        if sum(exps) != k:
            continue
        mono, z = Poly3({exps: 1}), Poly3.zero()
        if vector_input:
            basis = [VecField3(mono, z, z), VecField3(z, mono, z), VecField3(z, z, mono)]
        else:
            basis = [mono]
        if any(not compose_and_check(t, field, e).is_zero for field in basis):
            return False
    return True


def coeffs(**kw):
    return kw


# strategy for small exact polynomials
poly_terms = st.dictionaries(
    keys=st.tuples(*(st.integers(min_value=0, max_value=3) for _ in range(3))),
    values=st.fractions(min_value=-9, max_value=9, max_denominator=3),
    max_size=6,
)
polys = poly_terms.map(Poly3)


class TestPoly3:
    def test_zero_coefficients_dropped(self):
        p = Poly3({(1, 0, 0): Fraction(0), (0, 1, 0): Fraction(2)})
        assert p.terms == {(0, 1, 0): Fraction(2)}

    def test_negative_exponent_rejected(self):
        with pytest.raises(ValueError):
            Poly3({(-1, 0, 0): 1})

    def test_arithmetic(self):
        p = X1 * X1 + 2 * X2
        q = p - X1 * X1
        assert q == 2 * X2
        assert (p - p).is_zero

    def test_diff(self):
        f = X1 * X1 + X2 * X3
        assert f.diff(0) == 2 * X1
        assert f.diff(1) == X3
        assert f.diff(2) == X2

    def test_constant_has_zero_gradient(self):
        assert grad(Poly3.constant(Fraction(7, 3))).is_zero

    def test_evaluate(self):
        f = X1 * X2 * X3 + Poly3.constant(1)
        assert f.evaluate((Fraction(1, 2), 2, 3)) == Fraction(4)

    def test_degree(self):
        assert Poly3.zero().degree() == -1
        assert (X1 * X2 * X3).degree() == 3

    @settings(max_examples=60, derandomize=True)
    @given(p=polys, q=polys, r=polys)
    def test_ring_distributivity(self, p, q, r):
        assert p * (q + r) == p * q + p * r

    @settings(max_examples=60, derandomize=True)
    @given(p=polys, q=polys)
    def test_leibniz_rule(self, p, q):
        for i in range(3):
            assert (p * q).diff(i) == p.diff(i) * q + p * q.diff(i)


def assert_clean(p):
    """p holds exactly the term map the validating constructor makes of it:
    triples of non-negative ints mapped to nonzero Fractions."""
    assert isinstance(p, Poly3)
    assert Poly3(dict(p.terms)) == p
    for e, c in p.terms.items():
        assert type(e) is tuple and len(e) == 3
        assert all(type(x) is int and x >= 0 for x in e)
        assert type(c) is Fraction and c != 0


def reference_sum(p, q, sign=1):
    keys = set(p.terms) | set(q.terms)
    return Poly3({e: p.terms.get(e, 0) + sign * q.terms.get(e, 0) for e in keys})


def reference_product(p, q):
    out = {}
    for (a, c), (b, d) in product(p.terms.items(), q.terms.items()):
        e = tuple(x + y for x, y in zip(a, b))
        out[e] = out.get(e, 0) + c * d
    return Poly3(out)


def reference_diff(p, i):
    out = {}
    for e, c in p.terms.items():
        d = list(e)
        d[i] -= 1
        if d[i] >= 0:
            out[tuple(d)] = c * e[i]
    return Poly3(out)


class TestCleanResults:
    """Results of the calculus skip the validating constructor; each must
    hold a clean term map and equal a reference built through it."""

    def check_all(self, f, g):
        results = {
            "f + g": (f + g, reference_sum(f, g)),
            "f - g": (f - g, reference_sum(f, g, -1)),
            "g - f": (g - f, reference_sum(g, f, -1)),
            "-f": (-f, reference_sum(Poly3.zero(), f, -1)),
            "3 - f": (3 - f, reference_sum(Poly3.constant(3), f, -1)),
            "f + 1": (f + 1, reference_sum(f, Poly3.constant(1))),
            "f * 3": (f * 3, reference_product(f, Poly3.constant(3))),
            "f * -2/3": (f * Fraction(-2, 3), reference_product(f, Poly3.constant(Fraction(-2, 3)))),
            "0 * f": (0 * f, Poly3.zero()),
            "f * g": (f * g, reference_product(f, g)),
            "f - f": (f - f, Poly3.zero()),
            "f + (-f)": (f + (-f), Poly3.zero()),
        }
        for i in range(3):
            results[f"d{i} f"] = (f.diff(i), reference_diff(f, i))
        field = VecField3(f, g, f * g)
        results["F . e"] = (
            field.dot(DEFAULT_DIRECTION.e),
            reference_sum(
                reference_sum(f * DEFAULT_DIRECTION.e[0], g * DEFAULT_DIRECTION.e[1]),
                reference_product(f, g) * DEFAULT_DIRECTION.e[2],
            ),
        )
        for name, (got, want) in results.items():
            assert_clean(got)
            assert got == want, name

    @pytest.mark.parametrize("seed", range(8))
    def test_seeded_random_polynomials(self, seed):
        rng = random.Random(seed)
        f, g = random_poly3(rng, 4), random_poly3(rng, 3)
        self.check_all(f, g)
        # g shares and cancels part of f's terms
        half = Poly3({e: -c for i, (e, c) in enumerate(f.terms.items()) if i % 2})
        self.check_all(f, half)

    @settings(max_examples=80, derandomize=True)
    @given(f=polys, g=polys)
    def test_small_polynomials(self, f, g):
        self.check_all(f, g)

    def test_cancellation_gives_the_zero_polynomial(self):
        f = random_poly3(random.Random(3), 5)
        for r in (f - f, f + (-f), -f + f, 0 * f, f * Fraction(0), f * Poly3.zero()):
            assert r.terms == {}

    @pytest.mark.parametrize("seed", [0, 1, 7, 42])
    @pytest.mark.parametrize("max_degree", range(7))
    def test_random_poly3_matches_validating_reference(self, seed, max_degree):
        # the identity suite's int fields, scaled back by 1/6, are clean
        # rational polynomials equal to the validating reference
        ints, fracs = random.Random(seed), random.Random(seed)
        for _ in range(3):
            p = _random_int_poly3(ints, max_degree) * Fraction(1, 6)
            q = random_poly3(fracs, max_degree)
            assert_clean(p)
            assert p == q
            assert list(p.terms) == list(q.terms)


def reference_report(trials, max_degree, seed, e):
    """The holds and witnessed flags of verify_identities, computed on the
    rational fields of random_poly3 with the rational direction e."""
    rng = random.Random(seed)
    scalars = [random_poly3(rng, max_degree) for _ in range(trials)]
    vectors = [random_vecfield3(rng, max_degree) for _ in range(trials)]

    def results(ops):
        fields = scalars if make_chain(ops).signature[0] == 0 else vectors
        return [compose_and_check(ops, f, e).is_zero for f in fields]

    return (
        [all(results(ops)) for ops in ZERO_CHAINS],
        [not all(results(ops)) for ops in NONZERO_CHAINS],
    )


def int_field(rng, kind, max_degree):
    if kind == 0:
        return _random_int_poly3(rng, max_degree)
    return VecField3(*(_random_int_poly3(rng, max_degree) for _ in range(3)))


def components(field):
    return field.components if isinstance(field, VecField3) else (field,)


class TestIntegerPath:
    """verify_identities runs on 6 x random_poly3 fields and an integer
    multiple of the direction; these pin that path to the rational one."""

    @pytest.mark.parametrize("seed", [0, 1, 7, 42])
    @pytest.mark.parametrize("max_degree", range(7))
    def test_int_generator_is_six_times_random_poly3(self, seed, max_degree):
        ints, fracs = random.Random(seed), random.Random(seed)
        for _ in range(3):
            p, q = _random_int_poly3(ints, max_degree), random_poly3(fracs, max_degree)
            assert p == q * 6
            assert list(p.terms) == list(q.terms)
            assert all(type(c) is int for c in p.terms.values())
        assert ints.getstate() == fracs.getstate()

    @pytest.mark.parametrize("k", [1, 2, 3])
    def test_chains_on_int_fields_stay_int(self, k):
        # (3/5, 4/5, 0) scaled by the lcm 5 of its denominators
        e_int = Direction((3, 4, 0), False)
        rng = random.Random(k)
        for chain in enumerate_chains(build_space(3, "B"), k):
            field = int_field(rng, chain.signature[0], 4)
            out = compose_and_check(chain, field, e_int)
            assert all(
                type(c) is int for comp in components(out) for c in comp.terms.values()
            ), chain.ops
            # L'(6f) = 5^j * L(6f) for the j directional derivatives in L
            rational = compose_and_check(chain, field, DEFAULT_DIRECTION)
            assert out == rational * 5 ** chain.ops.count(0)

    def test_verify_identities_composes_int_fields_and_direction(self, monkeypatch):
        calls = []

        def recording(chain, field, e=None):
            calls.append((field, e))
            return compose_and_check(chain, field, e)

        monkeypatch.setattr(symcalc3, "compose_and_check", recording)
        verify_identities(trials=2, max_degree=3, seed=5)
        assert calls
        for field, e in calls:
            assert all(type(c) is int for comp in components(field) for c in comp.terms.values())
            assert e.e == (3, 4, 0) and all(type(x) is int for x in e.e)

    @pytest.mark.parametrize(
        "e",
        [DEFAULT_DIRECTION, direction(Fraction(2, 7), Fraction(3, 7), Fraction(6, 7)),
         direction(1, 2, 3, strict=False)],
        ids=["3/5,4/5,0", "2/7,3/7,6/7", "relaxed 1,2,3"],
    )
    @pytest.mark.parametrize("max_degree", [3, 4, 5, 6])
    def test_flags_match_rational_reference(self, e, max_degree):
        for seed in (0, 3, 11):
            for trials in (1, 2, 3):
                report = verify_identities(trials, max_degree, seed, e)
                holds, witnessed = reference_report(trials, max_degree, seed, e)
                assert [c.holds for c in report.zero_checks] == holds
                assert [c.witnessed for c in report.witness_checks] == witnessed


class TestOperators:
    def test_grad_example(self):
        assert grad(X1 * X1 + X2 * X3) == VecField3(2 * X1, X3, X2)

    def test_grad_product_example(self):
        assert grad(X1 * X2 * X3) == VecField3(X2 * X3, X1 * X3, X1 * X2)

    def test_curl_example(self):
        assert curl(VecField3(X2, 0, 0)) == VecField3(0, 0, -1)

    def test_curl_example_two(self):
        assert curl(VecField3(0, 0, X1 * X2)) == VecField3(X1, -X2, 0)

    def test_curl_of_gradient_vanishes(self):
        assert curl(grad(X1 * X2 * X3)).is_zero

    def test_div_examples(self):
        assert div(VecField3(X1, X2, X3)) == Poly3.constant(3)
        assert div(VecField3(X1 * X1, 0, 0)) == 2 * X1

    def test_div_of_curl_vanishes(self):
        assert div(curl(VecField3(X2 * X3, X1 * X3, X1 * X2))).is_zero

    def test_gateaux_axis_direction(self):
        e = direction(1, 0, 0)
        f = X1 * X1 * X2 + X3
        assert gateaux(f, e) == f.diff(0)

    def test_gateaux_pythagorean_direction(self):
        e = direction(Fraction(3, 5), Fraction(4, 5), 0)
        assert gateaux(X1 + X2, e) == Poly3.constant(Fraction(7, 5))

    def test_gateaux_is_gradient_dot_direction(self):
        rng = random.Random(11)
        e = DEFAULT_DIRECTION
        for _ in range(10):
            f = random_poly3(rng, 4)
            assert gateaux(f, e) == grad(f).dot(e.e)

    def test_operators_are_linear(self):
        rng = random.Random(5)
        c = Fraction(-7, 3)
        for _ in range(5):
            f, g = random_poly3(rng, 3), random_poly3(rng, 3)
            F, G = random_vecfield3(rng, 3), random_vecfield3(rng, 3)
            assert grad(f + g) == grad(f) + grad(g)
            assert grad(f * c) == grad(f) * c
            assert div(F + G) == div(F) + div(G)
            assert div(F * c) == div(F) * c
            assert curl(F + G) == curl(F) + curl(G)
            assert curl(F * c) == curl(F) * c
            assert gateaux(f + g, DEFAULT_DIRECTION) == gateaux(f, DEFAULT_DIRECTION) + gateaux(g, DEFAULT_DIRECTION)


class TestDirection:
    def test_strict_requires_unit_norm(self):
        with pytest.raises(InvalidDirectionError):
            direction(1, 1, 0)

    def test_relaxed_accepts_any_nonzero(self):
        d = direction(1, 1, 0, strict=False)
        assert not d.unit_checked

    def test_zero_rejected_even_relaxed(self):
        with pytest.raises(InvalidDirectionError):
            direction(0, 0, 0, strict=False)

    def test_unit_flag(self):
        assert direction(Fraction(3, 5), Fraction(4, 5), 0).unit_checked


class TestCompose:
    def test_laplacian_of_squared_radius(self):
        f = X1 * X1 + X2 * X2 + X3 * X3
        assert compose_and_check((3, 1), f) == Poly3.constant(6)

    def test_curl_grad_div_always_vanishes(self):
        rng = random.Random(3)
        for _ in range(5):
            F = random_vecfield3(rng, 4)
            assert compose_and_check((2, 1, 3), F).is_zero

    def test_repeated_directional_derivative_along_axis(self):
        e = direction(1, 0, 0)
        rng = random.Random(9)
        f = random_poly3(rng, 4)
        assert compose_and_check((0, 0), f, e) == f.diff(0).diff(0)

    def test_kind_mismatch_raises(self):
        with pytest.raises(CompositionTypeError):
            compose_and_check((1, 1), X1)  # grad of a vector is meaningless
        with pytest.raises(CompositionTypeError):
            compose_and_check((3, 1), VecField3(X1, 0, 0))  # needs a scalar

    def test_directional_derivative_requires_direction(self):
        with pytest.raises(InvalidDirectionError):
            compose_and_check((0,), X1)

    def test_output_kind_matches_codomain(self):
        out = compose_and_check((1, 3), VecField3(X1 * X2, 0, 0))
        assert isinstance(out, VecField3)
        out = compose_and_check((3, 1), X1 * X1)
        assert isinstance(out, Poly3)

    def test_make_chain_signatures(self):
        assert make_chain((3, 1)).signature == (0, 0)
        assert make_chain((1, 3)).signature == (1, 1)
        assert make_chain((2, 1, 0)).signature == (0, 1)

    def test_composability_agrees_with_relation_exhaustively(self):
        # k <= 3 over family B, n = 3: evaluability must coincide with the
        # enumerated meaningful chains
        from itertools import product

        space = build_space(3, "B")
        rng = random.Random(1)
        scalar = random_poly3(rng, 3)
        vector = random_vecfield3(rng, 3)
        for k in (1, 2, 3):
            meaningful = {c.ops for c in enumerate_chains(space, k)}
            for seq in product(space.ops, repeat=k):
                applies = []
                for field in (scalar, vector):
                    try:
                        compose_and_check(seq, field, DEFAULT_DIRECTION)
                        applies.append(True)
                    except CompositionTypeError:
                        applies.append(False)
                assert any(applies) == (seq in meaningful)


class TestIdentityReport:
    def test_default_run_all_pass(self):
        report = verify_identities(trials=25, max_degree=4, seed=7)
        assert report.passed
        assert report.zero_held == 9 == len(report.zero_checks)
        assert report.witnessed_count == 15 == len(report.witness_checks)
        assert "9/9 zero-identities hold" in report.summary

    def test_deterministic_given_seed(self):
        a = verify_identities(trials=5, max_degree=3, seed=42)
        b = verify_identities(trials=5, max_degree=3, seed=42)
        assert a == b

    def test_invalid_parameters(self):
        with pytest.raises(ValueError):
            verify_identities(trials=0)
        with pytest.raises(ValueError):
            verify_identities(max_degree=1)
        # degree-2 fields cannot witness a third-order composition
        with pytest.raises(InvalidArgumentError):
            verify_identities(max_degree=2)

    def test_laplacian_witness(self):
        assert compose_and_check((3, 1), X1 * X1) == Poly3.constant(2)

    def test_curl_curl_witness(self):
        assert compose_and_check((2, 2), VecField3(0, 0, X1 * X1)) == VecField3(0, 0, -2)


class TestVanishingDecision:
    def test_zero_chains_vanish_exactly(self):
        for ops in ZERO_CHAINS:
            assert chain_vanishes(ops)

    def test_nonzero_chains_do_not(self):
        for ops in NONZERO_CHAINS:
            assert not chain_vanishes(ops)

    def test_annotations_match_displayed_lists(self):
        space = build_space(3, "B")
        second = fill_vanishing(enumerate_chains(space, 2))
        assert {c.ops for c in second if c.vanishes_identically} == {(2, 1), (3, 2)}
        third = fill_vanishing(enumerate_chains(space, 3))
        assert {c.ops for c in third if c.vanishes_identically} == {
            (2, 1, 0),
            (2, 2, 1),
            (3, 2, 1),
            (3, 2, 2),
            (0, 3, 2),
            (1, 3, 2),
            (2, 1, 3),
        }

    def test_family_a_annotations(self):
        space = build_space(3, "A")
        third = fill_vanishing(enumerate_chains(space, 3))
        assert {c.ops for c in third if c.vanishes_identically} == {
            (2, 2, 1),
            (3, 2, 1),
            (3, 2, 2),
            (1, 3, 2),
            (2, 1, 3),
        }

    @pytest.mark.parametrize(
        "e",
        [DEFAULT_DIRECTION, direction(Fraction(2, 7), Fraction(3, 7), Fraction(6, 7))],
        ids=["e_340_over_5", "e_236_over_7"],
    )
    def test_pair_rule_matches_monomial_sweep(self, e):
        for k in range(1, 6):
            chains = {
                c.ops for fam in ("A", "B") for c in enumerate_chains(build_space(3, fam), k)
            }
            for ops in sorted(chains):
                assert chain_vanishes(ops) == sweep_vanishes(ops, e), ops

    def test_tables_are_the_order_2_and_3_partition(self):
        space = build_space(3, "B")
        chains = [c.ops for k in (2, 3) for c in enumerate_chains(space, k)]
        assert sorted(ZERO_CHAINS + NONZERO_CHAINS) == sorted(chains)
        assert sorted(ops for ops in chains if chain_vanishes(ops)) == sorted(ZERO_CHAINS)

    @pytest.mark.parametrize("ops", [(), (7,), (1, 1)])
    def test_chain_that_is_not_meaningful_raises(self, ops):
        with pytest.raises(CompositionTypeError):
            chain_vanishes(ops)


class TestSympyOracle:
    def test_chain_vanishes_matches_generic_fields(self):
        sympy = pytest.importorskip("sympy")
        xs = sympy.symbols("x1:4")
        e = [sympy.Rational(c) for c in DEFAULT_DIRECTION.e]

        def apply(i, field):
            if i == 0:
                return sum(c * sympy.diff(field, x) for c, x in zip(e, xs))
            if i == 1:
                return [sympy.diff(field, x) for x in xs]
            if i == 2:
                f1, f2, f3 = field
                x1, x2, x3 = xs
                return [
                    sympy.diff(f3, x2) - sympy.diff(f2, x3),
                    sympy.diff(f1, x3) - sympy.diff(f3, x1),
                    sympy.diff(f2, x1) - sympy.diff(f1, x2),
                ]
            return sum(sympy.diff(f, x) for f, x in zip(field, xs))

        scalar = sympy.Function("f")(*xs)
        vector = [sympy.Function(f"F{j}")(*xs) for j in (1, 2, 3)]
        space = build_space(3, "B")
        for k in (1, 2, 3):
            for chain in enumerate_chains(space, k):
                field = scalar if chain.signature[0] == 0 else vector
                for i in reversed(chain.ops):
                    field = apply(i, field)
                parts = field if isinstance(field, list) else [field]
                is_zero = all(sympy.expand(p) == 0 for p in parts)
                assert chain_vanishes(chain.ops) == is_zero, chain.ops


class TestLaplacianConsistency:
    def test_compose_equals_direct_second_derivatives(self):
        rng = random.Random(17)
        for _ in range(10):
            f = random_poly3(rng, 5)
            assert compose_and_check((3, 1), f) == laplacian_direct(f)


class TestNumericCrossCheck:
    def test_symbolic_matches_finite_differences(self):
        rng = random.Random(2024)
        h = 1e-4
        cases = 0
        while cases < 20:
            f = random_poly3(rng, 4)
            axis = rng.randrange(3)
            point = [Fraction(rng.randint(-8, 8), 4) for _ in range(3)]
            exact = float(f.diff(axis).evaluate(point))
            if abs(exact) < 0.1:
                continue  # relative error needs a well-separated denominator
            cases += 1
            up = [float(x) for x in point]
            down = [float(x) for x in point]
            up[axis] += h
            down[axis] -= h
            fd = (f.evaluate(up) - f.evaluate(down)) / (2 * h)
            assert abs(float(fd) - exact) / abs(exact) < 1e-6
