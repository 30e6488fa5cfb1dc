"""Structure matrices, mass forms, the six-tuple parametrization and the reduction."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cubicnls.closed_form import classify
from cubicnls.quadratic_flow import integrate_full
from cubicnls.standard_form import (
    GeneralCubic,
    NonCoerciveError,
    SixTuple,
    StandardParams,
    TrivialSystemError,
    assemble_sixtuple,
    build_structure,
    extract_sixtuple,
    mass_forms,
    nonlinearity,
    reduce_to_standard,
    rotate_sixtuple,
    standard_system,
    transform_cubic,
)

from helpers import CATALOGUE

V_SYSTEM = GeneralCubic((0, 0, 0, 0, 1, 0, 0, 0, 1, 0, 0, 0))  # lambda5 = lambda9 = 1


class TestBuildStructure:
    def test_v_system(self):
        C, V = build_structure(V_SYSTEM)
        assert np.allclose(C, [[0, -1, 0], [1, 0, -1], [0, 1, 0]], atol=0)
        assert np.allclose(V, [-2, 0, -2], atol=0)

    def test_zero(self):
        C, V = build_structure(GeneralCubic((0,) * 12))
        assert np.all(C == 0) and np.all(V == 0)

    def test_lambda1_only(self):
        C, V = build_structure(GeneralCubic((1,) + (0,) * 11))
        expected = np.zeros((3, 3))
        expected[0, 1] = -1
        assert np.array_equal(C, expected)
        assert np.all(V == 0)


class TestMassForms:
    def test_v_system_kernel(self):
        C, _ = build_structure(V_SYSTEM)
        basis, coercive = mass_forms(C)
        assert coercive
        assert len(basis) == 1
        direction = basis[0] / np.linalg.norm(basis[0])
        assert np.allclose(np.abs(direction), [1, 0, 1] / np.sqrt(2), atol=1e-12)

    def test_zero_matrix(self):
        basis, coercive = mass_forms(np.zeros((3, 3)))
        assert len(basis) == 3 and coercive

    def test_identity_matrix(self):
        basis, coercive = mass_forms(np.eye(3))
        assert basis == [] and not coercive

    def test_indefinite_kernel(self):
        # kernel spanned by (1, 0, -1): a c - b^2 = -1 < 0
        C = np.array([[1.0, 0, 1], [0, 1, 0], [0, 0, 0]])
        basis, coercive = mass_forms(C)
        assert len(basis) == 1 and not coercive


class TestSixTuple:
    def test_round_trip_identity(self):
        t = SixTuple(1, 0, 0, 0, 0, 0)
        assert extract_sixtuple(assemble_sixtuple(t)) == t

    @given(st.lists(st.floats(-5, 5), min_size=6, max_size=6))
    @settings(max_examples=200, deadline=None)
    def test_round_trip_random(self, vals):
        t = SixTuple(*vals)
        back = extract_sixtuple(assemble_sixtuple(t))
        assert np.allclose(back.as_array(), t.as_array(), atol=1e-14, rtol=1e-14)

    def test_v_system_extraction(self):
        C, _ = build_structure(V_SYSTEM)
        t = extract_sixtuple(C)
        # raw extraction carries p3 with the opposite sign; the reduction's
        # rotation normalizes it
        assert np.allclose(t.as_array(), [0, 0.75, -0.25, 0, 0, 0], atol=1e-15)

    def test_shape_violation(self):
        C = np.eye(3)
        with pytest.raises(Exception, match="column identity"):
            extract_sixtuple(C)

    def test_rotation_identity(self):
        t = SixTuple(0.3, -0.7, 0.2, 0.9, -1.1, 0.4)
        assert rotate_sixtuple(t, 0.0) == t

    def test_rotation_quarter(self):
        assert np.allclose(
            rotate_sixtuple(SixTuple(0, 0, 1, 0, 0, 0), math.pi / 4).as_array(),
            [0, 0, -1, 0, 0, 0],
            atol=1e-15,
        )
        assert np.allclose(
            rotate_sixtuple(SixTuple(0, 0, 0, 0, 1, 0), math.pi / 2).as_array(),
            [0, 0, 0, 0, -1, 0],
            atol=1e-15,
        )

    def test_rotation_matches_change_of_variables(self):
        rng = np.random.default_rng(3)
        for _ in range(10):
            params = StandardParams(*rng.uniform(0.2, 1.0, 5))
            g = standard_system(params)
            theta = rng.uniform(0, 2 * math.pi)
            c, s = math.cos(theta), math.sin(theta)
            g_rot = transform_cubic(g, np.array([[c, -s], [s, c]]))
            C_rot, _ = build_structure(g_rot)
            t = SixTuple(params.p1, params.p2, params.p3, 0.0, params.p4, params.p5)
            assert np.allclose(
                extract_sixtuple(C_rot).as_array(),
                rotate_sixtuple(t, theta).as_array(),
                atol=1e-12,
            )


class TestReduce:
    def test_v_system(self):
        params, trace = reduce_to_standard(V_SYSTEM)
        assert np.allclose(params.p, [0, 0.75, 0.25, 0, 0], atol=1e-12)
        assert np.allclose(params.q, [-2, 0, -2], atol=1e-12)
        assert trace.mass_form == pytest.approx((1.0, 0.0, 1.0))
        assert not trace.component_sign_flip

    def test_idempotent_on_standard(self):
        params = StandardParams(1.0, 0.0, 0.0, 0.0, 0.0)
        out, trace = reduce_to_standard(standard_system(params))
        assert np.allclose(out.p, params.p, atol=1e-12)
        assert np.allclose(out.q, params.q, atol=1e-12)
        assert np.allclose(trace.linear_change, np.eye(2), atol=1e-12)
        assert trace.rotation_angle == 0.0

    def test_idempotent_random(self):
        rng = np.random.default_rng(12)
        for _ in range(8):
            p = StandardParams(
                rng.uniform(0, 1), rng.uniform(-1, 1), rng.uniform(0, 1),
                rng.uniform(-1, 1), rng.uniform(0, 1), *rng.uniform(-1, 1, 3),
            )
            out, _ = reduce_to_standard(standard_system(p))
            assert np.allclose(out.p, p.p, atol=1e-12)
            assert np.allclose(out.q, p.q, atol=1e-12)

    @pytest.mark.parametrize("p", CATALOGUE)
    def test_catalogue_member_reduces_to_itself(self, p):
        # plain, and disguised by v = c R(phi) diag(1, +-1) u: the mass stays
        # the conserved form, so the reduction must give back p / c^2
        params = StandardParams(*p)
        case = classify(params)
        rng = np.random.default_rng(23)
        for j in range(21):
            c, phi, sign = (1.0, 0.0, 1.0)
            if j:
                c, phi, sign = rng.uniform(0.5, 2.0), rng.uniform(0, 2 * math.pi), rng.choice([1.0, -1.0])
            rot = np.array([[math.cos(phi), -math.sin(phi)], [math.sin(phi), math.cos(phi)]])
            g = transform_cubic(standard_system(params), c * rot @ np.diag([1.0, sign]))
            out, _ = reduce_to_standard(g)
            assert classify(out) == case, (j, out.p)
            assert np.allclose(out.p * c * c, params.p, atol=1e-9), (j, out.p)

    def test_sign_flip(self):
        base = standard_system(StandardParams(1.0, 0.0, 0.0, 0.0, 0.0))
        flipped = transform_cubic(base, np.diag([1.0, -1.0]))
        C, _ = build_structure(flipped)
        assert extract_sixtuple(C).p1 < 0  # the construction really flips p1
        params, trace = reduce_to_standard(flipped)
        assert params.p1 > 0
        assert trace.component_sign_flip

    def test_non_coercive_rejected(self):
        # lambda2 = 1 gives C with trivial kernel
        g = GeneralCubic((0, 1, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0))
        basis, coercive = mass_forms(build_structure(g)[0])
        if coercive:
            pytest.skip("construction unexpectedly coercive")
        with pytest.raises(NonCoerciveError):
            reduce_to_standard(g)

    def test_general_coercive_reductions(self):
        # random coercive systems: conjugate a random standard system by a
        # random invertible change of variables, then reduce back.  The
        # output must be a valid standard form whose flow conserves mass,
        # and reducing it again must be the identity.
        rng = np.random.default_rng(4)
        produced = 0
        for _ in range(12):
            seed_params = StandardParams(
                rng.uniform(0, 1), rng.uniform(-1, 1), rng.uniform(0, 1),
                rng.uniform(-1, 1), rng.uniform(0, 1), *rng.uniform(-1, 1, 3),
            )
            while True:
                M = rng.uniform(-1.5, 1.5, (2, 2))
                if abs(np.linalg.det(M)) > 0.3:
                    break
            g = transform_cubic(standard_system(seed_params), M)
            try:
                params, _ = reduce_to_standard(g)
            except NonCoerciveError:  # pragma: no cover - should not happen
                continue
            produced += 1
            again, _ = reduce_to_standard(standard_system(params))
            assert np.allclose(again.p, params.p, atol=1e-10 * max(1, np.max(np.abs(params.p))))
            a0 = (0.5 + 0.3j, -0.2 + 0.6j)
            tr = integrate_full(params, a0, (0.0, 3.0), tol=1e-10)
            mass = np.abs(tr.states[:, 0]) ** 2 + np.abs(tr.states[:, 1]) ** 2
            assert np.max(np.abs(mass - mass[0])) < 1e-8
        assert produced >= 10


class TestNonlinearity:
    def test_zero_input(self):
        p = StandardParams(1, 0.5, 0.25, -0.3, 0.1, 1, 2, 3)
        assert nonlinearity(p, 0j, 0j) == (0j, 0j)

    def test_pure_p1(self):
        f1, f2 = nonlinearity(StandardParams(1, 0, 0, 0, 0), 1 + 0j, 0j)
        assert f1 == 0 and f2 == 1

    def test_pure_p4_rate(self):
        f1, f2 = nonlinearity(StandardParams(0, 0, 0, 1, 0), 1 + 0j, 0j)
        assert f1 == 2.0 and f2 == 0

    @given(
        st.tuples(*[st.floats(-2, 2) for _ in range(8)]),
        st.tuples(*[st.floats(-2, 2) for _ in range(4)]),
    )
    @settings(max_examples=300, deadline=None)
    def test_null_condition(self, pvals, zvals):
        p1, p2, p3, p4, p5, q1, q2, q3 = pvals
        try:
            params = StandardParams(abs(p1), p2, abs(p3), p4, abs(p5), q1, q2, q3)
        except TrivialSystemError:
            return
        z1, z2 = complex(zvals[0], zvals[1]), complex(zvals[2], zvals[3])
        f1, f2 = nonlinearity(params, z1, z2)
        val = (z1.conjugate() * f1 + z2.conjugate() * f2).imag
        scale = max(1.0, abs(z1) + abs(z2)) ** 4 * max(1.0, *np.abs(params.p), *np.abs(params.q))
        assert abs(val) < 1e-12 * scale


class TestParams:
    def test_trivial_rejected(self):
        with pytest.raises(TrivialSystemError):
            StandardParams(0, 0, 0, 0, 0)

    def test_sign_constraints(self):
        with pytest.raises(ValueError):
            StandardParams(-0.5, 0, 0, 0, 0)
        p = StandardParams(-1e-15, 1.0, 0, 0, 0)  # tiny negatives are snapped
        assert p.p1 == 0.0

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_nonfinite_rejected(self, bad):
        with pytest.raises(ValueError, match="coefficients must be finite"):
            GeneralCubic((1.0,) * 11 + (bad,))
        for at in (0, 7):
            with pytest.raises(ValueError, match="parameters must be finite"):
                StandardParams(*[bad if k == at else 1.0 for k in range(8)])

    @pytest.mark.parametrize("text", ['{"p": [1, 0, 0, 0]}', '{"p": [1, 0, 0, 0, 0, 0]}',
                                      '{"p": [1, 0, 0, 0, 0], "q": [0, 0]}'])
    def test_json_value_count_rejected(self, text):
        with pytest.raises(ValueError, match="expected 5 interaction and 3 potential parameters"):
            StandardParams.from_json(text)

    def test_json_round_trip(self):
        p = StandardParams(1, -0.5, 0.25, 0.1, 0.0, 0.3, -0.2, 0.7)
        assert StandardParams.from_json(p.to_json()) == p
        g = GeneralCubic(tuple(range(12)))
        assert GeneralCubic.from_json(g.to_json()) == g
