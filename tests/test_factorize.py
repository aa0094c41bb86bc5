import cmath
import math
import warnings
from fractions import Fraction

import numpy as np
import pytest

from pathent.factorize import (
    FactorSet,
    TargetSpec,
    _monomial_scales,
    _polish_roots,
    _wrap_angle,
    apply_factors,
    factorize_target,
    find_factor_angles,
    monomial_coeffs,
    noon_factor_angles,
    noon_target,
    normalization,
    reconstruct,
    state_of_target,
    target_of_state,
)
from pathent.fock import (
    apply_linear_factor,
    basis_state,
    noon_state,
    overlap_fidelity,
    vacuum,
    zero_state,
)
from helpers import (assert_angle_multisets_close, random_target,
                     reference_monomial_coeffs, reference_polish_roots)


def test_target_spec_normalizes():
    t = TargetSpec(2, [2.0, 0.0, 0.0])
    assert t.coeffs[0] == 1.0
    assert abs(sum(abs(c) ** 2 for c in t.coeffs) - 1.0) < 1e-12


def test_target_spec_rejects_bad_input():
    with pytest.raises(ValueError):
        TargetSpec(2, [0.0, 0.0, 0.0])
    with pytest.raises(ValueError):
        TargetSpec(2, [1.0, 0.0])
    with pytest.raises(ValueError):
        TargetSpec(0, [1.0])


@pytest.mark.parametrize("bad", [math.nan, math.inf, complex(0.0, -math.inf)])
def test_target_spec_rejects_non_finite_naming_the_index(bad):
    with pytest.raises(ValueError, match=r"coeffs\[1\]"):
        TargetSpec(2, [1.0, bad, 0.0])


def test_target_spec_normalizes_when_the_plain_norm_overflows():
    t = TargetSpec(2, [1e308, 1e308, 0.0])
    np.testing.assert_allclose(t.coeffs, [1 / math.sqrt(2.0)] * 2 + [0.0],
                               rtol=1e-15)
    with pytest.raises(ValueError, match="float range"):
        TargetSpec(1, [1.5e308, complex(1.5e308, 1.5e308)])


@pytest.mark.parametrize("tiny", [1e-160, 1e-200])
def test_target_spec_normalizes_when_the_plain_norm_underflows(tiny):
    # 1e-160 squares to a subnormal that keeps only a few digits
    t = TargetSpec(1, [tiny, tiny])
    np.testing.assert_allclose(t.coeffs, [1 / math.sqrt(2.0)] * 2, rtol=1e-15)
    with pytest.raises(ValueError, match="zero"):
        TargetSpec(1, [0.0, 0.0])
    with pytest.raises(ValueError, match="float range"):
        TargetSpec(1, [5e-324, 0.0])


def test_monomial_coeffs_values():
    d = monomial_coeffs(TargetSpec(2, [0.0, 1.0, 0.0]))
    np.testing.assert_allclose(d, [0.0, 1.0, 0.0])

    d = monomial_coeffs(TargetSpec(2, [1.0, 0.0, 0.0]))
    np.testing.assert_allclose(d[0], 1.0 / math.sqrt(2.0))

    d = monomial_coeffs(noon_target(4))
    expected = 1.0 / (math.sqrt(2.0) * math.sqrt(24.0))
    np.testing.assert_allclose(d[0], expected)
    np.testing.assert_allclose(d[4], expected)
    np.testing.assert_allclose(d[1:4], 0.0, atol=1e-16)


def test_monomial_coeffs_keep_their_bits_within_the_float_range():
    # Up to n = 170 every k! (n - k)! fits in a float: the plain quotient,
    # signed zeros included.
    rng = np.random.default_rng(170)
    targets = [random_target(rng, n) for n in (1, 7, 64, 170)]
    targets.append(TargetSpec(3, [complex(-0.0, 0.5), complex(0.5, -0.0),
                                  0.0, -1.0]))
    for target in targets:
        n = target.n_photons
        want = np.array(
            [c / math.sqrt(math.factorial(k) * math.factorial(n - k))
             for k, c in enumerate(target.coeffs)], dtype=complex)
        assert monomial_coeffs(target).tobytes() == want.tobytes()


def test_monomial_coeffs_match_the_per_k_loop_bit_for_bit():
    # The scales cached per N against the loop that computes every k on its
    # own, at N = 1..400: through the shifted range N >= 171 and past the
    # N where every d_k of a random target underflows.  Coefficients hold
    # exact and signed zeros; bytes are compared, so sign bits count.
    rng = np.random.default_rng(400)
    shifted_signed_zeros = underflowed = 0
    for n in range(1, 401):
        v = rng.standard_normal(n + 1) + 1j * rng.standard_normal(n + 1)
        v[rng.random(n + 1) < 0.2] = 0.0
        v.real[rng.random(n + 1) < 0.2] = -0.0
        v.imag[rng.random(n + 1) < 0.2] = -0.0
        target = TargetSpec(n, v)
        want = reference_monomial_coeffs(target)
        if not want.any():
            underflowed += 1
            with pytest.raises(ValueError, match="underflows to 0"):
                monomial_coeffs(target)
            continue
        assert monomial_coeffs(target).tobytes() == want.tobytes(), n
        parts = want.view(float)
        if n >= 171:
            shifted_signed_zeros += np.count_nonzero(
                (parts == 0.0) & np.signbit(parts))
    assert shifted_signed_zeros > 0 and underflowed > 0
    assert _monomial_scales.cache_info().maxsize is not None
    with pytest.raises(ValueError, match="underflows to 0 at N = 400"):
        monomial_coeffs(noon_target(400))


@pytest.mark.parametrize("n", [171, 200, 300])
def test_monomial_coeffs_beyond_the_float_range(n):
    # d_k^2 k! (n - k)! = c_k^2 in exact rational arithmetic, to a few ulps.
    target = TargetSpec(n, [1.0] * (n + 1))
    c = Fraction(target.coeffs[0].real)
    for k, d in enumerate(monomial_coeffs(target)):
        assert d.imag == 0.0 and d.real > 0.0
        f = math.factorial(k) * math.factorial(n - k)
        assert abs(float(Fraction(d.real) ** 2 * f / c ** 2) - 1.0) < 1e-15


@pytest.mark.parametrize("theta,phi,scale", [
    (0.3, 1.1, 1.0),
    (1.2, -2.0, 0.5 - 2.0j),
    (0.7, 3.0, -3.0),
])
def test_single_factor_recovery(theta, phi, scale):
    # d = (-e^{i phi} sin(theta), cos(theta)) up to any complex scale
    d = np.array([-cmath.exp(1j * phi) * math.sin(theta),
                  math.cos(theta)]) * scale
    angles = find_factor_angles(d)
    assert len(angles) == 1
    assert_angle_multisets_close(angles, [(theta, phi)], tol=1e-9)


def test_noon2_roots():
    angles = find_factor_angles(monomial_coeffs(noon_target(2)))
    assert_angle_multisets_close(
        angles,
        [(math.pi / 4, math.pi / 2), (math.pi / 4, -math.pi / 2)],
        tol=1e-9,
    )


def test_double_root_at_origin():
    # |2,0> target: monomial d_2 z^2, both roots at z = 0
    angles = find_factor_angles(monomial_coeffs(TargetSpec(2, [0, 0, 1])))
    assert angles == [(0.0, 0.0), (0.0, 0.0)]


def _find_factor_angles_per_root(d):
    """The root finder with one damped Newton step per root, a scalar at a time.

    The reference for the vectorized polish of ``find_factor_angles``.
    """
    d = np.asarray(d, dtype=complex)
    poly = np.polynomial.polynomial
    angles = []
    for z in map(complex, np.roots(d[::-1])):
        p = poly.polyval(z, d)
        dp = poly.polyval(z, poly.polyder(d))
        if dp != 0:
            z_new = z - p / dp
            if abs(poly.polyval(z_new, d)) < abs(p):
                z = z_new
        angles.append((math.atan(abs(z)),
                       _wrap_angle(cmath.phase(z)) if z != 0 else 0.0))
    return sorted(angles)


def test_double_root_at_one_matches_the_per_root_polish():
    # (z - 1)^2: np.roots splits the double root by about 1e-8, and Newton
    # steps there lower |p| only sometimes
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        angles = find_factor_angles([1, -2, 1])
    assert angles == _find_factor_angles_per_root([1, -2, 1])
    for theta, phi in angles:
        assert abs(theta - math.pi / 4) < 2e-8 and abs(phi) < 2e-8


def test_vectorized_polish_matches_the_per_root_polish():
    rng = np.random.default_rng(9)
    for n in (6, 16, 32, 48):
        d = monomial_coeffs(random_target(rng, n))
        assert_angle_multisets_close(find_factor_angles(d),
                                     _find_factor_angles_per_root(d), tol=1e-12)


def test_all_zero_vector_rejected():
    with pytest.raises(ValueError):
        find_factor_angles([0.0, 0.0, 0.0])


@pytest.mark.parametrize("n,zeros", [(3, 1), (4, 2), (5, 4)])
def test_degree_deficiency_gives_infinite_roots(n, zeros):
    coeffs = [0.0] * (n + 1)
    for k in range(n + 1 - zeros):
        coeffs[k] = 1.0
    angles = find_factor_angles(monomial_coeffs(TargetSpec(n, coeffs)))
    assert len(angles) == n
    assert sum(1 for th, ph in angles if th == math.pi / 2) == zeros


def test_normalization_single_photon():
    for theta, phi in [(0.0, 0.0), (0.9, 2.0), (math.pi / 2, 0.0)]:
        n_sq, g = normalization([(theta, phi)])
        np.testing.assert_allclose(n_sq, 1.0)
        assert g == 1.0


@pytest.mark.parametrize("n", range(1, 7))
def test_normalization_of_noon_angles(n):
    n_sq, _ = normalization(noon_factor_angles(n))
    np.testing.assert_allclose(n_sq, 2.0 ** (1 - n) * math.factorial(n),
                               rtol=1e-12)


@pytest.mark.parametrize("n", range(1, 6))
def test_normalization_of_single_arm_state(n):
    # all theta = 0 factors produce a†^n |0,0>, whose norm² is n!
    n_sq, _ = normalization([(0.0, 0.0)] * n)
    np.testing.assert_allclose(n_sq, float(math.factorial(n)), rtol=1e-12)


def test_normalization_equals_raw_norm():
    rng = np.random.default_rng(2)
    for n in (2, 4, 6):
        t = random_target(rng, n)
        fs = factorize_target(t)
        raw = apply_factors(fs.factors)
        assert abs(raw.norm_sq() - fs.normalization) < 1e-9 * fs.normalization


@pytest.mark.parametrize("n", [1, 8, 32, 48])
def test_apply_factors_matches_the_simplex_ladder(n):
    # The sector recurrence against N full-simplex factor applications,
    # with pure a† (theta = 0) and pure b† (theta = pi/2) factors mixed in.
    rng = np.random.default_rng(n)
    thetas = rng.uniform(0.0, math.pi / 2, n)
    thetas[::4] = 0.0
    thetas[2::4] = math.pi / 2
    angles = list(zip(thetas, rng.uniform(-math.pi, math.pi, n)))
    want = vacuum(n)
    for theta, phi in angles:
        want = apply_linear_factor(want, theta, phi)
    got = apply_factors(angles)
    assert got.cutoff == n
    assert np.abs(got.amps - want.amps).max() <= 1e-13 * np.abs(want.amps).max()


def test_state_of_target_matches_the_basis_state_sum():
    rng = np.random.default_rng(5)
    for n in (1, 4, 17):
        t = random_target(rng, n)
        want = zero_state(n)
        for k, c in enumerate(t.coeffs):
            want = want + basis_state(n, k, n - k) * c
        assert np.array_equal(state_of_target(t).amps, want.amps)


def test_reconstruct_roundtrip_simple_targets():
    for t in (noon_target(2), TargetSpec(2, [0, 0, 1])):
        fs = factorize_target(t)
        recon = reconstruct(fs)
        target_state = state_of_target(t)
        assert overlap_fidelity(recon, target_state) >= 1.0 - 1e-9
        # global-phase bookkeeping makes the match exact, not just up to phase
        np.testing.assert_allclose(recon.amps, target_state.amps, atol=1e-12)


def test_reconstruct_roundtrip_random_targets():
    rng = np.random.default_rng(42)
    for trial in range(50):
        n = 2 + trial % 7
        t = random_target(rng, n)
        recon = reconstruct(factorize_target(t))
        assert overlap_fidelity(recon, state_of_target(t)) >= 1.0 - 1e-9


def test_factor_set_invariants():
    fs = factorize_target(noon_target(4))
    assert fs.n_photons == 4
    assert fs.normalization > 0
    assert abs(abs(fs.global_phase) - 1.0) < 1e-12
    for theta, phi in fs.factors:
        assert 0.0 <= theta <= math.pi / 2
        assert -math.pi <= phi < math.pi


def _root_finder_angles(d):
    """Angles from ``np.roots`` and ``_polish_roots``, the route any polynomial
    with three or more nonzero coefficients takes; d_m must be nonzero."""
    d = np.asarray(d, dtype=complex)
    roots = _polish_roots(d, np.roots(d[::-1]))
    return sorted((math.atan(abs(z)),
                   _wrap_angle(cmath.phase(z)) if z != 0 else 0.0)
                  for z in map(complex, roots))


def test_polish_is_the_polyval_route_byte_for_byte():
    # p and p' in one stacked Horner loop give polyval's bits, for real,
    # complex and sparse coefficients from 1e-300 to 1e50 in scale.
    rng = np.random.default_rng(19)
    with np.errstate(all="ignore"):
        for n in [2, 3, 5, 8, 13, 21, 32, 64, 120, 200]:
            for scale in (1.0, 1e50, 1e-50, 1e-300):
                d = rng.standard_normal(n + 1) + 1j * rng.standard_normal(n + 1)
                for coeffs in (d, d.real + 0j, np.where(np.arange(n + 1) % 2,
                                                         0.0, d) + d[-1]):
                    coeffs = coeffs * scale
                    z = np.roots(coeffs[::-1])
                    assert (_polish_roots(coeffs, z).tobytes()
                            == reference_polish_roots(coeffs, z).tobytes()), n


@pytest.mark.parametrize("n", [2, 4, 17, 32, 64])
def test_noon_factor_angles_match_root_finder(n):
    assert_angle_multisets_close(
        noon_factor_angles(n),
        _root_finder_angles(monomial_coeffs(noon_target(n))),
        tol=1e-12,
    )


def test_two_term_closed_form_matches_root_finder():
    # d_lo z^lo + d_m z^m with |d_m / d_lo| from 1e-3 to 1e3, random phases
    rng = np.random.default_rng(14)
    for m in range(1, 65):
        for lo in (0, 1, 3):
            if lo >= m:
                continue
            d = np.zeros(m + 1, dtype=complex)
            d[lo] = np.exp(2j * math.pi * rng.uniform())
            d[m] = (10.0 ** rng.uniform(-3.0, 3.0)
                    * np.exp(2j * math.pi * rng.uniform()))
            angles = find_factor_angles(d)
            assert angles[:lo] == [(0.0, 0.0)] * lo
            assert_angle_multisets_close(angles, _root_finder_angles(d),
                                         tol=1e-12)


@pytest.mark.parametrize("n", range(1, 65))
def test_noon_target_factors_are_the_closed_form_bit_for_bit(n):
    angles = noon_factor_angles(n)
    assert find_factor_angles(monomial_coeffs(noon_target(n))) == angles
    assert angles == sorted(
        (math.pi / 4, _wrap_angle((2 * k + 1) * math.pi / n)) for k in range(n))


def test_two_term_closed_form_outside_the_float_range():
    # -d_0/d_64 overflows or underflows, but its 64th root is 2^(+-1070/64)
    tiny = math.ldexp(1.0, -1070)
    for d_0, d_m, root in ((1.0, tiny, 2.0 ** (1070 / 64)),
                           (tiny, 1.0, 2.0 ** (-1070 / 64))):
        d = np.zeros(65, dtype=complex)
        d[0], d[64] = d_0, d_m
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            angles = find_factor_angles(d)
        want = [(math.atan(root), phi) for _, phi in noon_factor_angles(64)]
        assert_angle_multisets_close(angles, want, tol=1e-13)


def test_noon4_phases():
    phis = sorted(phi for _, phi in noon_factor_angles(4))
    expected = sorted([3 * math.pi / 4, -3 * math.pi / 4,
                       -math.pi / 4, math.pi / 4])
    np.testing.assert_allclose(phis, expected)
    assert all(theta == math.pi / 4 for theta, _ in noon_factor_angles(4))


@pytest.mark.parametrize("n", range(2, 7))
def test_noon_angles_reconstruct_noon_state(n):
    n_sq, _ = normalization(noon_factor_angles(n))
    raw = apply_factors(noon_factor_angles(n))
    fid = overlap_fidelity(raw, noon_state(n))
    assert fid >= 1.0 - 1e-9
    assert abs(raw.norm_sq() - n_sq) < 1e-12 * n_sq


def test_angle_roundtrip_on_separated_factors():
    # reconstruct from known angles, then re-derive them from the state
    rng = np.random.default_rng(7)
    for _ in range(20):
        n = int(rng.integers(2, 6))
        while True:
            thetas = rng.uniform(0.15, 1.35, size=n)
            phis = rng.uniform(-math.pi, math.pi, size=n)
            roots = np.exp(1j * phis) * np.tan(thetas)
            gaps = [abs(a - b) for i, a in enumerate(roots)
                    for b in roots[:i]]
            if not gaps or min(gaps) > 0.3:
                break
        angles = list(zip(thetas, phis))
        n_sq, _ = normalization(angles)
        state = apply_factors(angles) / math.sqrt(n_sq)
        recovered = find_factor_angles(monomial_coeffs(target_of_state(state)))
        assert_angle_multisets_close(recovered, angles, tol=1e-7)


def test_reconstruct_is_permutation_invariant():
    rng = np.random.default_rng(13)
    t = random_target(rng, 5)
    fs = factorize_target(t)
    base = reconstruct(fs)
    perm = list(fs.factors)
    rng.shuffle(perm)
    shuffled = FactorSet(tuple(perm), fs.normalization, fs.global_phase)
    assert overlap_fidelity(reconstruct(shuffled), base) >= 1.0 - 1e-9


def test_target_of_state_roundtrip():
    t = noon_target(3)
    back = target_of_state(state_of_target(t))
    assert back.n_photons == 3
    np.testing.assert_allclose(back.coeffs, t.coeffs, atol=1e-12)


def test_target_of_state_rejects_non_eigenstates():
    from pathent.fock import basis_state, vacuum

    with pytest.raises(ValueError):
        target_of_state(vacuum(2))
    mixed = basis_state(2, 1, 0) + basis_state(2, 2, 0)
    with pytest.raises(ValueError):
        target_of_state(mixed)
