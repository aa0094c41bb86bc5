import cmath
import functools
import math
import tracemalloc
import warnings
from fractions import Fraction

import numpy as np
import pytest

from pathent.factorize import (
    FactorSet,
    TargetSpec,
    _binomial_scales,
    _leja,
    _leja_order,
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
from helpers import (assert_angle_multisets_close, needs_long_double,
                     random_target, reference_abs_polynomial,
                     reference_leja_order, reference_monomial_coeffs,
                     reference_polish_roots)


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

    # c_k sqrt(C(4, k) / C(4, 2)): c / sqrt(k! (4 - k)!) times sqrt(4)
    d = monomial_coeffs(noon_target(4))
    expected = 1.0 / (math.sqrt(2.0) * math.sqrt(6.0))
    np.testing.assert_allclose(d[0], expected)
    np.testing.assert_allclose(d[4], expected)
    np.testing.assert_allclose(d[1:4], 0.0, atol=1e-16)


def test_monomial_coeffs_keep_their_bits_within_the_float_range():
    # Up to n = 1027 every scale sqrt(C(n, k) / C(n, n // 2)) is a normal
    # float: the plain product of c_k with it, signed zeros included.
    rng = np.random.default_rng(170)
    targets = [random_target(rng, n) for n in (1, 7, 64, 170, 1024, 1027)]
    targets.append(TargetSpec(3, [complex(-0.0, 0.5), complex(0.5, -0.0),
                                  0.0, -1.0]))
    for target in targets:
        want = reference_monomial_coeffs(target)
        assert monomial_coeffs(target).tobytes() == want.tobytes()


def test_monomial_coeffs_match_the_per_k_loop_bit_for_bit():
    # The scales cached per N against the loop that takes every ratio of
    # math.comb's integers on its own, at N = 1..400 and at the edge of
    # the normal range, N = 1027 and 1028, and past it.  Coefficients hold
    # exact and signed zeros; bytes are compared, so sign bits count.
    rng = np.random.default_rng(400)
    signed_zeros = 0
    for n in [*range(1, 401), 1027, 1028, 1100]:
        v = rng.standard_normal(n + 1) + 1j * rng.standard_normal(n + 1)
        v[rng.random(n + 1) < 0.2] = 0.0
        v.real[rng.random(n + 1) < 0.2] = -0.0
        v.imag[rng.random(n + 1) < 0.2] = -0.0
        target = TargetSpec(n, v)
        want = reference_monomial_coeffs(target)
        assert monomial_coeffs(target).tobytes() == want.tobytes(), n
        parts = want.view(float)
        signed_zeros += np.count_nonzero((parts == 0.0) & np.signbit(parts))
    assert signed_zeros > 0
    assert _binomial_scales.cache_info().maxsize is not None


@pytest.mark.parametrize("n", [171, 200, 300, 1027])
def test_monomial_coeffs_beyond_the_float_range(n):
    # k! (n - k)! leaves the float range from n = 171 on; the scales do not:
    # d_k^2 C(n, n // 2) = c_k^2 C(n, k) in exact rational arithmetic, to
    # a few ulps, with every d_k / c_k a normal float at most 1.
    target = TargetSpec(n, [1.0] * (n + 1))
    c = Fraction(target.coeffs[0].real)
    mid = math.comb(n, n // 2)
    for k, d in enumerate(monomial_coeffs(target)):
        assert d.imag == 0.0 and d.real > 0.0
        assert np.finfo(float).tiny <= d.real / float(c) <= 1.0
        ratio = Fraction(d.real) ** 2 * mid / (c ** 2 * math.comb(n, k))
        assert abs(float(ratio) - 1.0) < 1e-15


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
    # steps there lower |p| only sometimes, so the two polishes agree only
    # to within the split
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        angles = find_factor_angles([1, -2, 1])
    assert_angle_multisets_close(
        angles, _find_factor_angles_per_root([1, -2, 1]), tol=2e-8)
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


@pytest.mark.parametrize("d", [[1.0], [], [[1.0, 2.0], [3.0, 4.0]]])
def test_find_factor_angles_needs_two_coefficients(d):
    with pytest.raises(ValueError,
                       match="^need at least two monomial coefficients$"):
        find_factor_angles(d)


@pytest.mark.parametrize("d,k", [
    ([math.nan, 0.0, 1.0], 0),  # two-term branch: was NaN angles
    ([1.0, 0.0, math.inf], 2),  # two-term branch: was NaN phases
    ([1.0, math.nan, 1.0], 1),  # root finder: was the overflow error
    ([1.0, 2.0, 3.0, complex(0.0, -math.inf)], 3),
])
def test_find_factor_angles_refuses_a_non_finite_coefficient(d, k):
    with pytest.raises(ValueError) as info:
        find_factor_angles(d)
    assert str(info.value) == f"monomial coefficient d_{k} is not finite"


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_normalization_and_reconstruct_refuse_a_non_finite_angle(bad):
    # was "factor product's squared norm overflows floats" from
    # normalization, and NaN amplitudes from reconstruct
    for angles in ([(0.3, bad)], [(0.3, 0.5), (bad, 0.0)]):
        k = len(angles) - 1
        pair = f"({angles[k][0]}, {angles[k][1]})"
        with pytest.raises(ValueError) as info:
            normalization(angles)
        assert str(info.value) == f"angles[{k}] = {pair} is not finite"
        with pytest.raises(ValueError) as info:
            reconstruct(FactorSet(tuple(angles), 1.0))
        assert str(info.value) == f"factors[{k}] = {pair} is not finite"


@pytest.mark.parametrize("field,value,message", [
    ("normalization", math.nan, "normalization must be finite and positive, got nan"),
    ("normalization", math.inf, "normalization must be finite and positive, got inf"),
    ("normalization", 0.0, "normalization must be finite and positive, got 0.0"),
    ("normalization", -1.0, "normalization must be finite and positive, got -1.0"),
    ("global_phase", complex(math.inf, 0.0), "global_phase must be finite, got (inf+0j)"),
    ("global_phase", 0, "global_phase must have modulus 1, got 0j"),
    ("global_phase", 2, "global_phase must have modulus 1, got (2+0j)"),
])
def test_factor_set_refuses_a_bad_normalization_or_phase(field, value,
                                                         message):
    # reconstruct once gave NaN or inf amplitudes for each of these, and a
    # bare "math domain error" for the negative normalization
    fields = {"normalization": 1.0, "global_phase": 1.0, field: value}
    with pytest.raises(ValueError) as info:
        FactorSet(((0.1, 0.2),), **fields)
    assert str(info.value) == message


def test_factor_set_carries_a_normalization_past_the_float_range():
    # inf stands for an A past the float range only next to a finite log
    fs = FactorSet(((0.1, 0.2),), 4.0)
    assert fs.log10_normalization == math.log10(4.0)
    big = FactorSet(((0.1, 0.2),), math.inf, 1.0, 400.0)
    assert big.normalization == math.inf and big.log10_normalization == 400.0
    for log10 in (math.nan, math.inf):
        with pytest.raises(ValueError, match="^normalization must be finite"):
            FactorSet(((0.1, 0.2),), math.inf, 1.0, log10)


@pytest.mark.parametrize("n,rescaled", [(98, False), (112, True)])
def test_apply_factors_rescales_only_past_98_factors(n, rescaled):
    # a†^n |0> = sqrt(n!) |n, 0>: |x|^2 <= k! stays below 2^512 up to
    # k = 98, and the first check past it, at k = 112, rescales; the
    # amplitude times 2^e is sqrt(n!) all the same
    raw, e = apply_factors([(0.0, 0.0)] * n)
    amp = raw.amplitude(n, 0)
    assert (e > 0) == rescaled and amp.imag == 0.0
    log2 = math.log2(amp.real) + e
    assert abs(log2 - math.lgamma(n + 1) / (2 * math.log(2.0))) < 1e-13 * log2


def test_factor_set_takes_back_its_printed_phase():
    # factorize prints the phase to 17 digits; read back, its modulus is
    # within an ulp or two of 1, and the factor set rebuilds the target
    target = random_target(np.random.default_rng(17), 12)
    fs = factorize_target(target)
    g = complex(float(format(fs.global_phase.real, ".17g")),
                float(format(fs.global_phase.imag, ".17g")))
    printed = FactorSet(fs.factors, fs.normalization, g)
    assert np.abs(reconstruct(printed).amps
                  - state_of_target(target).amps).max() < 1e-13


@pytest.mark.parametrize("n,zeros", [(3, 1), (4, 2), (5, 4)])
def test_degree_deficiency_gives_infinite_roots(n, zeros):
    coeffs = [0.0] * (n + 1)
    for k in range(n + 1 - zeros):
        coeffs[k] = 1.0
    angles = find_factor_angles(monomial_coeffs(TargetSpec(n, coeffs)))
    assert len(angles) == n
    assert sum(1 for th, ph in angles if th == math.pi / 2) == zeros


def test_normalization_refuses_a_target_orthogonal_to_the_product():
    # a† |0> = |1, 0> against the target |0, 1>
    with pytest.raises(ValueError,
                       match="^factor product is orthogonal to the target$"):
        normalization([(0.0, 0.0)], TargetSpec(1, [1.0, 0.0]))


def test_normalization_names_a_squared_norm_past_the_float_range():
    # NOON's product has squared norm 2 N! / 2^N, 1e315 at N = 200
    with pytest.raises(ValueError, match="^factor product's squared norm "
                                         "overflows floats$"):
        normalization(noon_factor_angles(200))


def test_factor_product_norm_is_at_least_one():
    # ||prod_k f_k |0>||^2 is the permanent of the Gram matrix of the
    # factors' unit mode vectors (cos theta, -e^{i phi} sin theta), which
    # is positive semidefinite with unit diagonal, so by Marcus's
    # inequality at least 1: no finite angles annihilate the vacuum.
    rng = np.random.default_rng(33)
    for n in range(1, 40):
        angles = list(zip(rng.uniform(0.0, math.pi / 2, n),
                          rng.uniform(-math.pi, math.pi, n)))
        angles[:n // 3] = [angles[0]] * (n // 3)  # repeated factors too
        assert normalization(angles)[0] >= 1.0 - 1e-12


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
        raw, e = apply_factors(fs.factors)
        assert e == 0
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
    got, e = apply_factors(angles)
    assert got.cutoff == n and e == 0
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


@functools.lru_cache(maxsize=None)
def _polish_grid():
    """(d, z): real, complex and sparse coefficients of degree 2 to 200 and
    scales from 1e-300 to 1e50, and the random N = 200 target of seed 15,
    whose largest root has modulus 481, with the ``np.roots`` of each."""
    d = monomial_coeffs(random_target(np.random.default_rng(15), 200))
    grid = [(d, np.roots(d[::-1]))]
    rng = np.random.default_rng(19)
    for n in [2, 3, 5, 8, 13, 21, 32, 64, 120, 200]:
        for scale in (1.0, 1e50, 1e-50, 1e-300):
            d = rng.standard_normal(n + 1) + 1j * rng.standard_normal(n + 1)
            for coeffs in (d, d.real + 0j, np.where(np.arange(n + 1) % 2,
                                                     0.0, d) + d[-1]):
                coeffs = coeffs * scale
                grid.append((coeffs, np.roots(coeffs[::-1])))
    return grid


def test_polish_agrees_with_the_polyval_route():
    # The polyval route overflows past |z|^N ~ 1e308 (largest |root| 481 on
    # a random N = 200 target); the polish, run with every warning an error
    # and outside any np.errstate, must not, and must agree with the route
    # wherever that is finite.
    for d, z in _polish_grid():
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = _polish_roots(d, z)
        with np.errstate(all="ignore"):
            want = reference_polish_roots(d, z)
        finite = np.isfinite(want)
        assert finite.sum() >= z.size // 2
        assert (np.abs(got - want)[finite]
                <= 1e-12 * np.abs(want)[finite]).all(), d.size


@needs_long_double
def test_polish_never_takes_a_step_that_raises_p():
    # From the roots and from points 20% off them, where Newton steps often
    # overshoot: every step taken lowers |p|, or ends within the rounding
    # level 2 (N + 1) eps sum_k |d_k| |z|^k of a float64 evaluation, where
    # the polish cannot tell.  |p| is taken in long double, so the two
    # variables of the polish, z and 1/z, are checked the same way.
    rng = np.random.default_rng(20)
    taken = starts = 0
    for d, z in _polish_grid():
        off = z * (1.0 + 0.2 * (rng.standard_normal(z.size)
                                + 1j * rng.standard_normal(z.size)))
        start = np.concatenate([z, off])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            end = _polish_roots(d, start)
        moved = end != start
        taken, starts = taken + moved.sum(), starts + start.size
        before, _ = reference_abs_polynomial(d, start[moved])
        after, scale = reference_abs_polynomial(d, end[moved])
        level = 2 * d.size * np.finfo(float).eps * scale
        assert ((after <= before) | (after <= level)).all(), d.size
    assert taken > 0.7 * starts


@pytest.mark.parametrize("n", [200, 256])
def test_root_finder_warns_on_no_random_target(n):
    # At N = 200 and 256 random targets have roots of modulus in the
    # hundreds; no power of one may overflow (every warning is an error).
    rng = np.random.default_rng(n)
    for _ in range(20):
        d = monomial_coeffs(random_target(rng, n))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert len(find_factor_angles(d)) == n


def test_root_finder_round_trips_random_targets_to_1e_14():
    # 200 random targets at N = 4..64 (every one at most 3.1e-15 off)
    rng = np.random.default_rng(2024)
    for _ in range(200):
        target = random_target(rng, int(rng.integers(4, 65)))
        got = reconstruct(factorize_target(target)).amps
        assert np.abs(got - state_of_target(target).amps).max() <= 1e-14


def test_root_finder_memory_at_n_256():
    # The companion matrix, 1 MB at N = 256, is the peak: the polish's
    # power tables (0.27 MB) come after it is freed.  1.13 MB measured;
    # np.roots and a Horner polish peaked at 1.14 MB.
    d = monomial_coeffs(random_target(np.random.default_rng(256), 256))
    find_factor_angles(d)
    tracemalloc.start()
    try:
        find_factor_angles(d)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 1.7e6


@pytest.mark.parametrize("lo", [0, 1, 3])
def test_root_finder_is_the_np_roots_route_list_for_list(lo):
    # find_factor_angles builds np.roots' companion matrix from the ratios
    # its overflow check takes, and appends the lo roots at 0 itself: the
    # same roots bit for bit, so the same list as np.roots and the polish,
    # put in Leja order.
    # Dense and sparse middles (signed zeros in the companion row), and 0,
    # 1 or 4 vanishing top coefficients, the theta = pi/2 factors.
    rng = np.random.default_rng(40 + lo)
    for n in [*range(lo + 2, lo + 12), 16, 31, 32, 48, 63, 64]:
        for top in (0, 1, 4):
            m = n - top
            if m - lo < 2:
                continue
            d = np.zeros(n + 1, dtype=complex)
            d[lo:m + 1] = (rng.standard_normal(m - lo + 1)
                           + 1j * rng.standard_normal(m - lo + 1))
            for keep in (np.ones(n + 1, dtype=bool),
                         rng.uniform(size=n + 1) < 0.5):
                keep[[lo, m]] = True
                sparse = np.where(keep, d, 0.0)
                if np.count_nonzero(sparse) < 3:
                    continue
                want = (_leja(_root_finder_angles(sparse[:m + 1]))
                        + [(math.pi / 2, 0.0)] * top)
                assert find_factor_angles(sparse) == want, (n, top)


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
            # the order cached per (lo, m - lo) is the greedy one on these
            # roots, and the lo roots at 0 come last
            assert angles == _leja(sorted(angles))
            assert angles[m - lo:] == [(0.0, 0.0)] * lo
            assert_angle_multisets_close(angles, _root_finder_angles(d),
                                         tol=1e-12)


@pytest.mark.parametrize("n", range(1, 65))
def test_noon_target_factors_are_the_closed_form_bit_for_bit(n):
    angles = noon_factor_angles(n)
    assert find_factor_angles(monomial_coeffs(noon_target(n))) == angles
    assert angles == _leja(sorted(
        (math.pi / 4, _wrap_angle((2 * k + 1) * math.pi / n)) for k in range(n)))


@pytest.mark.parametrize("bits", range(8))
def test_leja_order_of_2_to_the_k_noon_roots_is_bit_reversal(bits):
    # The odd 2N-th roots of unity in sorted order are N points equally
    # spaced on the circle; for N = 2^k their Leja order from the first is
    # the bit-reversal (van der Corput) order of the sort positions.
    n = 2 ** bits
    got = noon_factor_angles(n)
    by_phi = sorted(got)
    reversal = [int(format(i, f"0{bits}b")[::-1] or "0", 2) for i in range(n)]
    assert got == [by_phi[i] for i in reversal]


def test_leja_order_is_the_reference_greedy():
    # Random clouds of 2 to 64 points, with repeated points and zeros, and
    # the factor roots of random targets, against the plain-loop greedy.
    rng = np.random.default_rng(31)
    for size in range(2, 65):
        z = rng.standard_normal(size) + 1j * rng.standard_normal(size)
        z *= 10.0 ** rng.uniform(-3.0, 3.0, size)
        z[rng.uniform(size=size) < 0.2] = 0.0
        copies = rng.integers(0, size, size // 4 + 1)
        z[copies[1:]] = z[copies[0]]
        assert _leja_order(z) == reference_leja_order(z), size
    for n in (3, 9, 32, 64):
        angles = find_factor_angles(monomial_coeffs(random_target(rng, n)))
        z = [math.tan(t) * cmath.exp(1j * p) for t, p in sorted(angles)]
        assert angles == [sorted(angles)[i] for i in reference_leja_order(z)]


def test_leja_order_of_repeated_points_takes_no_log_of_zero():
    # Every warning is an error here; the copies of a point rank by how
    # many of them are taken.
    z = np.array([1.0, 1.0, 1.0, -1.0, -1.0, 0.0, 0.0, 0.0])
    assert _leja_order(z) == [0, 3, 5, 1, 4, 6, 2, 7]
    assert _leja_order(np.zeros(4)) == [0, 1, 2, 3]


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
    raw, _ = apply_factors(noon_factor_angles(n))
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
        state = apply_factors(angles)[0] / math.sqrt(n_sq)
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
