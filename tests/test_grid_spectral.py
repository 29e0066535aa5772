import math

import numpy as np
import pytest

from curvedirac import grid_spectral
from curvedirac.errors import ConfigurationError
from curvedirac.grid_spectral import (
    SpinorField,
    column_blocks,
    dense_diff_matrix,
    derivative_multiplier,
    forward_dft_axis,
    grid_axes,
    inverse_dft_axis,
    make_grid,
    spectral_apply,
    spectral_derivative,
)


def field_1d(values, grid):
    v = np.zeros((2, grid.N[0]), dtype=np.complex128)
    v[0] = values
    return SpinorField(v, grid)


# ----------------------------------------------------------------- grids


def test_make_grid_basic_example():
    g = make_grid(1, 5.0, 10)
    assert g.h == (1.0,)
    assert np.allclose(g.axes[0], np.arange(-5, 5))
    assert set(np.round(g.freqs[0] * 5 / np.pi).astype(int)) == set(range(-5, 5))


def test_make_grid_integer_wavenumbers_at_a_pi():
    g = make_grid(1, np.pi, 8)
    assert np.allclose(np.sort(g.freqs[0]), np.arange(-4, 4))


def test_grids_compare_and_hash_by_dimension_width_and_size():
    g = make_grid(1, 5.0, 8)
    assert g == make_grid(1, 5.0, 8) and hash(g) == hash(make_grid(1, 5.0, 8))
    assert g != make_grid(1, 5.0, 16) and g != make_grid(1, 4.0, 8)
    assert g != make_grid(2, 5.0, 8)
    grids = {g, make_grid(1, 5.0, 8), make_grid(1, 5.0, 16), make_grid(2, (5.0, 3.0), (8, 6))}
    assert len(grids) == 3


def test_make_grid_odd_N_symmetric_wavenumbers():
    g = make_grid(1, 5.0, 9)
    p = np.sort(np.round(g.freqs[0] * 5 / np.pi).astype(int))
    assert list(p) == list(range(-4, 5))
    # every +p has a matched -p
    assert np.allclose(np.sort(g.freqs[0]) + np.sort(g.freqs[0])[::-1], 0.0)


def test_make_grid_equidistant_invariant():
    g = make_grid(2, (3.0, 7.0), (12, 9))
    for i in range(2):
        d = np.diff(g.axes[i])
        assert np.allclose(d, 2 * g.a[i] / g.N[i])


def test_make_grid_rejects_bad_input():
    with pytest.raises(ConfigurationError):
        make_grid(1, 5.0, 3)
    with pytest.raises(ConfigurationError):
        make_grid(1, -1.0, 16)
    with pytest.raises(ConfigurationError):
        make_grid(3, 1.0, 8)
    for d, N in ((1, 100.5), (1.5, 16)):   # int() would take 100 and 1
        with pytest.raises(ConfigurationError) as err:
            make_grid(d, 5.0, N)
        assert err.value.field == ("N" if d == 1 else "d")


@pytest.mark.parametrize("a", [math.inf, math.nan], ids=["inf", "nan"])
def test_grid_axes_rejects_a_non_finite_half_width(a):
    # an infinite box used to pass here and stop only at step 0
    with pytest.raises(ConfigurationError, match="half-width"):
        grid_axes(1, a, 64)


# ----------------------------------------------------------------- DFTs


def test_forward_dft_constant_field():
    g = make_grid(1, 2.0, 8)
    c = 0.7 - 0.2j
    f = field_1d(np.full(8, c), g)
    fh = forward_dft_axis(f, 0)
    assert abs(fh.values[0, 0] - 8 * c) < 1e-13
    assert np.max(np.abs(fh.values[0, 1:])) < 1e-13


def test_forward_dft_single_mode():
    g = make_grid(1, 5.0, 16)
    xi1 = np.pi / 5.0
    f = field_1d(np.exp(1j * xi1 * (g.axes[0] + 5.0)), g)
    fh = forward_dft_axis(f, 0)
    assert abs(fh.values[0, 1] - 16) < 1e-12
    mask = np.ones(16, bool)
    mask[1] = False
    assert np.max(np.abs(fh.values[0, mask])) < 1e-11


def test_dft_round_trip_and_inverse_normalization(rng):
    g = make_grid(1, 3.0, 64)
    f = field_1d(rng.standard_normal(64) + 1j * rng.standard_normal(64), g)
    back = inverse_dft_axis(forward_dft_axis(f, 0), 0)
    assert np.max(np.abs(back.values - f.values)) < 1e-13 * np.max(np.abs(f.values))
    # single p=0 mode of value N -> constant field 1
    vh = np.zeros((2, 64), dtype=np.complex128)
    vh[0, 0] = 64.0
    one = inverse_dft_axis(SpinorField(vh, g), 0)
    assert np.max(np.abs(one.values[0] - 1.0)) < 1e-13


def test_inverse_dft_linearity(rng):
    g = make_grid(1, 3.0, 32)
    fh = SpinorField(rng.standard_normal((2, 32)) + 1j * rng.standard_normal((2, 32)), g)
    gh = SpinorField(rng.standard_normal((2, 32)) + 1j * rng.standard_normal((2, 32)), g)
    al, be = 1.3 - 0.4j, -0.7 + 2.1j
    lhs = inverse_dft_axis(SpinorField(al * fh.values + be * gh.values, g), 0)
    rhs = al * inverse_dft_axis(fh, 0).values + be * inverse_dft_axis(gh, 0).values
    assert np.max(np.abs(lhs.values - rhs)) < 1e-14


def test_dft_axis_out_of_range():
    g = make_grid(1, 1.0, 8)
    f = field_1d(np.ones(8), g)
    with pytest.raises(ConfigurationError):
        forward_dft_axis(f, 1)
    with pytest.raises(ConfigurationError):
        spectral_derivative(f, 2, 1)


def test_parseval(rng):
    g = make_grid(2, (2.0, 3.0), (16, 12))
    v = rng.standard_normal((2, 16, 12)) + 1j * rng.standard_normal((2, 16, 12))
    f = SpinorField(v, g)
    fh = forward_dft_axis(forward_dft_axis(f, 0), 1)
    real_sq = np.sum(np.abs(f.values) ** 2)
    spec_sq = np.sum(np.abs(fh.values) ** 2) / (16 * 12)
    assert abs(real_sq - spec_sq) < 1e-12 * real_sq


# ----------------------------------------------------------------- derivatives


def test_derivative_of_constant_is_zero():
    g = make_grid(1, 5.0, 32)
    f = field_1d(np.full(32, 2.5), g)
    for order in (1, 2):
        df = spectral_derivative(f, 0, order)
        assert np.max(np.abs(df.values)) < 1e-13


def test_derivative_exact_on_resolved_modes():
    g = make_grid(1, np.pi, 64)
    x = g.axes[0]
    for p in (-31, -7, 1, 5, 31):
        f = field_1d(np.exp(1j * p * x), g)
        df = spectral_derivative(f, 0, 1)
        err = np.max(np.abs(df.values[0] - 1j * p * np.exp(1j * p * x)))
        assert err < 1e-12


def test_second_derivative_of_sin():
    g = make_grid(1, np.pi, 64)
    x = g.axes[0]
    f = field_1d(np.sin(x), g)
    d2 = spectral_derivative(f, 0, 2)
    assert np.max(np.abs(d2.values[0] + np.sin(x))) < 1e-12


def test_derivative_linearity(rng):
    g = make_grid(1, 2.0, 48)
    u = field_1d(rng.standard_normal(48) + 1j * rng.standard_normal(48), g)
    v = field_1d(rng.standard_normal(48) + 1j * rng.standard_normal(48), g)
    al, be = 0.3 + 1j, -2.0
    lhs = spectral_derivative(field_1d(al * u.values[0] + be * v.values[0], g), 0, 1)
    rhs = al * spectral_derivative(u, 0, 1).values + be * spectral_derivative(v, 0, 1).values
    assert np.max(np.abs(lhs.values - rhs)) < 1e-12


def test_nyquist_mode_zeroed_for_first_derivative():
    # even N: the lone p = -N/2 mode has no partner and must map to zero
    g = make_grid(1, np.pi, 16)
    x = g.axes[0]
    f = field_1d(np.cos(8 * x), g)  # pure Nyquist content
    df = spectral_derivative(f, 0, 1)
    assert np.max(np.abs(df.values)) < 1e-12
    # but it is kept for the second derivative
    d2 = spectral_derivative(f, 0, 2)
    assert np.max(np.abs(d2.values[0] + 64 * np.cos(8 * x))) < 1e-10


def test_derivative_2d_axes(rng):
    g = make_grid(2, (np.pi, np.pi), (16, 24))
    X, Y = g.meshes()
    v = np.zeros((2, 16, 24), dtype=np.complex128)
    v[0] = np.exp(2j * X) * np.exp(-3j * Y)
    f = SpinorField(v, g)
    dx = spectral_derivative(f, 0, 1)
    dy = spectral_derivative(f, 1, 1)
    assert np.max(np.abs(dx.values[0] - 2j * v[0])) < 1e-12
    assert np.max(np.abs(dy.values[0] + 3j * v[0])) < 1e-12


# ----------------------------------------------------------------- column blocks

# 96 rows: blocks of SLAB // 96 = 85 columns, so 200 columns end in a ragged block of 30
RAGGED = (96, 200)


def complex_field(rng, shape):
    return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)


def test_column_blocks_leave_a_ragged_last_block():
    blocks = column_blocks(RAGGED, 2)    # S = 2: two spectrum planes, two lent
    width = blocks.shape[1]
    assert blocks.shape == (4, width, RAGGED[0]) and RAGGED[1] % width != 0
    assert column_blocks((64,), 2) is None


@pytest.mark.parametrize("S", [2, 4])
@pytest.mark.parametrize("axis", [0, 1])
def test_spectral_apply_equals_a_whole_array_transform(rng, S, axis):
    # an action with a symbol along the transform axis and one of the two
    # lent temporaries; the blocked axis-0 path gives the whole-array
    # transform's bits
    g = make_grid(2, (3.0, 5.0), RAGGED)
    values = complex_field(rng, (S,) + g.shape)
    sym = complex_field(rng, g.N[axis])

    def act(spec, tmp):
        assert spec.shape[-1] == g.N[axis] and tmp.shape == (2,) + spec.shape[1:]
        np.multiply(spec[0], sym, out=tmp[0])
        spec[1] += tmp[0]
        spec *= sym

    ax = 1 + axis
    spec = np.moveaxis(np.fft.fft(values, axis=ax), ax, -1)
    act(spec, np.empty((2,) + spec.shape[1:], dtype=np.complex128))
    ref = np.fft.ifft(np.moveaxis(spec, -1, ax), axis=ax)
    kept = values.copy()
    assert np.array_equal(spectral_apply(values, axis, act), ref)
    assert np.array_equal(values, kept)
    # in place, through caller-owned blocks
    out = spectral_apply(values, axis, act, out=values, blocks=column_blocks(g.shape, S))
    assert out is values and np.array_equal(values, ref)


@pytest.mark.parametrize("S", [2, 4])
@pytest.mark.parametrize("order", [1, 2])
def test_derivative_values_along_axis_0_equals_a_whole_array_transform(rng, S, order):
    g = make_grid(2, (3.0, 5.0), RAGGED)
    values = complex_field(rng, (S,) + g.shape)
    mult = derivative_multiplier(g, 0, order)
    ref = np.fft.ifft(np.fft.fft(values, axis=1) * mult[:, None], axis=1)
    assert np.array_equal(spectral_derivative(SpinorField(values, g), 0, order).values, ref)
    assert np.array_equal(spectral_apply(values, 0, multiply_act(mult), out=values), ref)


# ----------------------------------------------------------------- awkward sizes

# sizes whose largest prime factor p has p^2 > N: the last axis is split into
# an R-point DFT product around one np.fft call of length p
SPLIT = {1203: (3, 401), 2018: (2, 1009), 18027: (9, 2003)}
# powers of 2, 5-smooth, a prime (R = 1) and 3 * 59 * 113 (p = 113 < R = 177)
UNSPLIT = (512, 1000, 2003, 20001)


@pytest.mark.parametrize("N", list(SPLIT) + list(UNSPLIT) + [900, 2000, 18432])
def test_fft_split_rule_depends_on_the_largest_prime_factor(N):
    split = grid_spectral._fft_split(N)
    assert (None if split is None else split[:2]) == SPLIT.get(N)
    if split is not None:
        R, p, dft, idft, tw, twc = split
        assert R * p == N and dft.shape == (R, R) and tw.shape == (R, p)
        assert np.allclose(idft @ dft, np.eye(R), atol=1e-14)
        assert np.array_equal(twc, tw.conj())


def split_shapes(N):
    """The one axis of a 1-D grid and the last axis of a 2-D one."""
    return [(N,), (8, N)]


def multiply_act(mult):
    """The action of a derivative multiplier, as `spectral_derivative` applies it."""
    return lambda spec, _: np.multiply(spec, mult, out=spec)


def symbol_act(sym):
    """An action with a symbol over the transform axis and one temporary."""
    def act(spec, tmp):
        np.multiply(spec[0], sym, out=tmp[0])
        spec[1] += tmp[0]
        spec *= sym
    return act


def numpy_apply(values, act):
    """F^-1 act F along the last axis through np.fft, without the split."""
    spec = np.fft.fft(values, axis=-1)
    lines = spec if spec.ndim == 3 else spec[:, None]
    act(lines, np.empty((2,) + lines.shape[1:], dtype=np.complex128))
    return np.fft.ifft(spec, axis=-1)


def rel_err(got, ref):
    return np.linalg.norm(got - ref) / np.linalg.norm(ref)


@pytest.mark.parametrize("shape", [s for N in SPLIT for s in split_shapes(N)], ids=str)
def test_split_sizes_match_numpy_fft(rng, shape):
    g = make_grid(len(shape), 5.0, shape)
    values = complex_field(rng, (2,) + shape)
    act = symbol_act(complex_field(rng, shape[-1]))
    ref = numpy_apply(values, act)
    kept = values.copy()
    assert rel_err(spectral_apply(values, g.d - 1, act), ref) < 1e-13
    assert np.array_equal(values, kept)
    mult = derivative_multiplier(g, g.d - 1, 1)
    dref = np.fft.ifft(np.fft.fft(values, axis=-1) * mult, axis=-1)
    assert rel_err(spectral_derivative(SpinorField(values, g), g.d - 1).values, dref) < 1e-13
    f = SpinorField(values, g)
    assert rel_err(forward_dft_axis(f, g.d - 1).values, np.fft.fft(values, axis=-1)) < 1e-13
    assert rel_err(inverse_dft_axis(f, g.d - 1).values, np.fft.ifft(values, axis=-1)) < 1e-13
    # in place
    out = spectral_apply(values, g.d - 1, multiply_act(mult), out=values)
    assert out is values and rel_err(values, dref) < 1e-13
    values[...] = kept
    out = spectral_apply(values, g.d - 1, act, out=values)
    assert out is values and rel_err(values, ref) < 1e-13


@pytest.mark.parametrize("shape", [s for N in UNSPLIT for s in split_shapes(N)], ids=str)
def test_unsplit_sizes_keep_numpy_fft_bits(rng, shape):
    g = make_grid(len(shape), 5.0, shape)
    values = complex_field(rng, (2,) + shape)
    act = symbol_act(complex_field(rng, shape[-1]))
    ref = numpy_apply(values, act)
    assert np.array_equal(spectral_apply(values, g.d - 1, act), ref)
    f = SpinorField(values, g)
    assert np.array_equal(forward_dft_axis(f, g.d - 1).values, np.fft.fft(values, axis=-1))
    assert np.array_equal(inverse_dft_axis(f, g.d - 1).values, np.fft.ifft(values, axis=-1))
    assert np.array_equal(spectral_apply(values, g.d - 1, act, out=values), ref)


def test_axis_0_of_a_2d_grid_keeps_numpy_fft_at_a_split_size(rng):
    g = make_grid(2, 5.0, (1203, 8))
    f = SpinorField(complex_field(rng, (2,) + g.shape), g)
    assert np.array_equal(forward_dft_axis(f, 0).values, np.fft.fft(f.values, axis=1))
    assert np.array_equal(inverse_dft_axis(f, 0).values, np.fft.ifft(f.values, axis=1))


def test_split_transform_is_one_numpy_fft_call_each_way(rng, monkeypatch):
    # the tables come from np.exp, and the R-point part is a matrix product,
    # so a pair counts as one fft and one ifft, first call included
    calls = []

    def counted(name, fn):
        def call(*args, **kwargs):
            calls.append(name)
            return fn(*args, **kwargs)
        return call

    for name in ("fft", "ifft"):
        monkeypatch.setattr(np.fft, name, counted(name, getattr(np.fft, name)))
    grid_spectral._fft_split.cache_clear()
    values = complex_field(rng, (2, 18027))
    spectral_apply(values, 0, lambda spec, _: None, out=values)
    assert calls == ["fft", "ifft"]


def test_split_writes_through_a_strided_out(rng):
    # out may be a non-contiguous view: the split writes through it
    values = complex_field(rng, (2, 1203))
    act = symbol_act(complex_field(rng, 1203))
    big = np.zeros((2, 2 * 1203), dtype=np.complex128)
    out = big[:, ::2]
    assert spectral_apply(values, 0, act, out=out) is out
    assert rel_err(out, numpy_apply(values, act)) < 1e-13
    assert not big[:, 1::2].any()


# ----------------------------------------------------------------- dense matrix


def test_dense_diff_matrix_annihilates_constants():
    A = dense_diff_matrix(16, 5.0)
    assert np.max(np.abs(A @ np.ones(16))) < 1e-13


@pytest.mark.parametrize("N", [16, 17, 32])
def test_dense_diff_matrix_anti_hermitian(N):
    A = dense_diff_matrix(N, 5.0)
    assert np.max(np.abs(A + A.conj().T)) < 1e-13


def test_dense_diff_matrix_matches_fft_path(rng):
    N = 32
    g = make_grid(1, 5.0, N)
    A = dense_diff_matrix(N, 5.0)
    v = rng.standard_normal(N) + 1j * rng.standard_normal(N)
    f = field_1d(v, g)
    df = spectral_derivative(f, 0, 1)
    assert np.max(np.abs(A @ v - df.values[0])) < 1e-12
