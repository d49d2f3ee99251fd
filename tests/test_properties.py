"""Property tests: stacked kernels equal their one-matrix calls bitwise, the
partial transpose is an involution, and the Choi encoding round-trips."""

import numpy as np
from hypothesis import given
from hypothesis import strategies as st

from posmap.choi import MatrixMap
from posmap.linalg import (
    _partial_transpose,
    alternate_ppt_projections,
    hermitian_part,
    partial_transpose,
    project_psd,
    random_complex,
    rng_stream,
)

dims = st.integers(1, 3)
seeds = st.integers(0, 2**32 - 1)


def random_stack(seed, size, d):
    return random_complex(rng_stream(seed), (size, d, d))


def assert_slicewise(kernel, stack):
    out = kernel(stack)
    assert out.shape == stack.shape
    for r in range(stack.shape[0]):
        assert np.array_equal(out[r], kernel(stack[r]))


@given(d1=dims, d2=dims, size=st.integers(1, 5), seed=seeds)
def test_stacked_kernels_equal_their_one_matrix_calls(d1, d2, size, seed):
    stack = random_stack(seed, size, d1 * d2)
    assert_slicewise(hermitian_part, stack)
    assert_slicewise(project_psd, stack)
    for side in ("first", "second"):
        assert_slicewise(lambda a, side=side: _partial_transpose(a, d1, d2, side), stack)
        assert_slicewise(lambda a, side=side: alternate_ppt_projections(a, d1, d2, side, 2), stack)


@given(d1=dims, d2=dims, seed=seeds, side=st.sampled_from(["first", "second"]))
def test_partial_transpose_is_an_involution(d1, d2, seed, side):
    a = random_stack(seed, 1, d1 * d2)[0]
    once = partial_transpose(a, d1, d2, side)
    assert np.array_equal(partial_transpose(once, d1, d2, side), a)
    # transposing both factors is the full transpose
    other = "second" if side == "first" else "first"
    assert np.array_equal(partial_transpose(once, d1, d2, other), a.T)


@given(m=dims, n=dims, seed=seeds)
def test_choi_round_trip(m, n, seed):
    h = random_stack(seed, 1, m * n)[0]
    phi = MatrixMap.from_choi(h, m, n)
    assert np.array_equal(phi.choi(), h)
    assert np.array_equal(MatrixMap.from_choi(phi.choi(), m, n).unit_images, phi.unit_images)
