"""Property tests: stacked kernels equal their one-matrix calls bitwise, the
partial transpose is an involution, the Choi encoding round-trips, and a
counter-built stream equals the jumped one."""

import numpy as np
import pytest
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
    random_psd,
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


@given(seed=st.integers(0, 2**63 - 1), stream=st.integers(0, 2**63 - 1))
def test_rng_stream_equals_the_jumped_stream(seed, stream):
    counted = rng_stream(seed, stream)
    jumped = np.random.Generator(np.random.Philox(key=seed).jumped(stream))
    assert np.array_equal(counted.standard_normal(9), jumped.standard_normal(9))
    assert np.array_equal(counted.random(5), jumped.random(5))
    assert np.array_equal(counted.integers(0, 7, 6), jumped.integers(0, 7, 6))
    assert np.array_equal(counted.integers(0, 2**62, 3), jumped.integers(0, 2**62, 3))


def test_rng_stream_carries_past_two_to_the_64_and_rejects_out_of_range_streams():
    for stream in (2**64 - 1, 2**64, 2**64 + 3, 2**127):
        counter = rng_stream(5, stream).bit_generator.state["state"]["counter"]
        assert [int(c) for c in counter] == [0, 0, stream % 2**64, stream >> 64]
        jumped = np.random.Generator(np.random.Philox(key=5).jumped(stream))
        assert np.array_equal(rng_stream(5, stream).standard_normal(4), jumped.standard_normal(4))
    for stream in (-1, 2**128):
        with pytest.raises(ValueError):
            rng_stream(5, stream)


@given(dim=st.integers(1, 6), rank=st.integers(1, 6), seed=seeds)
def test_random_psd_is_the_gram_matrix_of_random_complex(dim, rank, seed):
    g = random_complex(rng_stream(seed), (dim, rank))
    assert np.array_equal(random_psd(rng_stream(seed), dim, rank), g @ g.conj().T)
