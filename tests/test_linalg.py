import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from diffnet.linalg import crandn
from reference import crandn_pairs


@st.composite
def window_view(draw):
    """A sampler-like buffer and a contiguous view of it: a run's first t iterations,
    z[i, :t], or one iteration, z[i, j]."""
    runs, t, links, m = (draw(st.integers(1, 3)), draw(st.integers(1, 9)),
                         draw(st.integers(1, 6)), draw(st.integers(1, 3)))
    buf = np.full((runs, t, links, m), np.nan + 1j * np.nan)
    i = draw(st.integers(0, runs - 1))
    j = draw(st.integers(1, t))
    if draw(st.booleans()):
        return buf, (i, slice(0, j))
    return buf, (i, j - 1)


@settings(max_examples=60, deadline=None)
@given(window_view(), st.integers(0, 2 ** 32 - 1))
def test_filling_a_strided_view_draws_the_same_bits(case, seed):
    buf, where = case
    view = buf[where]
    filled = np.random.default_rng(seed)
    assert crandn(filled, out=view) is view
    fresh = np.random.default_rng(seed)
    want = crandn(fresh, view.shape)
    assert view.tobytes() == want.tobytes()
    assert filled.bit_generator.state == fresh.bit_generator.state
    # one real draw of each entry's [re, im] pair and a complex division give the same bits
    pairs = np.random.default_rng(seed)
    assert crandn_pairs(pairs, view.shape).tobytes() == want.tobytes()
    assert pairs.bit_generator.state == fresh.bit_generator.state
    # nothing outside the view is written
    untouched = np.ones(buf.shape, dtype=bool)
    untouched[where] = False
    assert np.isnan(buf[untouched]).all()


@settings(max_examples=40, deadline=None)
@given(st.lists(st.integers(0, 7), min_size=2, max_size=4), st.integers(1, 3),
       st.integers(0, 2 ** 32 - 1))
def test_draws_in_a_row_equal_one_draw_of_their_concatenation(lengths, m, seed):
    """The window length is not part of the realization: any split of a stream's
    draws along the leading axis gives the same bits and leaves the same state."""
    split = np.random.default_rng(seed)
    parts = [crandn(split, (t, m)) for t in lengths]
    whole = np.random.default_rng(seed)
    want = crandn(whole, (sum(lengths), m))
    assert np.concatenate(parts).tobytes() == want.tobytes()
    assert split.bit_generator.state == whole.bit_generator.state


@pytest.mark.parametrize("where", [(0, slice(None), slice(1, 3)), (0, slice(None), 1),
                                   (slice(None), 0)])
def test_a_non_contiguous_out_is_refused(where):
    buf = np.full((2, 4, 3, 2), np.nan + 1j * np.nan)
    gen = np.random.default_rng(0)
    state = gen.bit_generator.state
    with pytest.raises(ValueError, match="contiguous"):
        crandn(gen, out=buf[where])
    assert np.isnan(buf).all()
    assert gen.bit_generator.state == state


def test_unit_power_and_circular():
    z = crandn(np.random.default_rng(0), (200_000,))
    assert abs(np.mean(np.abs(z) ** 2) - 1.0) < 0.01
    assert abs(np.mean(z * z)) < 0.01
