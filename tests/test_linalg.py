import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from diffnet.linalg import crandn
from reference import crandn_two_draws


@st.composite
def window_view(draw):
    """A sampler-like buffer and a strided view of it: z[i, :, lo:hi] or z[i, :, k]."""
    runs, t, links, m = (draw(st.integers(1, 3)), draw(st.integers(1, 9)),
                         draw(st.integers(1, 6)), draw(st.integers(1, 3)))
    buf = np.full((runs, t, links, m), np.nan + 1j * np.nan)
    i = draw(st.integers(0, runs - 1))
    lo = draw(st.integers(0, links - 1))
    hi = draw(st.integers(lo + 1, links))
    if draw(st.booleans()):
        return buf, (i, slice(None), slice(lo, hi))
    return buf, (i, slice(None), lo)


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
    # two separate draws and a complex division give the same bits and state
    split = np.random.default_rng(seed)
    assert crandn_two_draws(split, view.shape).tobytes() == want.tobytes()
    assert split.bit_generator.state == fresh.bit_generator.state
    # nothing outside the view is written
    untouched = np.ones(buf.shape, dtype=bool)
    untouched[where] = False
    assert np.isnan(buf[untouched]).all()


def test_unit_power_and_circular():
    z = crandn(np.random.default_rng(0), (200_000,))
    assert abs(np.mean(np.abs(z) ** 2) - 1.0) < 0.01
    assert abs(np.mean(z * z)) < 0.01
