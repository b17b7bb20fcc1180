"""The packed codeword engine against the scalar counter oracle.

Lengths are chosen where the 2-bit lanes cross uint64 word boundaries:
r+s in {32, 64, 66} for codes (r and s are odd, so r+s is even), and
31, 33, 65 for the lane primitives on random vectors.
"""

import random
from collections import Counter
from itertools import islice

import numpy as np
from hypothesis import given, settings, strategies as st

from conftest import broadcast_table, code_engine, counter_words, shaped_code
from z4dc import code, gray

WIDTHS = (31, 32, 33, 64, 65, 66)
SHAPES = ((1, 31), (7, 25), (17, 15), (1, 63), (33, 31), (3, 63), (33, 33))
# block sizes that cut the radix-4 and radix-2 digits at uneven places
MAX_BLOCKS = (1, 2, 3, 6, 24, 100, 1 << 16)


def vectors(width):
    return st.lists(st.lists(st.integers(0, 3), min_size=width, max_size=width),
                    min_size=1, max_size=8)


@settings(max_examples=60)
@given(st.sampled_from(WIDTHS).flatmap(
    lambda n: st.tuples(st.just(n), vectors(n), vectors(n))))
def test_lane_primitives_match_symbolwise_arithmetic(case):
    n, us, vs = case
    m = min(len(us), len(vs))
    u, v = np.array(us[:m]), np.array(vs[:m])
    pu, pv = code.pack(us[:m], n), code.pack(vs[:m], n)
    assert pu.shape == (m, -(-n // 32))
    assert (code.unpack(pu, n) == u).all()
    assert (code.unpack(code.lane_add(pu, pv), n) == (u + v) % 4).all()
    for order in "CF":
        buf = np.empty_like(pu, order=order)
        weights = gray._lee_weights(np.asarray(pu, order=order), buf)
        assert weights.tolist() == [gray.lee_weight(w) for w in us[:m]]
        assert np.shares_memory(weights, buf)
    pairs = code.unpack(gray.gray_lanes(pu), n)
    assert [tuple(np.stack((p >> 1, p & 1), axis=1).ravel()) for p in pairs] \
        == [gray.gray_map(w) for w in us[:m]]


@settings(max_examples=40)
@given(st.randoms(use_true_random=False), st.sampled_from(SHAPES),
       st.sampled_from(MAX_BLOCKS))
def test_decoded_blocks_follow_the_counter_order(rnd, shape, max_block):
    c = shaped_code(rnd, *shape, max_bits=10)
    be = code_engine(c, max_block=max_block)
    # a reused buffer holding stale words must come back as a fresh block
    out = np.full((be.block_size, be.nwords), ~np.uint64(0), order="F")
    decoded = []
    for h in range(be.nblocks):
        block = be.block(h)
        assert block.shape == (be.block_size, -(-(c.r + c.s) // 32))
        assert be.block(h, out) is out and np.array_equal(out, block)
        decoded.extend(map(tuple, code.unpack(block, c.r + c.s).tolist()))
    assert decoded == list(counter_words(c))


def bases(width):
    """Up to ten (row, radix) pairs, radix 2 rows with odd entries
    included, as Howell rows with a 2-pivot can have."""
    return st.lists(st.tuples(st.lists(st.integers(0, 3), min_size=width,
                                       max_size=width),
                              st.sampled_from((2, 4))), max_size=10)


@settings(max_examples=60)
@given(st.sampled_from(WIDTHS).flatmap(lambda n: st.tuples(st.just(n), bases(n))),
       st.sampled_from(MAX_BLOCKS))
def test_table_built_in_place_equals_the_broadcast_table(case, max_block):
    n, basis = case
    rows, radices = [row for row, _ in basis], tuple(rad for _, rad in basis)
    be = code.BlockEnumerator(rows, radices, n, max_block=max_block)
    table = be.block(0)
    assert table.flags.f_contiguous
    assert np.array_equal(table, broadcast_table(rows, radices, n, max_block))


@settings(max_examples=25)
@given(st.randoms(use_true_random=False), st.sampled_from(SHAPES))
def test_gray_words_and_lee_histogram_match_the_oracle(rnd, shape):
    c = shaped_code(rnd, *shape, max_bits=10)
    words = list(counter_words(c))
    assert list(gray.gray_words(c)) == \
        ["".join(map(str, gray.gray_map(w))) for w in words]
    assert gray.lee_enumerator(c).counts == Counter(map(gray.lee_weight, words))


@settings(max_examples=12)
@given(st.randoms(use_true_random=False), st.sampled_from(SHAPES))
def test_sharded_histogram_equals_sequential(rnd, shape):
    # at least 2^18 words, so the default 2^16-word blocks number >= 4
    # and two jobs really split the range
    c = shaped_code(rnd, *shape, max_bits=19, min_bits=18)
    assert code_engine(c).nblocks >= 4
    assert gray.lee_enumerator(c, jobs=2) == gray.lee_enumerator(c, jobs=1)


def test_enumeration_windows_cross_block_boundaries():
    # 2^17 words span several blocks of at most 2^16 words, and 65536
    # is a block boundary whatever the block size
    c = shaped_code(random.Random(3), 1, 31, max_bits=17, min_bits=17)
    assert code_engine(c).nblocks >= 2
    oracle = list(islice(counter_words(c), 70000))
    for start, stop in ((0, 3), (65530, 65545), (65536, 65536), (65000, 70000)):
        words = [v.concat() for v in code.enumerate_codewords(c, start=start, stop=stop)]
        assert words == oracle[start:stop]
