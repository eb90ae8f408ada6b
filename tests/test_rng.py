import tracemalloc

import numpy as np
import pytest

from fadeup import rng as rng_module
from fadeup.rng import ShuffledLcg

MULT, INC, MASK = 6364136223846793005, 1442695040888963407, 2**64 - 1
SEEDS = [0, 1, 2**63, 2**64 - 1]
SIZES = [0, 1, 31, 32, 33, 14400]


class Reference:
    """The README's three lines, one Python-int step at a time."""

    def __init__(self, seed):
        self.state = seed
        for _ in range(8):
            self.step()
        self.table = [self.step() for _ in range(32)]
        self.y = self.step()

    def step(self):
        self.state = (MULT * self.state + INC) & MASK
        return self.state

    def draw(self):
        i = self.y >> 59
        self.y = self.table[i]
        self.table[i] = self.step()
        return self.y

    def uniform(self, size, dtype):
        return np.array([self.draw() / 2**64 for _ in range(size)]).astype(dtype)


class TestStream:
    def test_first_draws_of_seed_zero(self):
        # pinned literals: the reference and the generator cannot share a bug
        expected = [0xA220229EC164FFE1, 0x13621127EC8ED10B, 0x0B623237A886F1BA, 0x7252E9376E45641A]
        ref = Reference(0)
        assert [ref.draw() for _ in range(4)] == expected
        g = ShuffledLcg(0)
        assert [g.next_u64() for _ in range(4)] == expected

    @pytest.mark.parametrize("seed", SEEDS)
    @pytest.mark.parametrize("size", SIZES)
    def test_next_u64_matches_reference(self, seed, size):
        g, ref = ShuffledLcg(seed), Reference(seed)
        draws = [g.next_u64() for _ in range(min(size, 100))]
        assert draws == [ref.draw() for _ in range(len(draws))]
        assert all(type(v) is int for v in draws)

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("seed", SEEDS)
    @pytest.mark.parametrize("size", SIZES)
    def test_uniform_array_matches_reference(self, seed, size, dtype):
        g, ref = ShuffledLcg(seed), Reference(seed)
        u = g.uniform_array((size,), dtype=dtype)
        assert u.dtype == dtype and u.shape == (size,)
        assert u.tobytes() == ref.uniform(size, dtype).tobytes()
        # the table, y and state carry on exactly where the reference is
        assert [g.next_u64() for _ in range(40)] == [ref.draw() for _ in range(40)]

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_uniform_array_across_draw_blocks(self, dtype):
        """``uniform_array`` draws in blocks; the block seams leave the stream
        as it is."""
        size = 2 * rng_module._BLOCK + 1
        g, ref = ShuffledLcg(7), Reference(7)
        assert g.uniform_array((size,), dtype=dtype).tobytes() == ref.uniform(size, dtype).tobytes()
        assert [g.next_u64() for _ in range(40)] == [ref.draw() for _ in range(40)]

    def test_uniform_array_holds_no_per_draw_lists(self):
        """57,600 draws, a carafe content encoder's weights at d=64, K=5, peak
        at well under the float64 result plus one block's Python lists."""
        g = ShuffledLcg(0)
        tracemalloc.start()
        try:
            u = g.uniform_array((100, 64, 3, 3))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 2 * u.nbytes, f"peak {peak / u.nbytes:.2f}x the result"

    @pytest.mark.parametrize("seed", SEEDS)
    def test_mixed_sequence_stays_on_stream(self, seed):
        g, ref = ShuffledLcg(seed), Reference(seed)
        assert g.next_u64() == ref.draw()
        u = g.uniform_array((3, 11), dtype=np.float32)
        assert u.shape == (3, 11)
        assert u.tobytes() == ref.uniform(33, np.float32).tobytes()
        assert g.next_u64() == ref.draw()
        assert g.uniform_array((), np.float64).tobytes() == ref.uniform(1, np.float64).tobytes()
        assert [g.next_u64() for _ in range(5)] == [ref.draw() for _ in range(5)]


class TestUniformConversion:
    # at and above 2^63 one f64 step is 2^11, so low bits 0x400 are a tie
    VALUES = [
        0,
        1,
        2**53 + 1,
        2**63 - 1,
        2**63,
        2**63 | 0x400,
        2**63 | 0xC00,
        2**63 | 0x401,
        2**63 | 0x3FF,
        (2**64 - 2**12) | 0x400,
        2**64 - 2**10,
        2**64 - 1,
    ]

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_matches_python_division(self, monkeypatch, dtype):
        values = self.VALUES
        draws = np.array(values, dtype=np.uint64)
        monkeypatch.setattr(ShuffledLcg, "_draw", lambda self, count: draws[:count])
        u = ShuffledLcg(0).uniform_array((len(values),), dtype=dtype)
        assert u.tobytes() == np.array([v / 2**64 for v in values]).astype(dtype).tobytes()


    def test_draws_reach_one(self, monkeypatch):
        # y / 2^64 rounds to the nearest float64, so the top 2^10 draws give 1.0
        draws = np.array([2**64 - 2**10, 2**64 - 2**10 - 1], dtype=np.uint64)
        monkeypatch.setattr(ShuffledLcg, "_draw", lambda self, count: draws[:count])
        top, below = ShuffledLcg(0).uniform_array((2,))
        assert top == 1.0
        assert below < 1.0


class TestSeedRange:
    @pytest.mark.parametrize("seed", [-1, 2**64, 2**70])
    def test_out_of_range_raises(self, seed):
        with pytest.raises(ValueError, match=r"seed must be in \[0, 2\^64\)"):
            ShuffledLcg(seed)

    @pytest.mark.parametrize("seed", [0, 2**64 - 1])
    def test_bounds_accepted(self, seed):
        assert ShuffledLcg(seed).next_u64() == Reference(seed).draw()

    def test_float_seed_rejected(self):
        with pytest.raises(TypeError):
            ShuffledLcg(1.0)
