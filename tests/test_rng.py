import pytest

from agreetree._rng import SplitMix64

from oracles import PerDrawSplitMix64


def model_bounds(n):
    """The draw bounds of each random model on n leaves, in draw order."""
    return {
        "uniform unrooted": range(3, 2 * n - 4, 2),
        "uniform rooted": range(1, 2 * n - 2, 2),
        "yule": range(2, n),
    }


class TestRandranges:
    @pytest.mark.parametrize("n", [1, 2, 3, 4, 17, 1000])
    def test_model_bounds_equal_per_draw(self, n):
        """Same draws and final state as one ``randrange`` per bound."""
        for name, bounds in model_bounds(n).items():
            for seed in (0, 1, 2**64 - 1):
                rng, ref = SplitMix64(seed), PerDrawSplitMix64(seed)
                assert rng.randranges(bounds) == [ref.randrange(k) for k in bounds], (name, seed)
                assert rng.state == ref.state, (name, seed)

    def test_half_rejected_bound(self):
        """A bound of 2^63 + 1 leaves one 2^64 block, so about half of all
        outputs are drawn again."""

        class Counting(PerDrawSplitMix64):
            outputs = 0

            def next_u64(self):
                self.outputs += 1
                return super().next_u64()

        bound = 2**63 + 1
        rng, ref = SplitMix64(5), Counting(5)
        draws = [ref.randrange(bound) for _ in range(2000)]
        assert rng.randranges([bound] * 2000) == draws and rng.state == ref.state
        assert 3500 < ref.outputs < 4500

    @pytest.mark.parametrize("bad", [0, -1, -(2**70)])
    def test_nonpositive_bound(self, bad):
        """The same ValueError, with the draws before the bad bound taken."""
        rng, ref = SplitMix64(9), PerDrawSplitMix64(9)
        with pytest.raises(ValueError, match="^randrange bound must be positive$"):
            rng.randranges([7, 1000, bad, 3])
        with pytest.raises(ValueError, match="^randrange bound must be positive$"):
            [ref.randrange(k) for k in (7, 1000, bad, 3)]
        assert rng.state == ref.state
        with pytest.raises(ValueError, match="^randrange bound must be positive$"):
            SplitMix64(9).randrange(bad)

    def test_single_draws_equal_per_draw(self):
        rng, ref = SplitMix64(2**64 - 1), PerDrawSplitMix64(2**64 - 1)
        assert [rng.next_u64() for _ in range(200)] == [ref.next_u64() for _ in range(200)]
        assert [rng.randrange(k) for k in range(1, 300)] == [ref.randrange(k) for k in range(1, 300)]
        assert rng.state == ref.state

    @pytest.mark.parametrize("length", [0, 1, 2, 1000])
    def test_shuffle_equals_per_draw(self, length):
        for seed in (0, 3):
            rng, ref = SplitMix64(seed), PerDrawSplitMix64(seed)
            items, want = list(range(length)), list(range(length))
            rng.shuffle(items)
            ref.shuffle(want)
            assert items == want and rng.state == ref.state, seed
