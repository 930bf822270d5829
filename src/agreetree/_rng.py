"""Portable, seedable 64-bit random number generator.

The generator is splitmix64 (Steele, Lea & Flood's mixing constants): a
single 64-bit state advanced by the golden-gamma increment and finalized
with two xor-shift multiplies.  It is tiny, passes BigCrush, and, unlike
`random.Random`, is trivially reimplementable bit-for-bit in any language,
so trees generated here can be reproduced outside Python from the recorded
seed alone.
"""

_MASK = (1 << 64) - 1


class SplitMix64:
    """splitmix64 stream; identical output for identical seeds, forever."""

    __slots__ = ("state",)

    def __init__(self, seed: int):
        self.state = seed & _MASK

    def next_u64(self) -> int:
        """The next 64-bit output: a draw below 2^64, which none rejects."""
        return self.randranges((1 << 64,))[0]

    def randrange(self, n: int) -> int:
        """Uniform integer in [0, n) by rejection (no modulo bias)."""
        return self.randranges((n,))[0]

    def randranges(self, bounds) -> list:
        """``[self.randrange(k) for k in bounds]``, drawn in one loop: the
        one place the stream advances.  Each bound rejects the outputs in
        the final partial block of the 2^64 range; a bound <= 0 raises
        ValueError, the draws before it taken."""
        out, s, mask = [], self.state, _MASK
        for n in bounds:
            if n <= 0:
                self.state = s
                raise ValueError("randrange bound must be positive")
            limit = mask - (mask + 1) % n
            while True:
                s = (s + 0x9E3779B97F4A7C15) & mask
                z = ((s ^ (s >> 30)) * 0xBF58476D1CE4E5B9) & mask
                z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & mask
                z ^= z >> 31
                if z <= limit:
                    out.append(z % n)
                    break
        self.state = s
        return out

    def shuffle(self, items: list) -> None:
        """Fisher-Yates, in place: item i swaps with a draw below i + 1."""
        for i, j in zip(range(len(items) - 1, 0, -1), self.randranges(range(len(items), 1, -1))):
            items[i], items[j] = items[j], items[i]
