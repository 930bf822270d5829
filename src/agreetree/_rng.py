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
        self.state = (self.state + 0x9E3779B97F4A7C15) & _MASK
        z = self.state
        z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK
        z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK
        return z ^ (z >> 31)

    def randrange(self, n: int) -> int:
        """Uniform integer in [0, n) by rejection (no modulo bias)."""
        if n <= 0:
            raise ValueError("randrange bound must be positive")
        # Reject draws from the final partial block of the 2^64 range.
        limit = _MASK - (_MASK + 1) % n
        while True:
            x = self.next_u64()
            if x <= limit:
                return x % n

    def shuffle(self, items: list) -> None:
        """Fisher-Yates, in place."""
        for i in range(len(items) - 1, 0, -1):
            j = self.randrange(i + 1)
            items[i], items[j] = items[j], items[i]
