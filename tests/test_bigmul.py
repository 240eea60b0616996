import random

from uecc.bigmul import counters, kar128_int, kar256_int, kar256_structural_int, mul_schoolbook


class TestKaratsuba:
    def test_zero_annihilator(self):
        rng = random.Random(2)
        for _ in range(20):
            assert kar256_structural_int(0, rng.getrandbits(256)) == 0

    def test_identity(self):
        rng = random.Random(3)
        for _ in range(20):
            y = rng.getrandbits(256)
            assert kar256_structural_int(1, y) == y

    def test_max_operands(self):
        m = (1 << 256) - 1
        assert kar256_structural_int(m, m) == m * m

    def test_against_schoolbook_oracle(self):
        rng = random.Random(4)
        for _ in range(2000):
            x, y = rng.getrandbits(256), rng.getrandbits(256)
            assert kar256_structural_int(x, y) == mul_schoolbook(x, y)

    def test_commutativity(self):
        rng = random.Random(5)
        for _ in range(200):
            x, y = rng.getrandbits(256), rng.getrandbits(256)
            assert kar256_structural_int(x, y) == kar256_structural_int(y, x)

    def test_recursion_identity_both_levels(self):
        # z = x1*y1*2^(2b) + [(x0+x1)(y0+y1) - x0*y0 - x1*y1]*2^b + x0*y0
        rng = random.Random(6)
        for bits, b, kar in ((256, 128, kar256_structural_int), (128, 64, kar128_int)):
            mask = (1 << b) - 1
            for _ in range(200):
                x = rng.getrandbits(bits)
                y = rng.getrandbits(bits)
                x0, x1 = x & mask, x >> b
                y0, y1 = y & mask, y >> b
                z0 = x0 * y0
                z2 = x1 * y1
                mid = (x0 + x1) * (y0 + y1) - z0 - z2
                assert kar(x, y) == (z2 << (2 * b)) + (mid << b) + z0 == x * y

    def test_three_submuls_per_level(self):
        # one 256-bit product = 3 x 128-bit units = 9 base 64x64 products
        x = random.Random(7).getrandbits(256)
        before = counters.snapshot()
        kar256_structural_int(x, x)
        d64, d128, d256 = (a - b for a, b in zip(counters.snapshot(), before))
        assert (d64, d128, d256) == (9, 3, 1)

    def test_engine_unit_matches_structural_reference(self):
        # the engine's unit is the builtin product: the same value as the
        # recursion it stands for, and no charge per call (`ecsm._issue`
        # charges each issued program's products instead)
        rng = random.Random(10)
        m = (1 << 256) - 1
        pairs = [(m, m), (0, m)] + [(rng.getrandbits(256), rng.getrandbits(256)) for _ in range(200)]
        for x, y in pairs:
            before = counters.snapshot()
            got = kar256_int(x, y)
            assert counters.snapshot() == before
            assert got == kar256_structural_int(x, y)


class TestSchoolbook:
    def test_zero(self):
        assert mul_schoolbook(0, 0) == 0

    def test_single_limb_shift(self):
        assert mul_schoolbook(1 << 64, 1 << 64) == 1 << 128

    def test_against_native_ints(self):
        rng = random.Random(8)
        for xw, yw in ((256, 256), (448, 448), (224, 224), (64, 64), (896, 1)):
            for _ in range(300):
                x = rng.getrandbits(xw)
                y = rng.getrandbits(yw)
                assert mul_schoolbook(x, y) == x * y

    def test_commutativity(self):
        rng = random.Random(9)
        for _ in range(100):
            x, y = rng.getrandbits(256), rng.getrandbits(256)
            assert mul_schoolbook(x, y) == mul_schoolbook(y, x)
