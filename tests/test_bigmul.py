import random

from uecc.bigmul import counters, kar128_int, kar256_int, kar256_structural_int, mul_schoolbook
from uecc.field import PHI

# `selftest.karatsuba` checks the structural product, the unit and schoolbook
# against the native product on every pair of its edge operands and on random
# 256-bit draws, so these tests keep what it never draws: an all-ones Curve448
# half (the width of the golden-ratio partials) and schoolbook's other widths
HALF = PHI - 1


class TestKaratsuba:
    def test_zero_annihilator(self):
        assert kar256_structural_int(0, HALF) == kar256_structural_int(HALF, 0) == 0

    def test_identity(self):
        assert kar256_structural_int(1, HALF) == kar256_structural_int(HALF, 1) == HALF

    def test_max_operands(self):
        assert kar256_structural_int(HALF, HALF) == HALF * HALF

    def test_commutativity(self):
        assert kar256_structural_int(HALF, 2**256 - 1) == kar256_structural_int(2**256 - 1, HALF)

    def test_recursion_identity_both_levels(self):
        # the 256-bit level on the half is `test_max_operands`; here the 128-bit one
        assert kar128_int(HALF >> 112, HALF >> 112) == (HALF >> 112) ** 2

    def test_structural_reference_writes_no_global(self):
        # the `OWNERS` `[counters]` row keeps any other code from naming them
        before = counters.snapshot()
        kar256_structural_int(HALF, HALF)
        assert counters.snapshot() == before

    def test_engine_unit_matches_structural_reference(self):
        # no charge per call: `ecsm._issue` charges each issued program
        before = counters.snapshot()
        assert kar256_int(HALF, HALF) == kar256_structural_int(HALF, HALF)
        assert counters.snapshot() == before


class TestSchoolbook:
    def test_zero(self):
        m = (1 << 896) - 1
        assert mul_schoolbook(0, m) == mul_schoolbook(m, 0) == 0

    def test_single_limb_shift(self):
        assert mul_schoolbook(1 << 64, 1 << 384) == 1 << 448

    def test_against_native_ints(self):
        rng = random.Random(8)
        for xw, yw in ((448, 448), (224, 224), (64, 64), (896, 1)):
            pairs = [(rng.getrandbits(xw), rng.getrandbits(yw)) for _ in range(300)]
            assert all(mul_schoolbook(x, y) == x * y for x, y in pairs), (xw, yw)

    def test_commutativity(self):
        x, y = (1 << 896) - 1, (1 << 64) + 1
        assert mul_schoolbook(x, y) == mul_schoolbook(y, x)
