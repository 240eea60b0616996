"""Known-answer vectors for the CLI vector suite.

Single-shot vectors are the standard X25519/X448 test vectors; iteration
vectors follow the usual base-point iteration procedure (k, u start at the
base point encoding; each round computes k, u = f(k, u), k).  All values were
verified against an independent X25519/X448 implementation before freezing.
"""

from __future__ import annotations

from .ecsm import scalar_mult_bytes
from .field import CurveId

# (scalar_hex, u_hex, expected_hex)
SINGLE_SHOT = {
    CurveId.CURVE25519: (
        (
            "a546e36bf0527c9d3b16154b82465edd62144c0ac1fc5a18506a2244ba449ac4",
            "e6db6867583030db3594c1a424b15f7c726624ec26b3353b10a903a6d0ab1c4c",
            "c3da55379de9c6908e94ea4df28d084f32eccf03491c71f754b4075577a28552",
        ),
        (
            "4b66e9d4d1b4673c5ad22691957d6af5c11b6421e0ea01d42ca4169e7918ba0d",
            "e5210f12786811d3f4b7959d0538ae2c31dbe7106fc03c3efc4cd549c715a493",
            "95cbde9476e8907d7aade45cb4b873f88b595a68799fa152e6f8f7647aac7957",
        ),
    ),
    CurveId.CURVE448: (
        (
            "3d262fddf9ec8e88495266fea19a34d28882acef045104d0d1aae121700a779c"
            "984c24f8cdd78fbff44943eba368f54b29259a4f1c600ad3",
            "06fce640fa3487bfda5f6cf2d5263f8aad88334cbd07437f020f08f9814dc031"
            "ddbdc38c19c6da2583fa5429db94ada18aa7a7fb4ef8a086",
            "ce3e4ff95a60dc6697da1db1d85e6afbdf79b50a2412d7546d5f239fe14fbaad"
            "eb445fc66a01b0779d98223961111e21766282f73dd96b6f",
        ),
        (
            "203d494428b8399352665ddca42f9de8fef600908e0d461cb021f8c538345dd7"
            "7c3e4806e25f46d3315c44e0a5b4371282dd2c8d5be3095f",
            "0fbcc2f993cd56d3305b0b7d9e55d4c1a8fb5dbb52f8e9a1e9b6201b165d0158"
            "94e56c4d3570bee52fe205e28a78b91cdfbde71ce8d157db",
            "884a02576239ff7a2f2f63b2db6a9ff37047ac13568e1e30fe63c4a7ad1b3ee3"
            "a5700df34321d62077e63633c575c1c954514e99da7c179d",
        ),
    ),
}

# base-point u-coordinates (little-endian byte strings also serve as the
# initial scalar in the iteration procedure)
BASE_U = {
    CurveId.CURVE25519: (9).to_bytes(32, "little"),
    CurveId.CURVE448: (5).to_bytes(56, "little"),
}

ITERATED = {
    CurveId.CURVE25519: {
        1: "422c8e7a6227d7bca1350b3e2bb7279f7897b87bb6854b783c60e80311ae3079",
        1000: "684cf59ba83309552800ef566f2f4d3c1c3887c49360e3875f2eb94d99532c51",
        1000000: "7c3911e0ab2586fd864497297e575e6f3bc601c0883c30df5f4dd2d24f665424",
    },
    CurveId.CURVE448: {
        1: "3f482c8a9f19b01e6c46ee9711d9dc14fd4bf67af30765c2ae2b846a4d23a8cd"
           "0db897086239492caf350b51f833868b9bc2b3bca9cf4113",
        1000: "aa3b4749d55b9daf1e5b00288826c467274ce3ebbdd5c17b975e09d4af6c67cf"
              "10d087202db88286e2b79fceea3ec353ef54faa26e219f38",
        1000000: "077f453681caca3693198420bbe515cae0002472519b3e67661a7e89cab94695"
                 "c8f4bcd66e61b9b9c946da8d524de3d69bd9d9d66b997e37",
    },
}


def iterate(curve: CurveId, count: int) -> bytes:
    """The base-point iteration: `count` rounds of k, u = f(k, u), k; returns k."""
    k = u = BASE_U[curve]
    for _ in range(count):
        k, u = scalar_mult_bytes(k, u, curve), k
    return k
