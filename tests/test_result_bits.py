"""Bit-identity of ia_epsilon on a fixed, seeded corpus.

Every IaResult field of every matrix below was recorded as a float hex
string from the code before the construction statistics and the sliced
histogram kernel existed. Both only regroup exact integer work, so every
field must stay equal to the bit.

The corpus covers the cells' histogram route at n = 200, 400 and 800
(several 2**15-cell slices, a short last slice, an exact multiple of the
slice, and a matrix just either side of one slice), a wide histogram, the
per-cell route with counts up to 10**6, every input layout, degenerate and
skewed matrices, and bootstrap-sized ones. No vector summed by a BLAS dot
has more than 10 000 entries, so the bits do not depend on the BLAS thread
count.

The oracle's sweep rows are pinned the same way for matrices on its
per-cell route that fit in one row block (n <= 181), recorded from the
code before that route worked in blocks.
"""

import numpy as np
import pytest

from infoagree import oracle
from infoagree.matrix import AgreementMatrix
from infoagree.measure import ia_epsilon


def corpus() -> dict[str, AgreementMatrix]:
    rng = np.random.default_rng(1401)
    out = {}
    for n in (200, 400, 800):
        out[f"hist_{n}"] = AgreementMatrix(rng.integers(0, 10, size=(n, n)))
    out["hist_800_positive"] = AgreementMatrix(rng.integers(1, 10, size=(800, 800)))
    sparse = rng.integers(1, 10, size=(400, 400)) * (rng.random((400, 400)) < 0.3)
    out["hist_400_sparse"] = AgreementMatrix(sparse)
    base = rng.integers(0, 10, size=(400, 400), dtype=np.uint64)
    out["hist_400_fortran"] = AgreementMatrix(np.asfortranarray(base))
    out["hist_400_transposed"] = AgreementMatrix(base.T)
    wide = np.zeros((400, 800), dtype=np.uint64)
    wide[:, ::2] = base
    out["hist_400_strided"] = AgreementMatrix(wide[:, ::2])
    out["hist_400_owned_transposed"] = AgreementMatrix._from_owned(base.copy().T)
    out["hist_256_two_slices"] = AgreementMatrix(rng.integers(0, 10, size=(256, 256)))
    out["hist_181_one_slice"] = AgreementMatrix(rng.integers(0, 10, size=(181, 181)))
    out["hist_182_just_over"] = AgreementMatrix(rng.integers(0, 10, size=(182, 182)))
    out["hist_200_wide"] = AgreementMatrix(rng.integers(0, 20001, size=(200, 200)))
    out["per_cell_90"] = AgreementMatrix(rng.integers(0, 10**6 + 1, size=(90, 90)))
    out["per_cell_60_positive"] = AgreementMatrix(rng.integers(1, 10**6 + 1, size=(60, 60)))
    column = np.zeros((300, 300), dtype=np.uint64)
    column[:, 17] = rng.integers(0, 10, size=300)
    out["degenerate_column_300"] = AgreementMatrix(column)
    row = np.zeros((500, 500), dtype=np.uint64)
    row[233] = rng.integers(1, 10, size=500)
    out["degenerate_row_500"] = AgreementMatrix(row)
    out["degenerate_single_cell"] = AgreementMatrix([[0, 0, 0], [0, 7, 0], [0, 0, 0]])
    out["skewed_2_40"] = AgreementMatrix([[2**40, 1], [1, 1]])
    out["skewed_10_9"] = AgreementMatrix([[10**9, 1], [1, 1]])
    out["skewed_3"] = AgreementMatrix(
        [[2**60, 5, 0], [7, 2**50, 3], [0, 1, 2**55]]
    )
    out["skewed_total_2_64_minus_1"] = AgreementMatrix(
        [[2**63, 2**62], [2**61, 2**61 - 1]]
    )
    for i, n in enumerate((2, 3, 5, 8, 12, 12, 40, 80)):
        counts = rng.integers(0, 200, size=(n, n)) * (rng.random((n, n)) < 0.8)
        counts[0, 0] += 1
        out[f"small_{i}_n{n}"] = AgreementMatrix(counts)
    return out


FIELDS = ("value", "h_x", "h_y", "h_xy")

GOLDEN: dict[str, tuple] = {
    'hist_200': ('regular_x_min', 200, 200, 200, '0x1.822f3ce8946c0p-5', '0x1.e91f5ec3884b2p+2', '0x1.e91fd844d4c4ap+2', '0x1.dd982d4c1ab96p+3'),
    'hist_400': ('regular_x_min', 400, 400, 400, '0x1.57842710ce650p-5', '0x1.14946667ed1aap+3', '0x1.149494620fa6fp+3', '0x1.0ec7f6f543204p+4'),
    'hist_800': ('regular_y_min', 800, 800, 800, '0x1.34847c939baa0p-5', '0x1.3497b5a8f80dep+3', '0x1.34978be60ae0fp+3', '0x1.2ec808a5007eep+4'),
    'hist_800_positive': ('regular_x_min', 800, 800, 800, '0x1.697a2bd35bce0p-6', '0x1.34985cb5d655bp+3', '0x1.3498abebdcd87p+3', '0x1.313108107fa3ap+4'),
    'hist_400_sparse': ('regular_y_min', 400, 400, 400, '0x1.cb037fdf13cc0p-3', '0x1.146e5240be616p+3', '0x1.1468f940a1475p+3', '0x1.eae3cbbb07fc1p+3'),
    'hist_400_fortran': ('regular_y_min', 400, 400, 400, '0x1.580a2b2dce4a0p-5', '0x1.14949e9311077p+3', '0x1.1494501581af5p+3', '0x1.0ec5ae340fa56p+4'),
    'hist_400_transposed': ('regular_x_min', 400, 400, 400, '0x1.580a2b2dce4a0p-5', '0x1.1494501581af5p+3', '0x1.14949e9311077p+3', '0x1.0ec5ae340fa56p+4'),
    'hist_400_strided': ('regular_y_min', 400, 400, 400, '0x1.580a2b2dce4a0p-5', '0x1.14949e9311077p+3', '0x1.1494501581af5p+3', '0x1.0ec5ae340fa56p+4'),
    'hist_400_owned_transposed': ('regular_x_min', 400, 400, 400, '0x1.580a2b2dce4a0p-5', '0x1.1494501581af5p+3', '0x1.14949e9311077p+3', '0x1.0ec5ae340fa56p+4'),
    'hist_256_two_slices': ('regular_x_min', 256, 256, 256, '0x1.74fb40ac28910p-5', '0x1.ffed4b7b53148p+2', '0x1.ffee2b351bde0p+2', '0x1.f4464e5588410p+3'),
    'hist_181_one_slice': ('regular_x_min', 181, 181, 181, '0x1.9026f0f540d40p-5', '0x1.dfe2bef28eccep+2', '0x1.dfe56449c7404p+2', '0x1.d42ba4775c67ep+3'),
    'hist_182_just_over': ('regular_x_min', 182, 182, 182, '0x1.894c6a32f9130p-5', '0x1.e064b7b3588f6p+2', '0x1.e066d6090f666p+2', '0x1.d4dd9ed16b1d9p+3'),
    'hist_200_wide': ('regular_x_min', 200, 200, 200, '0x1.28a32d6d21fa0p-5', '0x1.e922609526bb0p+2', '0x1.e9239953445e4p+2', '0x1.e047ded6c77f8p+3'),
    'per_cell_90': ('regular_x_min', 90, 90, 90, '0x1.4fa7f936b0600p-5', '0x1.9f5223efd3fe0p+2', '0x1.9f56a606f3198p+2', '0x1.96d230fbb3f2ap+3'),
    'per_cell_60_positive': ('regular_x_min', 60, 60, 60, '0x1.5fdb8de3bc820p-5', '0x1.79b9116c0eb9cp+2', '0x1.79c4d88a911ecp+2', '0x1.71a252350fde6p+3'),
    'degenerate_column_300': ('degenerate_x', 300, 271, 1, '0x1.8bf258bf258bfp-4', '0x0.0p+0', '0x1.f68d371ec5b25p+2', '0x1.f68d371ec5b25p+2'),
    'degenerate_row_500': ('degenerate_y', 500, 1, 500, '0x0.0p+0', '0x1.17fbb1863b7e0p+3', '0x0.0p+0', '0x1.17fbb1863b7e0p+3'),
    'degenerate_single_cell': ('degenerate_x', 3, 1, 1, '0x1.5555555555555p-1', '0x0.0p+0', '0x0.0p+0', '0x0.0p+0'),
    'skewed_2_40': ('regular_y_min', 2, 2, 2, '0x1.d9f83c558e4e0p-2', '0x1.4388000000000p-34', '0x1.4388000000000p-34', '0x1.f150000000000p-34'),
    'skewed_10_9': ('regular_y_min', 2, 2, 2, '0x1.cd5fb3dab7d4cp-2', '0x1.049e780000000p-24', '0x1.049e780000000p-24', '0x1.93d03d0000000p-24'),
    'skewed_3': ('regular_y_min', 3, 3, 3, '0x1.0000000000000p+0', '0x1.a719d08e10600p-3', '0x1.a719d08e10600p-3', '0x1.a719d08e10600p-3'),
    'skewed_total_2_64_minus_1': ('regular_y_min', 2, 2, 2, '0x1.3d4f9f7b6e000p-6', '0x1.e8ab92d981980p-1', '0x1.9f5fd8a906400p-1', '0x1.c000000000000p+0'),
    'small_0_n2': ('regular_x_min', 2, 2, 2, '0x1.d81482e10f008p-4', '0x1.e56a82f491e48p-1', '0x1.f2370249f4500p-1', '0x1.cfd7a86fc32d0p+0'),
    'small_1_n3': ('regular_y_min', 3, 3, 3, '0x1.fb8e801e2e358p-4', '0x1.8128046c84e10p+0', '0x1.73cb0f99c94a0p+0', '0x1.6370791e5a684p+1'),
    'small_2_n5': ('regular_x_min', 5, 5, 5, '0x1.e86a55238318cp-3', '0x1.161da99062a64p+1', '0x1.1f93db5896f2cp+1', '0x1.f35e02e8bda56p+1'),
    'small_3_n8': ('regular_x_min', 8, 8, 8, '0x1.519bf57b8bb90p-3', '0x1.794f0fc542910p+1', '0x1.7c76430956634p+1', '0x1.5bc93a604cd8fp+2'),
    'small_4_n12': ('regular_y_min', 12, 12, 12, '0x1.563d7324d81c4p-3', '0x1.c557f91d3a984p+1', '0x1.c53e11ab9f3b4p+1', '0x1.9f6c29f0534b5p+2'),
    'small_5_n12': ('regular_y_min', 12, 12, 12, '0x1.26431a00e8780p-3', '0x1.c982fa87e1b04p+1', '0x1.c10c3e85b66b4p+1', '0x1.a505004cdfe3fp+2'),
    'small_6_n40': ('regular_x_min', 40, 40, 40, '0x1.c80faae4241e0p-4', '0x1.53c4497c12f8ep+2', '0x1.53f4c364fb8f4p+2', '0x1.40f232fee3a72p+3'),
    'small_7_n80': ('regular_y_min', 80, 80, 80, '0x1.82e5a87efec70p-4', '0x1.9451a4772417ep+2', '0x1.9433422d1eed6p+2', '0x1.812b7424be734p+3'),
}


def _record(r) -> tuple:
    return (r.case.value, r.n, r.m, r.l) + tuple(float.hex(getattr(r, f)) for f in FIELDS)


@pytest.fixture(scope="module")
def matrices():
    return corpus()


def test_corpus_is_pinned(matrices):
    assert set(matrices) == set(GOLDEN)


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_every_field_is_bit_identical(matrices, name):
    assert _record(ia_epsilon(matrices[name])) == GOLDEN[name]


def sweep_corpus() -> dict[str, AgreementMatrix]:
    rng = np.random.default_rng(1701)
    out = {}
    for n in (40, 181):
        counts = rng.integers(0, 10**6 + 1, size=(n, n))
        counts[rng.random((n, n)) < 0.2] = 0
        out[f"per_cell_{n}"] = AgreementMatrix(counts)
    out["per_cell_60_positive"] = AgreementMatrix(rng.integers(1, 10**6 + 1, size=(60, 60)))
    column = np.zeros((100, 100), dtype=np.int64)
    column[:, 3] = rng.integers(0, 10**6 + 1, size=100) * (rng.random(100) < 0.8)
    out["per_cell_column_100"] = AgreementMatrix(column)
    out["per_cell_3"] = AgreementMatrix([[7, 0, 2], [0, 0, 1], [3, 5, 0]])
    return out


SWEEP_FIELDS = ("ia_value", "h_x", "h_y", "h_xy")
SWEEP_POINTS = (0, 5, 10)  # DEFAULT_EPS_GRID's 1e-2, 1e-142 and 1e-282

GOLDEN_SWEEP: dict[str, tuple] = {
    'per_cell_40': (
        ('0x1.c1a38f2c852e0p-4', '0x1.53d626b902f8ep+2', '0x1.53d920d74f649p+2', '0x1.413085fd8234cp+3'),
        ('0x1.c1a39652ab8d0p-4', '0x1.53d626b8bd37dp+2', '0x1.53d920d6fe83fp+2', '0x1.413085b14eb9cp+3'),
        ('0x1.c1a39652ab8d0p-4', '0x1.53d626b8bd37dp+2', '0x1.53d920d6fe83fp+2', '0x1.413085b14eb9cp+3'),
    ),
    'per_cell_181': (
        ('0x1.48e7b1c2630c0p-4', '0x1.dfcc63163be42p+2', '0x1.dfca299cd8352p+2', '0x1.cc87dc4a6d437p+3'),
        ('0x1.48e7b6c5c2100p-4', '0x1.dfcc63162466ap+2', '0x1.dfca299cc3213p+2', '0x1.cc87dbff2db15p+3'),
        ('0x1.48e7b6c5c2100p-4', '0x1.dfcc63162466ap+2', '0x1.dfca299cc3213p+2', '0x1.cc87dbff2db15p+3'),
    ),
    'per_cell_60_positive': (
        ('0x1.758c39de97b20p-5', '0x1.79c3c532c31a7p+2', '0x1.79c751e4b5976p+2', '0x1.7128a6e09ce6bp+3'),
        ('0x1.758c39de97b20p-5', '0x1.79c3c532c31a7p+2', '0x1.79c751e4b5976p+2', '0x1.7128a6e09ce6bp+3'),
        ('0x1.758c39de97b20p-5', '0x1.79c3c532c31a7p+2', '0x1.79c751e4b5976p+2', '0x1.7128a6e09ce6bp+3'),
    ),
    'per_cell_column_100': (
        ('0x1.e662b3ab534c0p-4', '0x1.0e70e95c526f4p-14', '0x1.87c15299f6fbfp+2', '0x1.87c240edb6578p+2'),
        ('0x1.2fb87fe68bf00p-3', '0x1.283c776438348p-475', '0x1.87c12cc836cd9p+2', '0x1.87c12cc836cd9p+2'),
        ('0x1.3169684f5791cp-3', '0x1.128c69231db3ep-939', '0x1.87c12cc836cd9p+2', '0x1.87c12cc836cd9p+2'),
    ),
    'per_cell_3': (
        ('0x1.e1b2f3ed5c414p-2', '0x1.6a844d17c659bp+0', '0x1.4131d26d9e519p+0', '0x1.0a4f2b60a64c0p+1'),
        ('0x1.f238d484133b2p-2', '0x1.6a4f10df691f5p+0', '0x1.406ac4e4a6813p+0', '0x1.076a105654cd3p+1'),
        ('0x1.f238d484133b2p-2', '0x1.6a4f10df691f5p+0', '0x1.406ac4e4a6813p+0', '0x1.076a105654cd3p+1'),
    ),
}


@pytest.fixture(scope="module")
def sweep_matrices():
    return sweep_corpus()


def test_sweep_corpus_is_pinned(sweep_matrices):
    assert set(sweep_matrices) == set(GOLDEN_SWEEP)
    for m in sweep_matrices.values():
        # the per-cell route, in a single row block
        assert 4 * (m.max_cell + 1) > m.n and m.n**2 <= oracle._BLOCK_CELLS


@pytest.mark.parametrize("name", sorted(GOLDEN_SWEEP))
def test_per_cell_sweep_rows_are_bit_identical(sweep_matrices, name):
    evs = oracle.sweep(sweep_matrices[name], oracle.DEFAULT_EPS_GRID)
    rows = tuple(tuple(float.hex(getattr(evs[i], f)) for f in SWEEP_FIELDS) for i in SWEEP_POINTS)
    assert rows == GOLDEN_SWEEP[name]
