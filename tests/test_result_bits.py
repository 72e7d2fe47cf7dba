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
code before that route worked in blocks. ORACLE_GOLDEN pins the sweep rows
and an eval_ia_at row of a second corpus, on both routes and up to
n = 800, recorded from the code that summed both raters' A for every
matrix; it sums only the ones that H(lo | hi) conditions on now, by the
same operations, so no bit may move.
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


def oracle_corpus() -> dict[str, AgreementMatrix]:
    """Matrices on both of the oracle's routes, n = 2 to 800: sparse,
    degenerate, with zero lines, whose higher-entropy rater changes within
    DEFAULT_EPS_GRID (the *_flip ones), and with totals up to 2**64 - 1."""
    rng = np.random.default_rng(2901)
    out = {"hist_8_top_1": AgreementMatrix(rng.integers(0, 2, size=(8, 8)))}
    for n in (200, 400, 800):
        out[f"hist_{n}"] = AgreementMatrix(rng.integers(0, 10, size=(n, n)))
    sparse = rng.integers(1, 10, size=(400, 400)) * (rng.random((400, 400)) < 0.3)
    out["hist_400_sparse"] = AgreementMatrix(sparse)
    lines = rng.integers(0, 10, size=(300, 300))
    lines[[0, 7]] = 0
    lines[:, [3, 299]] = 0
    out["hist_300_zero_lines"] = AgreementMatrix(lines)
    column = np.zeros((300, 300), dtype=np.int64)
    column[:, 17] = rng.integers(0, 10, size=300)
    out["hist_column_300"] = AgreementMatrix(column)
    row = np.zeros((200, 200), dtype=np.int64)
    row[5] = rng.integers(1, 10, size=200)
    out["hist_row_200"] = AgreementMatrix(row)
    for name, seed, n, top, share in (("hist_flip_24", 514, 24, 5, 0.5), ("hist_flip_16", 524, 16, 1, 0.3)):
        own = np.random.default_rng(seed)
        counts = own.integers(0, top + 1, size=(n, n))
        counts[own.random((n, n)) < share] = 0
        out[name] = AgreementMatrix(counts)
    out["per_cell_400"] = AgreementMatrix(rng.choice([0, 1, 7, 1000, 10**6], (400, 400)))
    sparse = rng.integers(1, 10**6 + 1, size=(800, 800)) * (rng.random((800, 800)) < 0.3)
    out["per_cell_800_sparse"] = AgreementMatrix(sparse)
    lines = rng.integers(0, 10**6 + 1, size=(100, 100))
    lines[50] = 0
    lines[:, 0] = 0
    out["per_cell_100_zero_lines"] = AgreementMatrix(lines)
    out["per_cell_2"] = AgreementMatrix([[1, 0], [3, 2]])
    out["per_cell_flip_3"] = AgreementMatrix([[4, 0, 4], [0, 2, 0], [0, 0, 4]])
    out["per_cell_flip_4"] = AgreementMatrix([[2, 0, 1, 0], [0, 1, 4, 2], [5, 0, 0, 0], [0, 2, 0, 0]])
    out["single_cell_zero_lines"] = AgreementMatrix([[0, 0, 0], [0, 0, 2], [0, 0, 0]])
    out["skewed_column"] = AgreementMatrix([[871842, 0], [194308, 0]])
    out["total_2_64_minus_1"] = AgreementMatrix([[2**63, 0], [2**62, 2**62 - 1]])
    out["total_2_64_minus_1_one_cell"] = AgreementMatrix([[2**64 - 1, 0], [0, 0]])
    return out


ORACLE_EPS = 1e-7  # eval_ia_at's epsilon, off DEFAULT_EPS_GRID


def _oracle_rows(m: AgreementMatrix) -> tuple:
    """The sweep rows at SWEEP_POINTS, then eval_ia_at at ORACLE_EPS."""
    evs = oracle.sweep(m, oracle.DEFAULT_EPS_GRID)
    evs = [evs[i] for i in SWEEP_POINTS] + [oracle.eval_ia_at(oracle.zero_freed(m, ORACLE_EPS))]
    return tuple(tuple(float.hex(getattr(ev, f)) for f in SWEEP_FIELDS) for ev in evs)


ORACLE_GOLDEN: dict[str, tuple] = {
    'hist_8_top_1': (
        ('0x1.cfbe07fc1f478p-3', '0x1.7753f38feadabp+1', '0x1.7b678c10bb480p+1', '0x1.4edf48b80325bp+2'),
        ('0x1.f9201e4091c74p-3', '0x1.77030bf08c7bcp+1', '0x1.7b3b90316df7bp+1', '0x1.4ae00d1cfdeb4p+2'),
        ('0x1.f9201e4091c74p-3', '0x1.77030bf08c7bcp+1', '0x1.7b3b90316df7bp+1', '0x1.4ae00d1cfdeb4p+2'),
        ('0x1.f91fc7bfd3ab4p-3', '0x1.77030c267a9f4p+1', '0x1.7b3b904ec457ep+1', '0x1.4ae0152b73762p+2'),
    ),
    'hist_200': (
        ('0x1.83db610d6aae0p-5', '0x1.e91aeb7feacdap+2', '0x1.e91ebd280b91fp+2', '0x1.dd88b8fe20809p+3'),
        ('0x1.86777ced91040p-5', '0x1.e91ae1e9a035ap+2', '0x1.e91eb45045774p+2', '0x1.dd74be23937e4p+3'),
        ('0x1.86777ced91040p-5', '0x1.e91ae1e9a035ap+2', '0x1.e91eb45045774p+2', '0x1.dd74be23937e4p+3'),
        ('0x1.867778892da30p-5', '0x1.e91ae1e9a67fep+2', '0x1.e91eb4504b44bp+2', '0x1.dd74be452a436p+3'),
    ),
    'hist_400': (
        ('0x1.56ab03094a140p-5', '0x1.149484a9927c7p+3', '0x1.14940d70d874dp+3', '0x1.0ecb6edcaf74ep+4'),
        ('0x1.58e903b2d1140p-5', '0x1.1494823d780f4p+3', '0x1.14940acbff87ep+3', '0x1.0ec1bbcfc04bap+4'),
        ('0x1.58e903b2d1140p-5', '0x1.1494823d780f4p+3', '0x1.14940acbff87ep+3', '0x1.0ec1bbcfc04bap+4'),
        ('0x1.58e8ffed917e0p-5', '0x1.1494823d79a62p+3', '0x1.14940acc0143fp+3', '0x1.0ec1bbe00d46cp+4'),
    ),
    'hist_800': (
        ('0x1.3221468a5f080p-5', '0x1.3497896108e93p+3', '0x1.34977ab28093ap+3', '0x1.2ed36d54e3249p+4'),
        ('0x1.341e6c01ea290p-5', '0x1.3497882315587p+3', '0x1.3497797e54d49p+3', '0x1.2ec9d5283b52ap+4'),
        ('0x1.341e6c01ea290p-5', '0x1.3497882315587p+3', '0x1.3497797e54d49p+3', '0x1.2ec9d5283b52ap+4'),
        ('0x1.341e68aa01db0p-5', '0x1.3497882316291p+3', '0x1.3497797e559ecp+3', '0x1.2ec9d5385b13ep+4'),
    ),
    'hist_400_sparse': (
        ('0x1.c118108a1ce64p-3', '0x1.1467dd8f966e7p+3', '0x1.1468774d5da61p+3', '0x1.ec33cff6cce98p+3'),
        ('0x1.ccd21029e1c20p-3', '0x1.14673cc21156ap+3', '0x1.1467da068dfecp+3', '0x1.ea9d8cde98078p+3'),
        ('0x1.ccd21029e1c20p-3', '0x1.14673cc21156ap+3', '0x1.1467da068dfecp+3', '0x1.ea9d8cde98078p+3'),
        ('0x1.ccd1fc57e5144p-3', '0x1.14673cc27b8dbp+3', '0x1.1467da06f5e08p+3', '0x1.ea9d8f8c1e8dap+3'),
    ),
    'hist_300_zero_lines': (
        ('0x1.687d5d4611d20p-5', '0x1.06fd3bc4aa3e9p+3', '0x1.06fc2387e7252p+3', '0x1.0133623ab0879p+4'),
        ('0x1.6adf3d04b2520p-5', '0x1.06fbf6187c924p+3', '0x1.06fadd4484a3ep+3', '0x1.0128596e1faacp+4'),
        ('0x1.6adf3d04b2520p-5', '0x1.06fbf6187c924p+3', '0x1.06fadd4484a3ep+3', '0x1.0128596e1faacp+4'),
        ('0x1.6adf3905d64c0p-5', '0x1.06fbf61aa8e18p+3', '0x1.06fadd46b1565p+3', '0x1.01285980aad55p+4'),
    ),
    'hist_column_300': (
        ('0x1.4bdc5fefa3880p-6', '0x1.0b93a71319fb7p+2', '0x1.044d26f2a8cb2p+3', '0x1.87613dfbd6b14p+3'),
        ('0x1.1aca75ccb3d30p-4', '0x1.22ca83ebbc790p-457', '0x1.fbb90799be640p+2', '0x1.fbb90799be640p+2'),
        ('0x1.1cbbe0f4ad4f0p-4', '0x1.12074c162ec11p-921', '0x1.fbb90799be640p+2', '0x1.fbb90799be640p+2'),
        ('0x1.b2a5f1ae9fa60p-5', '0x1.6a6e5f84b9babp-13', '0x1.fbb936319bcabp+2', '0x1.fbbbe498ba007p+2'),
    ),
    'hist_row_200': (
        ('0x1.13e0e42e41e20p-6', '0x1.e24a784e76322p+2', '0x1.8cf47e356cacep+1', '0x1.52b6945942f75p+3'),
        ('0x1.3487c917a1c00p-11', '0x1.dab7d8a56d2bbp+2', '0x1.759bf64095edep-458', '0x1.dab7d8a56d2bbp+2'),
        ('0x1.37ed951e2a000p-12', '0x1.dab7d8a56d2bbp+2', '0x1.600dca141f068p-922', '0x1.dab7d8a56d2bbp+2'),
        ('0x1.53f666e0281c0p-7', '0x1.dab7e166f168ep+2', '0x1.d27d5cc95e894p-14', '0x1.dab9af0d542eap+2'),
    ),
    'hist_flip_24': (
        ('0x1.29739605ede90p-2', '0x1.2177c087dd36fp+2', '0x1.2176c9ff31037p+2', '0x1.eed929f1072e6p+2'),
        ('0x1.340b3b27c0ed4p-2', '0x1.21670ea50dd22p+2', '0x1.21675a65a37ebp+2', '0x1.ebbf3d0fb7978p+2'),
        ('0x1.340b3b27c0ed4p-2', '0x1.21670ea50dd22p+2', '0x1.21675a65a37ebp+2', '0x1.ebbf3d0fb7978p+2'),
        ('0x1.340b27fa84888p-2', '0x1.21670eb01ab9ap+2', '0x1.21675a6fd9244p+2', '0x1.ebbf428d1982ap+2'),
    ),
    'hist_flip_16': (
        ('0x1.281122fab593ap-2', '0x1.f499e39ec18cfp+1', '0x1.f4afe94b21846p+1', '0x1.ac46783b25ab5p+2'),
        ('0x1.498e4b0326044p-2', '0x1.f3f2ff085553bp+1', '0x1.f3eeaca0ea1b6p+1', '0x1.a37e623d2ba00p+2'),
        ('0x1.498e4b0326044p-2', '0x1.f3f2ff085553bp+1', '0x1.f3eeaca0ea1b6p+1', '0x1.a37e623d2ba00p+2'),
        ('0x1.498e03810c2d0p-2', '0x1.f3f2ff794c2a1p+1', '0x1.f3eead253c187p+1', '0x1.a37e74172da27p+2'),
    ),
    'per_cell_400': (
        ('0x1.0f093c7064086p-2', '0x1.145f6542e5032p+3', '0x1.1464ac43ffd80p+3', '0x1.df9d5453e08b8p+3'),
        ('0x1.0f093e97e9a72p-2', '0x1.145f6542cd0b0p+3', '0x1.1464ac43e8235p+3', '0x1.df9d53bedcd1dp+3'),
        ('0x1.0f093e97e9a72p-2', '0x1.145f6542cd0b0p+3', '0x1.1464ac43e8235p+3', '0x1.df9d53bedcd1dp+3'),
        ('0x1.0f093e97e7674p-2', '0x1.145f6542cd0b2p+3', '0x1.1464ac43e8236p+3', '0x1.df9d53bedd6d6p+3'),
    ),
    'per_cell_800_sparse': (
        ('0x1.aa34b6225bf64p-3', '0x1.3481183586922p+3', '0x1.3480af93f4a1ep+3', '0x1.14670947f15c0p+4'),
        ('0x1.aa34c7cb578fcp-3', '0x1.34811835535aep+3', '0x1.3480af93c0950p+3', '0x1.146707f3402f8p+4'),
        ('0x1.aa34c7cb578fcp-3', '0x1.34811835535aep+3', '0x1.3480af93c0950p+3', '0x1.146707f3402f8p+4'),
        ('0x1.aa34c7cb44f1cp-3', '0x1.34811835535afp+3', '0x1.3480af93c0953p+3', '0x1.146707f341969p+4'),
    ),
    'per_cell_100_zero_lines': (
        ('0x1.532851fb325f0p-5', '0x1.a8217f05395c3p+2', '0x1.a81be9c48fff0p+2', '0x1.9f573559f178ep+3'),
        ('0x1.5328520137670p-5', '0x1.a8217eff49f20p+2', '0x1.a81be9bea0862p+2', '0x1.9f573553f997ap+3'),
        ('0x1.5328520137670p-5', '0x1.a8217eff49f20p+2', '0x1.a81be9bea0862p+2', '0x1.9f573553f997ap+3'),
        ('0x1.5328520137610p-5', '0x1.a8217eff49f82p+2', '0x1.a81be9bea08c5p+2', '0x1.9f573553f99dcp+3'),
    ),
    'per_cell_2': (
        ('0x1.33bba1c2469e0p-3', '0x1.d6bbbdd6fb8a0p-1', '0x1.4e746c795902cp-1', '0x1.79776920cd94fp+0'),
        ('0x1.57f56c003217cp-3', '0x1.d62adf1ea257dp-1', '0x1.4ccfbd254af58p-1', '0x1.758ab7c7a8960p+0'),
        ('0x1.57f56c003217cp-3', '0x1.d62adf1ea257dp-1', '0x1.4ccfbd254af58p-1', '0x1.758ab7c7a8960p+0'),
        ('0x1.57f51af8feec0p-3', '0x1.d62adf7e13eeep-1', '0x1.4ccfbe3a4f426p-1', '0x1.758abf0011d8fp+0'),
    ),
    'per_cell_flip_3': (
        ('0x1.1fd9efdb70a82p-1', '0x1.618a1ac47ed53p+0', '0x1.618a1ac47ed54p+0', '0x1.fc50cee0026ebp+0'),
        ('0x1.2bcdfe5e9e13ep-1', '0x1.60f7f47cc9aa3p+0', '0x1.60f7f47cc9aa3p+0', '0x1.f341190f12cecp+0'),
        ('0x1.2bcdfe5e9e13ep-1', '0x1.60f7f47cc9aa3p+0', '0x1.60f7f47cc9aa3p+0', '0x1.f341190f12cecp+0'),
        ('0x1.2bcde8103edb2p-1', '0x1.60f7f4dd3493cp+0', '0x1.60f7f4dd3493dp+0', '0x1.f34128f82258cp+0'),
    ),
    'per_cell_flip_4': (
        ('0x1.291b2cbc2b92cp-1', '0x1.da7720426e5a9p+0', '0x1.da89955d2342bp+0', '0x1.50d6b6561c1a3p+1'),
        ('0x1.3629153832e24p-1', '0x1.d9ea0027c1b40p+0', '0x1.d9ea0027c1b40p+0', '0x1.4a5ea5ab281f0p+1'),
        ('0x1.3629153832e24p-1', '0x1.d9ea0027c1b40p+0', '0x1.d9ea0027c1b40p+0', '0x1.4a5ea5ab281f0p+1'),
        ('0x1.3628fcad610e6p-1', '0x1.d9ea00852cf09p+0', '0x1.d9ea0091708abp+0', '0x1.4a5eb14e249aap+1'),
    ),
    'single_cell_zero_lines': (
        ('0x1.8cd74bb2910e8p-2', '0x1.bd45b4bba184ep-3', '0x1.bd45b4bba184ep-3', '0x1.66fdeb22c0401p-2'),
        ('0x1.530b31ed0f3eap-1', '0x1.b033b5b45074bp-462', '0x1.b033b5b45074bp-462', '0x1.2119ddac23495p-461'),
        ('0x1.542deb6331410p-1', '0x1.987ba700fde48p-926', '0x1.987ba700fde48p-926', '0x1.10c84738a09ecp-925'),
        ('0x1.28753b438a595p-1', '0x1.e56c47feba560p-18', '0x1.e56c47feba561p-18', '0x1.58e36877dd0d5p-17'),
    ),
    'skewed_column': (
        ('0x1.c2ff981e61700p-7', '0x1.110928dad6056p-21', '0x1.5eb58fa03639bp-1', '0x1.5eb5a074a870dp-1'),
        ('0x1.8d795386a2000p-11', '0x1.2724dbee2f0b9p-482', '0x1.5eb58f3152be6p-1', '0x1.5eb58f3152be6p-1'),
        ('0x1.98bb1ba0d7800p-12', '0x1.116f32da5b460p-946', '0x1.5eb58f3152be6p-1', '0x1.5eb58f3152be6p-1'),
        ('0x1.17a9190733dc0p-7', '0x1.2090961266ce9p-37', '0x1.5eb58f3153071p-1', '0x1.5eb58f3164e8bp-1'),
    ),
    'total_2_64_minus_1': (
        ('0x1.88e5a67dec9dep-2', '0x1.9f5fd8a9063e3p-1', '0x1.0000000000000p+0', '0x1.8000000000000p+0'),
        ('0x1.88e5a67dec9dep-2', '0x1.9f5fd8a9063e3p-1', '0x1.0000000000000p+0', '0x1.8000000000000p+0'),
        ('0x1.88e5a67dec9dep-2', '0x1.9f5fd8a9063e3p-1', '0x1.0000000000000p+0', '0x1.8000000000000p+0'),
        ('0x1.88e5a67dec9dep-2', '0x1.9f5fd8a9063e3p-1', '0x1.0000000000000p+0', '0x1.8000000000000p+0'),
    ),
    'total_2_64_minus_1_one_cell': (
        ('0x1.ea647d540f01ap-2', '0x1.6bf6907e6c2e5p-64', '0x1.6bf6907e6c2e5p-64', '0x1.14cff69c41c6ap-63'),
        ('0x1.fd229a28179e4p-2', '0x1.46e749526aef6p-526', '0x1.46e749526aef6p-526', '0x1.eb450f8e19e0cp-526'),
        ('0x1.fe7744020ea04p-2', '0x1.22ca07d6fb173p-990', '0x1.22ca07d6fb173p-990', '0x1.b49e927bfad32p-990'),
        ('0x1.ee7c280fc0026p-2', '0x1.2642747f8fafep-80', '0x1.2642747f8fafep-80', '0x1.be6c2c3c5ae8bp-80'),
    ),
}


@pytest.fixture(scope="module")
def oracle_matrices():
    return oracle_corpus()


def test_oracle_corpus_is_pinned(oracle_matrices):
    assert set(oracle_matrices) == set(ORACLE_GOLDEN)
    for name, m in oracle_matrices.items():
        by_histograms = 4 * (m.max_cell + 1) <= m.n
        assert name.startswith("hist") == by_histograms, name
    # each flip's first point conditions on the other rater than its later ones
    for name in ("hist_flip_24", "hist_flip_16", "per_cell_flip_3", "per_cell_flip_4"):
        evs = oracle.sweep(oracle_matrices[name], oracle.DEFAULT_EPS_GRID)
        x_lower = [ev.h_x < ev.h_y for ev in evs]
        assert x_lower[0] != x_lower[1] and len(set(x_lower[1:])) == 1, name


@pytest.mark.parametrize("name", sorted(ORACLE_GOLDEN))
def test_oracle_rows_are_bit_identical(oracle_matrices, name):
    assert _oracle_rows(oracle_matrices[name]) == ORACLE_GOLDEN[name]
