import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import matmeasure as mm
from matmeasure.matrices import FACTORIAL_LIMIT
from matmeasure.profiles import EXACT_ORBIT_LIMIT, HALTON_BLOCK, _canonical_vectors, halton_block
from conftest import EXAMPLE_A, tuple_law

# scipy.stats.qmc.Halton(d=13, scramble=False).random(32) (scipy 1.17.1), one
# string of float.hex values per coordinate (prime bases 2, 3, 5, ..., 41).
# Its rows for d = 1, 2, 5 and 8 were the first d columns of these.
SCIPY_HALTON_COLUMNS = (
    "0x0.0p+0 0x1.0000000000000p-1 0x1.0000000000000p-2 0x1.8000000000000p-1 "
    "0x1.0000000000000p-3 0x1.4000000000000p-1 0x1.8000000000000p-2 "
    "0x1.c000000000000p-1 0x1.0000000000000p-4 0x1.2000000000000p-1 "
    "0x1.4000000000000p-2 0x1.a000000000000p-1 0x1.8000000000000p-3 "
    "0x1.6000000000000p-1 0x1.c000000000000p-2 0x1.e000000000000p-1 "
    "0x1.0000000000000p-5 0x1.1000000000000p-1 0x1.2000000000000p-2 "
    "0x1.9000000000000p-1 0x1.4000000000000p-3 0x1.5000000000000p-1 "
    "0x1.a000000000000p-2 0x1.d000000000000p-1 0x1.8000000000000p-4 "
    "0x1.3000000000000p-1 0x1.6000000000000p-2 0x1.b000000000000p-1 "
    "0x1.c000000000000p-3 0x1.7000000000000p-1 0x1.e000000000000p-2 "
    "0x1.f000000000000p-1",
    "0x0.0p+0 0x1.5555555555555p-2 0x1.5555555555555p-1 0x1.c71c71c71c71cp-4 "
    "0x1.c71c71c71c71cp-2 0x1.8e38e38e38e38p-1 0x1.c71c71c71c71cp-3 "
    "0x1.1c71c71c71c72p-1 0x1.c71c71c71c71cp-1 0x1.2f684bda12f68p-5 "
    "0x1.7b425ed097b42p-2 0x1.684bda12f684cp-1 0x1.2f684bda12f68p-3 "
    "0x1.ed097b425ed09p-2 0x1.a12f684bda12ep-1 0x1.097b425ed097bp-2 "
    "0x1.2f684bda12f68p-1 0x1.da12f684bda12p-1 0x1.2f684bda12f68p-4 "
    "0x1.a12f684bda12fp-2 0x1.7b425ed097b42p-1 0x1.7b425ed097b42p-3 "
    "0x1.097b425ed097bp-1 0x1.b425ed097b425p-1 0x1.2f684bda12f68p-2 "
    "0x1.425ed097b425fp-1 0x1.ed097b425ed09p-1 0x1.948b0fcd6e9e0p-7 "
    "0x1.61f9add3c0ca4p-2 0x1.5ba781948b0fcp-1 0x1.f9add3c0ca458p-4 "
    "0x1.d3c0ca4587e6bp-2",
    "0x0.0p+0 0x1.999999999999ap-3 0x1.999999999999ap-2 0x1.3333333333334p-1 "
    "0x1.999999999999ap-1 0x1.47ae147ae147bp-5 0x1.eb851eb851eb9p-3 "
    "0x1.c28f5c28f5c29p-2 0x1.47ae147ae147cp-1 0x1.ae147ae147ae2p-1 "
    "0x1.47ae147ae147bp-4 0x1.1eb851eb851ecp-2 0x1.eb851eb851eb9p-2 "
    "0x1.5c28f5c28f5c3p-1 0x1.c28f5c28f5c29p-1 0x1.eb851eb851eb8p-4 "
    "0x1.47ae147ae147bp-2 0x1.0a3d70a3d70a4p-1 0x1.70a3d70a3d70bp-1 "
    "0x1.d70a3d70a3d71p-1 0x1.47ae147ae147bp-3 0x1.70a3d70a3d70ap-2 "
    "0x1.1eb851eb851ecp-1 0x1.851eb851eb853p-1 0x1.eb851eb851eb9p-1 "
    "0x1.0624dd2f1a9fcp-7 0x1.a9fbe76c8b43ap-3 0x1.a1cac083126eap-2 "
    "0x1.374bc6a7ef9dcp-1 0x1.9db22d0e56042p-1 0x1.89374bc6a7efap-5 "
    "0x1.fbe76c8b43959p-3",
    "0x0.0p+0 0x1.2492492492492p-3 0x1.2492492492492p-2 0x1.b6db6db6db6dbp-2 "
    "0x1.2492492492492p-1 0x1.6db6db6db6db6p-1 0x1.b6db6db6db6dbp-1 "
    "0x1.4e5e0a72f0539p-6 0x1.4e5e0a72f0539p-3 0x1.397829cbc14e6p-2 "
    "0x1.cbc14e5e0a72fp-2 0x1.2f05397829cbcp-1 0x1.7829cbc14e5e0p-1 "
    "0x1.c14e5e0a72f05p-1 0x1.4e5e0a72f0539p-5 0x1.7829cbc14e5e0p-3 "
    "0x1.4e5e0a72f0539p-2 0x1.e0a72f0539782p-2 0x1.397829cbc14e6p-1 "
    "0x1.829cbc14e5e0ap-1 0x1.cbc14e5e0a72fp-1 0x1.f58d0fac687d6p-5 "
    "0x1.a1f58d0fac688p-3 0x1.6343eb1a1f58dp-2 0x1.f58d0fac687d6p-2 "
    "0x1.43eb1a1f58d0fp-1 0x1.8d0fac687d633p-1 0x1.d6343eb1a1f58p-1 "
    "0x1.4e5e0a72f0539p-4 0x1.cbc14e5e0a72ep-3 0x1.7829cbc14e5e0p-2 "
    "0x1.05397829cbc15p-1",
    "0x0.0p+0 0x1.745d1745d1746p-4 0x1.745d1745d1746p-3 0x1.1745d1745d174p-2 "
    "0x1.745d1745d1746p-2 0x1.d1745d1745d18p-2 0x1.1745d1745d174p-1 "
    "0x1.45d1745d1745dp-1 0x1.745d1745d1746p-1 0x1.a2e8ba2e8ba2fp-1 "
    "0x1.d1745d1745d18p-1 0x1.0ecf56be69c90p-7 0x1.9637021d9ead8p-4 "
    "0x1.854a0cb1b810fp-3 0x1.1fbc4c2a50658p-2 0x1.7cd391fbc4c2ap-2 "
    "0x1.d9ead7cd391fcp-2 0x1.1b810ecf56be6p-1 0x1.4a0cb1b810ecfp-1 "
    "0x1.789854a0cb1b8p-1 0x1.a723f789854a1p-1 0x1.d5af9a723f78ap-1 "
    "0x1.0ecf56be69c90p-6 0x1.b810ecf56be6ap-4 0x1.9637021d9ead8p-3 "
    "0x1.2832c6e043b3dp-2 0x1.854a0cb1b810fp-2 0x1.e26152832c6e1p-2 "
    "0x1.1fbc4c2a50658p-1 0x1.4e47ef130a942p-1 0x1.7cd391fbc4c2ap-1 "
    "0x1.ab5f34e47ef14p-1",
    "0x0.0p+0 0x1.3b13b13b13b14p-4 0x1.3b13b13b13b14p-3 0x1.d89d89d89d89ep-3 "
    "0x1.3b13b13b13b14p-2 0x1.89d89d89d89d9p-2 0x1.d89d89d89d89ep-2 "
    "0x1.13b13b13b13b2p-1 0x1.3b13b13b13b14p-1 0x1.6276276276276p-1 "
    "0x1.89d89d89d89d9p-1 0x1.b13b13b13b13cp-1 0x1.d89d89d89d89ep-1 "
    "0x1.83c977ab2bedep-8 0x1.535048b5c6702p-4 0x1.4731fcf86d10bp-3 "
    "0x1.e4bbd595f6e95p-3 0x1.4122d719c060fp-2 0x1.8fe7c368854d4p-2 "
    "0x1.deacafb74a399p-2 0x1.16b8ce0307930p-1 0x1.3e1b442a6a092p-1 "
    "0x1.657dba51cc7f4p-1 0x1.8ce030792ef57p-1 0x1.b442a6a0916bap-1 "
    "0x1.dba51cc7f3e1cp-1 0x1.83c977ab2bedep-7 0x1.6b8ce030792f0p-4 "
    "0x1.535048b5c6702p-3 0x1.f0da21535048cp-3 0x1.4731fcf86d10bp-2 "
    "0x1.95f6e94731fd0p-2",
    "0x0.0p+0 0x1.e1e1e1e1e1e1ep-5 0x1.e1e1e1e1e1e1ep-4 0x1.6969696969696p-3 "
    "0x1.e1e1e1e1e1e1ep-3 0x1.2d2d2d2d2d2d3p-2 0x1.6969696969696p-2 "
    "0x1.a5a5a5a5a5a5ap-2 0x1.e1e1e1e1e1e1ep-2 0x1.0f0f0f0f0f0f1p-1 "
    "0x1.2d2d2d2d2d2d3p-1 0x1.4b4b4b4b4b4b5p-1 0x1.6969696969696p-1 "
    "0x1.8787878787878p-1 0x1.a5a5a5a5a5a5ap-1 0x1.c3c3c3c3c3c3cp-1 "
    "0x1.e1e1e1e1e1e1ep-1 0x1.c5894d10d4986p-9 0x1.fe3a76b2ef2b6p-5 "
    "0x1.f00e2c4a6886ap-4 0x1.707f8e9dacbbcp-3 0x1.e8f8071625344p-3 "
    "0x1.30b83fc74ed66p-2 0x1.6cf47c038b129p-2 0x1.a930b83fc74edp-2 "
    "0x1.e56cf47c038b1p-2 0x1.10d4985c1fe3bp-1 0x1.2ef2b67a3e01dp-1 "
    "0x1.4d10d4985c1ffp-1 0x1.6b2ef2b67a3e0p-1 0x1.894d10d4985c2p-1 "
    "0x1.a76b2ef2b67a4p-1",
    "0x0.0p+0 0x1.af286bca1af28p-5 0x1.af286bca1af28p-4 0x1.435e50d79435ep-3 "
    "0x1.af286bca1af28p-3 0x1.0d79435e50d79p-2 0x1.435e50d79435ep-2 "
    "0x1.79435e50d7943p-2 0x1.af286bca1af28p-2 0x1.e50d79435e50dp-2 "
    "0x1.0d79435e50d79p-1 0x1.286bca1af286cp-1 0x1.435e50d79435ep-1 "
    "0x1.5e50d79435e50p-1 0x1.79435e50d7943p-1 0x1.9435e50d79436p-1 "
    "0x1.af286bca1af28p-1 0x1.ca1af286bca1ap-1 0x1.e50d79435e50dp-1 "
    "0x1.6b1490aa31a3dp-9 0x1.c5d9b4d4be0ccp-5 0x1.ba81104f6c7fap-4 "
    "0x1.490aa31a3cfc7p-3 0x1.b4d4be0cc3b91p-3 0x1.104f6c7fa53adp-2 "
    "0x1.463479f8e8992p-2 0x1.7c1987722bf77p-2 0x1.b1fe94eb6f55cp-2 "
    "0x1.e7e3a264b2b41p-2 0x1.0ee457eefb093p-1 0x1.29d6deab9cb86p-1 "
    "0x1.44c965683e678p-1",
    "0x0.0p+0 0x1.642c8590b2164p-5 0x1.642c8590b2164p-4 0x1.0b21642c8590bp-3 "
    "0x1.642c8590b2164p-3 0x1.bd37a6f4de9bdp-3 0x1.0b21642c8590bp-2 "
    "0x1.37a6f4de9bd38p-2 0x1.642c8590b2164p-2 0x1.90b21642c8590p-2 "
    "0x1.bd37a6f4de9bdp-2 0x1.e9bd37a6f4deap-2 0x1.0b21642c8590bp-1 "
    "0x1.21642c8590b21p-1 0x1.37a6f4de9bd38p-1 0x1.4de9bd37a6f4ep-1 "
    "0x1.642c8590b2164p-1 0x1.7a6f4de9bd37ap-1 0x1.90b21642c8590p-1 "
    "0x1.a6f4de9bd37a7p-1 0x1.bd37a6f4de9bdp-1 0x1.d37a6f4de9bd3p-1 "
    "0x1.e9bd37a6f4deap-1 0x1.ef8bdb389ebadp-10 0x1.73a8e46a770c1p-5 "
    "0x1.6beab4fd94913p-4 0x1.0f007be2f6ce2p-3 0x1.680b9d472353bp-3 "
    "0x1.c116beab4fd94p-3 0x1.0d10f007be2f7p-2 0x1.399680b9d4724p-2 "
    "0x1.661c116beab50p-2",
    "0x0.0p+0 0x1.1a7b9611a7b96p-5 0x1.1a7b9611a7b96p-4 0x1.a7b9611a7b961p-4 "
    "0x1.1a7b9611a7b96p-3 0x1.611a7b9611a7cp-3 0x1.a7b9611a7b961p-3 "
    "0x1.ee58469ee5846p-3 0x1.1a7b9611a7b96p-2 0x1.3dcb08d3dcb09p-2 "
    "0x1.611a7b9611a7cp-2 0x1.8469ee58469eep-2 0x1.a7b9611a7b961p-2 "
    "0x1.cb08d3dcb08d4p-2 0x1.ee58469ee5846p-2 0x1.08d3dcb08d3ddp-1 "
    "0x1.1a7b9611a7b96p-1 0x1.2c234f72c234fp-1 0x1.3dcb08d3dcb09p-1 "
    "0x1.4f72c234f72c2p-1 0x1.611a7b9611a7cp-1 0x1.72c234f72c235p-1 "
    "0x1.8469ee58469eep-1 0x1.9611a7b9611a8p-1 0x1.a7b9611a7b961p-1 "
    "0x1.b9611a7b9611ap-1 0x1.cb08d3dcb08d4p-1 0x1.dcb08d3dcb08dp-1 "
    "0x1.ee58469ee5846p-1 0x1.37b4824872744p-10 0x1.24393a23eb4d0p-5 "
    "0x1.1f5a681ac9833p-4",
    "0x0.0p+0 0x1.0842108421084p-5 0x1.0842108421084p-4 0x1.8c6318c6318c6p-4 "
    "0x1.0842108421084p-3 0x1.4a5294a5294a5p-3 0x1.8c6318c6318c6p-3 "
    "0x1.ce739ce739ce7p-3 0x1.0842108421084p-2 0x1.294a5294a5294p-2 "
    "0x1.4a5294a5294a5p-2 0x1.6b5ad6b5ad6b6p-2 0x1.8c6318c6318c6p-2 "
    "0x1.ad6b5ad6b5ad6p-2 0x1.ce739ce739ce7p-2 0x1.ef7bdef7bdef8p-2 "
    "0x1.0842108421084p-1 0x1.18c6318c6318cp-1 0x1.294a5294a5294p-1 "
    "0x1.39ce739ce739dp-1 0x1.4a5294a5294a5p-1 0x1.5ad6b5ad6b5adp-1 "
    "0x1.6b5ad6b5ad6b6p-1 0x1.7bdef7bdef7bep-1 0x1.8c6318c6318c6p-1 "
    "0x1.9ce739ce739cep-1 0x1.ad6b5ad6b5ad6p-1 0x1.bdef7bdef7bdfp-1 "
    "0x1.ce739ce739ce7p-1 0x1.def7bdef7bdefp-1 0x1.ef7bdef7bdef8p-1 "
    "0x1.10c8531d0952dp-10",
    "0x0.0p+0 0x1.bacf914c1bad0p-6 0x1.bacf914c1bad0p-5 0x1.4c1bacf914c1cp-4 "
    "0x1.bacf914c1bad0p-4 0x1.14c1bacf914c2p-3 0x1.4c1bacf914c1cp-3 "
    "0x1.83759f2298376p-3 0x1.bacf914c1bad0p-3 0x1.f22983759f22ap-3 "
    "0x1.14c1bacf914c2p-2 0x1.306eb3e45306fp-2 0x1.4c1bacf914c1cp-2 "
    "0x1.67c8a60dd67c9p-2 0x1.83759f2298376p-2 0x1.9f22983759f23p-2 "
    "0x1.bacf914c1bad0p-2 0x1.d67c8a60dd67dp-2 0x1.f22983759f22ap-2 "
    "0x1.06eb3e45306ecp-1 0x1.14c1bacf914c2p-1 0x1.22983759f2298p-1 "
    "0x1.306eb3e45306fp-1 0x1.3e45306eb3e46p-1 0x1.4c1bacf914c1cp-1 "
    "0x1.59f22983759f2p-1 0x1.67c8a60dd67c9p-1 0x1.759f2298375a0p-1 "
    "0x1.83759f2298376p-1 0x1.914c1bacf914cp-1 0x1.9f22983759f23p-1 "
    "0x1.acf914c1bacfap-1",
    "0x0.0p+0 0x1.8f9c18f9c18fap-6 0x1.8f9c18f9c18fap-5 0x1.2bb512bb512bcp-4 "
    "0x1.8f9c18f9c18fap-4 0x1.f3831f3831f38p-4 0x1.2bb512bb512bcp-3 "
    "0x1.5da895da895dbp-3 0x1.8f9c18f9c18fap-3 0x1.c18f9c18f9c19p-3 "
    "0x1.f3831f3831f38p-3 0x1.12bb512bb512cp-2 0x1.2bb512bb512bcp-2 "
    "0x1.44aed44aed44bp-2 0x1.5da895da895dbp-2 0x1.76a2576a2576ap-2 "
    "0x1.8f9c18f9c18fap-2 0x1.a895da895da8ap-2 0x1.c18f9c18f9c19p-2 "
    "0x1.da895da895da9p-2 0x1.f3831f3831f38p-2 0x1.063e7063e7064p-1 "
    "0x1.12bb512bb512cp-1 0x1.1f3831f3831f4p-1 0x1.2bb512bb512bcp-1 "
    "0x1.3831f3831f383p-1 0x1.44aed44aed44bp-1 0x1.512bb512bb513p-1 "
    "0x1.5da895da895dbp-1 0x1.6a2576a2576a3p-1 0x1.76a2576a2576ap-1 "
    "0x1.831f3831f3832p-1",
)


def _stream_prefix(n, seed, count):
    return list(_canonical_vectors(n, seed, count))


def test_stream_starts_with_ones_then_basis():
    prefix = _stream_prefix(3, 0, 5)
    assert prefix[0].tolist() == [1.0, 1.0, 1.0]
    assert prefix[1].tolist() == [1.0, 0.0, 0.0]
    assert prefix[2].tolist() == [0.0, 1.0, 0.0]
    assert prefix[3].tolist() == [0.0, 0.0, 1.0]


def test_halton_block_matches_recorded_scipy_rows():
    table = np.array([[float.fromhex(t) for t in column.split()]
                      for column in SCIPY_HALTON_COLUMNS]).T
    for n in (1, 2, 5, 8, 13):
        assert np.array_equal(halton_block(n), table[:, :n])
    # The stream's low-discrepancy block follows the all-ones and basis vectors.
    stream = _stream_prefix(5, 0, 1 + 5 + HALTON_BLOCK)[6:]
    assert np.array_equal(np.array(stream), 2.0 * table[:, :5] - 1.0)


def test_import_does_not_load_scipy():
    src = str(Path(mm.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    code = ("import sys, matmeasure; "
            "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))")
    done = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                          capture_output=True, text=True)
    assert done.stdout.strip() == "[]"


def sequential_stream(n, seed):
    """The canonical stream vector by vector: one seeded draw of n values per
    vector after the all-ones, basis and Halton rows."""
    yield np.ones(n)
    for i in range(n):
        basis = np.zeros(n)
        basis[i] = 1.0
        yield basis
    for row in halton_block(n):
        yield 2.0 * row - 1.0
    rng = np.random.default_rng(seed)
    while True:
        yield rng.uniform(-1.0, 1.0, n)


@pytest.mark.parametrize("n", range(1, 10))
def test_stream_prefix_array_equals_the_sequential_stream(n):
    # Counts inside the fixed prefix (ones, basis, Halton), at its end, and
    # past it, where one bulk draw replaces the per-vector draws; the stream
    # generator crosses its own doubling boundaries at these counts too.
    fixed = 1 + n + HALTON_BLOCK
    for seed in (0, 7):
        for count in (1, n, fixed - 1, fixed, fixed + 1, 3 * fixed + 5):
            reference = np.array([v for v, _ in zip(sequential_stream(n, seed), range(count))])
            assert _canonical_vectors(n, seed, count).tobytes() == reference.tobytes()
            assert np.array(_stream_prefix(n, seed, count)).tobytes() == reference.tobytes()


def test_stream_stays_in_unit_box():
    for v in _stream_prefix(4, 9, 60):
        assert np.all(v >= -1.0) and np.all(v <= 1.0)


def test_sample_profile_is_deterministic():
    m = mm.MeasuredMatrix(EXAMPLE_A)
    a = mm.sample_profile(m, 2, 25, seed=5)
    b = mm.sample_profile(m, 2, 25, seed=5)
    assert len(a.measures) == len(b.measures)
    for x, y in zip(a.measures, b.measures):
        assert x.points.tobytes() == y.points.tobytes()
        assert x.weights.tobytes() == y.weights.tobytes()
    for ta, tb in zip(a.base_vectors, b.base_vectors):
        assert all(np.array_equal(u, v) for u, v in zip(ta, tb))
    # 25 tuples of 2 vectors reach past the fixed stream prefix (1 + n + 32
    # vectors for n = 3), so a different seed must change the tail.
    c = mm.sample_profile(m, 2, 25, seed=6)
    assert any(x.points.tobytes() != y.points.tobytes()
               for x, y in zip(a.measures, c.measures))


def test_zero_matrix_profiles_sit_on_the_axis():
    m = mm.MeasuredMatrix(np.zeros((3, 3)))
    profile = mm.sample_profile(m, 1, 20, seed=1)
    for mu in profile.measures:
        assert np.all(mu.points[:, 1] == 0.0)


def test_first_sample_exposes_row_sums():
    m = mm.MeasuredMatrix(EXAMPLE_A)
    profile = mm.sample_profile(m, 1, 1, seed=3)
    (mu,) = profile.measures
    assert np.all(mu.points[:, 0] == 1.0)
    assert sorted(mu.points[:, 1].tolist()) == [1.0, 2.0]


def test_profile_measures_live_in_r2k():
    m = mm.MeasuredMatrix(EXAMPLE_A)
    assert mm.sample_profile(m, 3, 4, seed=0).measures.dim == 6


def test_sample_profile_argument_validation():
    m = mm.MeasuredMatrix(EXAMPLE_A)
    with pytest.raises(ValueError):
        mm.sample_profile(m, 0, 10, seed=0)
    with pytest.raises(ValueError):
        mm.sample_profile(m, 1, 0, seed=0)


# ---------------------------------------------------------------------------
# exact-orbit profiles
# ---------------------------------------------------------------------------

def test_exact_orbit_profile_of_worked_example():
    profile = mm.exact_orbit_profile(mm.MeasuredMatrix(EXAMPLE_A),
                                     [np.array([3.0, 1.0, 2.0])])
    assert len(profile.measures) == 3


def test_exact_orbit_constant_vector_on_transitive_graph():
    profile = mm.exact_orbit_profile(mm.adjacency(mm.complete_graph(3)),
                                     [np.array([0.5, 0.5, 0.5])])
    assert len(profile.measures) == 1


def test_exact_orbit_identical_for_relabeled_matrices():
    rng = np.random.default_rng(31)
    a = rng.standard_normal((4, 4))
    sigma = rng.permutation(4)
    base = [rng.uniform(-1, 1, 4) for _ in range(3)]
    pa = mm.exact_orbit_profile(mm.MeasuredMatrix(a), base)
    pb = mm.exact_orbit_profile(mm.MeasuredMatrix(mm.relabel_matrix(a, sigma)), base)
    assert mm.measure_sets_equal(pa.measures, pb.measures)


def test_exact_orbit_rejects_large_orders():
    with pytest.raises(ValueError):
        mm.exact_orbit_profile(mm.MeasuredMatrix(np.eye(8)), [np.zeros(8)])


@pytest.mark.parametrize("n", [3, 4, 5, 6])
def test_exact_orbit_profile_equals_per_orbit_then_across_dedup(n):
    # The two-stage dedup of earlier releases: each orbit on its own, then
    # the orbits' members once across.  A repeated and a nearly repeated base
    # vector give the second stage duplicates to drop.  Members, order and
    # mean bits agree.
    rng = np.random.default_rng(n)
    g = mm.cycle_graph(n) if n % 2 else mm.path_graph(n)
    matrices = [mm.adjacency(g), mm.kirchhoff(g), mm.normalized_laplacian(g),
                mm.normalized_laplacian(g, "stationary"),
                mm.MeasuredMatrix(rng.normal(size=(n, n)))]
    v, w = mm.orbit_base_family(n, 17)[:2]
    base = [v, w, v, w + 1e-10]
    for matrix in matrices:
        members = mm.exact_orbit_profile(matrix, base).measures.members
        expected = mm.MeasureSet.from_measures(
            [mu for u in base for mu in mm.orbit_measures(matrix, np.sort(u))]).members
        assert [mu._key.tobytes() for mu in members] == [mu._key.tobytes() for mu in expected]
        assert [mu.mean.tobytes() for mu in members] == [mu.mean.tobytes() for mu in expected]


def test_order6_profile_split_at_the_stack_row_bound_equals_from_measures(monkeypatch):
    # 8 orbits of 720 rows: the first 7 fill one 5,040-row stack and the
    # last, a copy of the second orbit 1e-10 off, is dropped across stacks.
    canonical_keys, rows = mm.measures._canonical_keys, []

    def counted(points, weights):
        rows.append(len(points))
        return canonical_keys(points, weights)

    matrix = mm.adjacency(mm.cycle_graph(6))
    family = mm.orbit_base_family(6, 17)
    base = family + [family[1] + 1e-10]
    monkeypatch.setattr(mm.measures, "_canonical_keys", counted)
    built = mm.exact_orbit_profile(matrix, base).measures
    monkeypatch.undo()
    assert rows == [5040, 720]
    sigmas = mm.matrices.permutations_preserving(matrix.p)
    _assert_same_members(built, mm.MeasureSet.from_measures(
        mm.generate_measure(matrix, np.sort(u)[sigma]) for u in base for sigma in sigmas))


def _representations(n: int) -> list:
    """Adjacency, Kirchhoff, normalized Laplacian, stationary-weighted
    adjacency and a Gaussian matrix, on a path (even n) or a cycle (odd n).
    At n = 1, the one-vertex graph has no edge, so the normalized Laplacian
    and the stationary weights do not exist."""
    rng = np.random.default_rng(n)
    gaussian = mm.MeasuredMatrix(rng.normal(size=(n, n)))
    if n == 1:
        g = mm.path_graph(1)
        return [mm.adjacency(g), mm.kirchhoff(g), gaussian]
    g = mm.cycle_graph(n) if n % 2 else mm.path_graph(n)
    return [mm.adjacency(g), mm.kirchhoff(g), mm.normalized_laplacian(g),
            mm.adjacency(g, "stationary"), gaussian]


def _assert_same_members(built: mm.MeasureSet, expected: mm.MeasureSet) -> None:
    assert [mu._key.tobytes() for mu in built] == [mu._key.tobytes() for mu in expected]
    assert [mu.mean.tobytes() for mu in built] == [mu.mean.tobytes() for mu in expected]


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 6, 7, 8, 12, 40, 200])
def test_batched_builders_equal_sets_of_single_measures(n):
    # Each batched builder against from_measures over generate_measure or
    # tuple_law, one measure object and one A @ z per row: the stacked
    # product of _law_points must give the same bits on every order the
    # orbits take, and on sampled orders past them.  The all-ones, basis and
    # tied vectors send rows through the merge loop.  Equal vectors generate
    # equal measures, so the orbit references construct each distinct
    # permuted vector once, in first-occurrence order, and from_measures
    # keeps the same members.  Order 7 keeps to one orbit and one base vector
    # and order 8 to one orbit: 5,040 single constructions per set take a while.
    ties = np.where(np.arange(n) % 2, 0.25, -0.5)
    merged = 0
    for matrix in _representations(n):
        if n <= FACTORIAL_LIMIT:
            sigmas = mm.matrices.permutations_preserving(matrix.p)
            v, w = mm.orbit_base_family(n, 17)[:2]
            for x in (v, ties, np.ones(n), np.eye(n)[0]) if n < 7 else (ties,):
                orbit = mm.orbit_measures(matrix, x)
                vectors, first = np.unique(x[sigmas], axis=0, return_index=True)
                _assert_same_members(orbit, mm.MeasureSet.from_measures(
                    mm.generate_measure(matrix, vectors[i]) for i in np.argsort(first)))
                merged += sum(mu.atom_count < n for mu in orbit)
        if n <= EXACT_ORBIT_LIMIT:
            base = [v, w, v] if n < 7 else [v]
            _assert_same_members(
                mm.exact_orbit_profile(matrix, base).measures,
                mm.MeasureSet.from_measures(mm.generate_measure(matrix, np.sort(u)[sigma])
                                            for u in base for sigma in sigmas))
        for k in (1, 2, 3):
            sample = mm.sample_profile(matrix, k, 40, seed=n)
            _assert_same_members(sample.measures, mm.MeasureSet.from_measures(
                tuple_law(matrix, t) for t in sample.base_vectors))
            merged += sum(mu.atom_count < n for mu in sample.measures)
    assert merged > 0 or n == 1  # one atom cannot merge


def test_orbit_base_family_shape():
    family = mm.orbit_base_family(4, seed=11)
    assert len(family) == 5
    v = family[0]
    assert np.min(np.diff(np.sort(v))) > 0
    for w in family:
        assert np.all(np.abs(w) <= 1.0)
    again = mm.orbit_base_family(4, seed=11)
    assert all(np.array_equal(u, v) for u, v in zip(family, again))


# ---------------------------------------------------------------------------
# 1-profile distance
# ---------------------------------------------------------------------------

def test_one_profile_distance_of_identical_matrices():
    m = mm.MeasuredMatrix(EXAMPLE_A)
    cfg = mm.SamplingConfig(count=30, seed=2)
    assert mm.one_profile_distance(m, m, cfg) == 0.0


def test_one_profile_distance_exact_orbit_relabeling_is_zero():
    cfg = mm.SamplingConfig(mode="exact_orbit", seed=17)
    c4 = mm.adjacency(mm.cycle_graph(4))
    relabeled = mm.MeasuredMatrix(
        mm.relabel_matrix(c4.entries, np.array([2, 3, 0, 1])))
    assert mm.one_profile_distance(c4, relabeled, cfg) == 0.0


def test_one_profile_distance_separates_c4_from_p4():
    # Regression baseline: witnessed numerically with this fixed seed.
    cfg = mm.SamplingConfig(mode="exact_orbit", seed=11)
    c4 = mm.adjacency(mm.cycle_graph(4))
    p4 = mm.adjacency(mm.path_graph(4))
    d = mm.one_profile_distance(c4, p4, cfg)
    assert d > 1e-9
    assert d == pytest.approx(0.5, abs=1e-9)


def test_exact_orbit_invariance_across_random_relabelings():
    rng = np.random.default_rng(32)
    cfg = mm.SamplingConfig(mode="exact_orbit", seed=7)
    for n in (3, 4, 5):
        a = rng.standard_normal((n, n))
        sigma = rng.permutation(n)
        ma = mm.MeasuredMatrix(a)
        mb = mm.MeasuredMatrix(mm.relabel_matrix(a, sigma))
        assert mm.one_profile_distance(ma, mb, cfg) == 0.0


def test_one_profile_triangle_inequality_on_fixed_samples():
    cfg = mm.SamplingConfig(count=25, seed=13)
    rng = np.random.default_rng(33)
    ms = [mm.MeasuredMatrix(rng.standard_normal((4, 4))) for _ in range(3)]
    d01 = mm.one_profile_distance(ms[0], ms[1], cfg)
    d12 = mm.one_profile_distance(ms[1], ms[2], cfg)
    d02 = mm.one_profile_distance(ms[0], ms[2], cfg)
    assert d02 <= d01 + d12 + 1e-9
    assert d01 == mm.one_profile_distance(ms[1], ms[0], cfg)


def test_unknown_mode_rejected():
    m = mm.MeasuredMatrix(EXAMPLE_A)
    with pytest.raises(ValueError):
        mm.one_profile_distance(m, m, mm.SamplingConfig(mode="bogus"))


def test_cross_size_comparison_supported():
    cfg = mm.SamplingConfig(count=20, seed=4)
    k4 = mm.adjacency(mm.complete_graph(4))
    k6 = mm.adjacency(mm.complete_graph(6))
    assert 0.0 <= mm.one_profile_distance(k4, k6, cfg) <= 1.0


# ---------------------------------------------------------------------------
# action distance
# ---------------------------------------------------------------------------

def test_action_distance_of_identical_matrices():
    m = mm.MeasuredMatrix(EXAMPLE_A)
    cfg = mm.SamplingConfig(count=20, seed=2)
    result = mm.action_distance(m, m, 3, cfg)
    assert result.value == 0.0
    assert result.tail_bound == 0.125


def test_one_profile_bounded_by_twice_action_distance():
    rng = np.random.default_rng(34)
    cfg = mm.SamplingConfig(count=20, seed=8)
    for _ in range(5):
        n = int(rng.integers(2, 5))
        ma = mm.MeasuredMatrix(rng.standard_normal((n, n)))
        mb = mm.MeasuredMatrix(rng.standard_normal((n, n)))
        ds = mm.one_profile_distance(ma, mb, cfg)
        dm = mm.action_distance(ma, mb, 2, cfg)
        assert ds <= 2.0 * dm.value


def test_truncation_tail_bound():
    rng = np.random.default_rng(35)
    cfg = mm.SamplingConfig(count=15, seed=9)
    ma = mm.MeasuredMatrix(rng.standard_normal((3, 3)))
    mb = mm.MeasuredMatrix(rng.standard_normal((3, 3)))
    d2 = mm.action_distance(ma, mb, 2, cfg)
    d4 = mm.action_distance(ma, mb, 4, cfg)
    assert abs(d2.value - d4.value) <= 2.0 ** -2
    assert d4.tail_bound == 2.0 ** -4


def test_action_distance_requires_sampled_mode():
    m = mm.MeasuredMatrix(EXAMPLE_A)
    with pytest.raises(ValueError):
        mm.action_distance(m, m, 2, mm.SamplingConfig(mode="exact_orbit"))
    with pytest.raises(ValueError):
        mm.action_distance(m, m, 0, mm.SamplingConfig())


def test_profile_sets_per_mode():
    m = mm.MeasuredMatrix(EXAMPLE_A)
    sampled = mm.SamplingConfig(count=12, seed=3, kmax=3)
    sets = mm.profile_sets(m, sampled)
    assert [s.dim for s in sets] == [2, 4, 6]
    assert len(mm.profile_sets(m, sampled, 1)) == 1
    # Exact-orbit mode has the 1-profile only, whatever cfg.kmax says.
    exact = mm.SamplingConfig(mode="exact_orbit", seed=17, kmax=0)
    (orbit,) = mm.profile_sets(m, exact)
    expected = mm.exact_orbit_profile(m, mm.orbit_base_family(3, 17)).measures
    assert mm.measure_sets_equal(orbit, expected)
    with pytest.raises(ValueError, match="exact-orbit"):
        mm.profile_sets(m, exact, 2)
    with pytest.raises(ValueError, match="kmax"):
        mm.profile_sets(m, mm.SamplingConfig(kmax=0))
    with pytest.raises(ValueError, match="mode"):
        mm.profile_sets(m, mm.SamplingConfig(mode="bogus"))


def test_distances_share_the_per_k_terms():
    rng = np.random.default_rng(36)
    cfg = mm.SamplingConfig(count=15, seed=4, kmax=3)
    ma = mm.MeasuredMatrix(rng.standard_normal((4, 4)))
    mb = mm.MeasuredMatrix(rng.standard_normal((3, 3)))
    terms = mm.hausdorff_terms(mm.profile_sets(ma, cfg), mm.profile_sets(mb, cfg))
    assert len(terms) == 3
    assert mm.one_profile_distance(ma, mb, cfg) == terms[0]
    result = mm.action_distance(ma, mb, cfg=cfg)
    assert result == mm.ActionDistance.from_terms(terms)
    assert result.value == 0.5 * terms[0] + 0.25 * terms[1] + 0.125 * terms[2]
    assert result.tail_bound == 0.125
    with pytest.raises(ValueError):
        mm.hausdorff_terms(mm.profile_sets(ma, cfg), mm.profile_sets(mb, cfg, 2))


# ---------------------------------------------------------------------------
# config block
# ---------------------------------------------------------------------------

def test_sampling_config_round_trip():
    cfg = mm.SamplingConfig(count=77, seed=5, metric="chebyshev",
                            mode="exact_orbit", kmax=2)
    assert mm.SamplingConfig.from_text(cfg.to_text()) == cfg


def test_sampling_config_missing_field_is_named():
    text = "count 10\nseed 3\nmetric euclidean\nmode sampled\n"
    with pytest.raises(ValueError, match="kmax"):
        mm.SamplingConfig.from_text(text)
