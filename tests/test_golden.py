"""Golden outputs: SHA-256 of the CSV bodies of small fig5, fig6 and
son-ablation runs, captured before FAP state moved into arrays.  Any change
to placement, sectors, the neighbor graph, coloring, admission or the outage
estimator that moves a single bit of a result changes a hash.  The
random-bearing cases, captured before the macro cell moved into
``DeploymentParams``, cover the UE bearing that fig6 and son-ablation each
draw from their own seed child.  The center-region and six-sector cases,
captured before the co-channel rule became one (sector, edge index) row,
cover the branches the defaults never take: a UE served on its FAP's
center band, and a reference close enough to the macro BS to see more
sectors than 0 and S - 1.  The eight-sector cases, captured before sectors
were binned in one array pass, put the reference 30 m from the macro BS, so
its neighbors surround the macro BS and fall in all eight sectors.  The
non-default-keys cases, captured before the parameter objects were built
from the config by key name, hash whole files,
provenance header included, with every kind of key away from its default: a
key that stops reaching its object, or its header line, moves a hash.

``p_out_closed`` uses no BLAS: ``link_coefficients`` takes every distance
as ``sqrt(dx * dx + dy * dy)`` in plain float64, so its value does not hang
on the BLAS kernel that numpy picks per CPU.  Five bodies (fig6 seed 1,
random-bearing son-ablation seed 2, center-region fig6 seed 1, six-sector
fig5 and son-ablation seed 1) were re-pinned when that rule replaced
``np.linalg.norm``; each is the body the earlier code gave under
``OPENBLAS_CORETYPE=Haswell``.  Only ``p_out_mc`` still counts comparisons
of a matrix-vector product, and a BLAS with another summation order may
flip one.
"""

import hashlib

import pytest

from femtosim import cli
from femtosim.config import ExperimentConfig, apply_overrides, config_hash

CASES = {
    "fig5": ("n_trials=2000",),
    "fig6": ("densities=500,1000,2000", "n_trials=2000"),
    "son-ablation": ("n_trials=2000",),
}

GOLDEN = {
    ("fig5", 1): "ea661e35e9ca8efc46be63a7dca17b90cd4a23fac274b6a5fd5bbe5438929890",
    ("fig5", 2): "fc0b9079eafb8e3a3c62a39ac73f4ec0f78a6b41df3821129288934d6d80dc58",
    ("fig6", 1): "71cdee97833b7cbe4065ce06e8cfa905248813fff52ed448c45feb37f5df5cd2",
    ("fig6", 2): "ae538274aee836dfd8da04c31885e109de4da513f422ead068eb5fc9bd727ffc",
    ("son-ablation", 1): "32e0c0febb6bb06392c501d3c63f88820738ec878c1ee64e235bb9f5f7ddd0ff",
    ("son-ablation", 2): "ff9e115e80019f851f063f855d6a32894feb3fa823b4c48b97fe09263322f149",
}


RANDOM_BEARING = {
    ("fig6", 1): "2597ce278b1d350baac1f7d1b4be398c38e4409955c707a1877753e8c3282dd6",
    ("fig6", 2): "e526cd5bbf9e331db80ebb0bb9ae0b6f745188f90ff249f7580e41fc9cfe98c3",
    ("son-ablation", 1): "72c75dd212dfbfcc99b1ee7126bb74c4faa5639543cb5c04732686eddb13aaf2",
    ("son-ablation", 2): "b2b7271fa6fc7ceff40721f982a98953b7e03ddbf57fe580eb5da6465952ebcf",
}


def _body_hash(tmp_path, experiment, sets):
    out = tmp_path / f"{experiment}.csv"
    cfg = apply_overrides(ExperimentConfig(), [*sets, f"out={out}"])
    cli.run_experiment(cfg, experiment, 1)
    body = "".join(
        line for line in out.read_text().splitlines(keepends=True) if not line.startswith("#")
    )
    return hashlib.sha256(body.encode()).hexdigest()


@pytest.mark.parametrize("experiment, seed", sorted(GOLDEN), ids=lambda v: str(v))
def test_csv_body_hash(tmp_path, experiment, seed):
    sets = [*CASES[experiment], f"seed={seed}"]
    assert _body_hash(tmp_path, experiment, sets) == GOLDEN[(experiment, seed)]


@pytest.mark.parametrize("experiment, seed", sorted(RANDOM_BEARING), ids=lambda v: str(v))
def test_random_bearing_csv_body_hash(tmp_path, experiment, seed):
    sets = [*CASES[experiment], "ue_direction=random", f"seed={seed}"]
    assert _body_hash(tmp_path, experiment, sets) == RANDOM_BEARING[(experiment, seed)]


CENTER_REGION = {
    ("fig5", 1): "16514d69a8d838bc56d743a1d20bb8c48d8279b1237e7f922b3adee10cf6591f",
    ("fig5", 2): "89ffcda3a8d07c9f5fbc799bf89a1c847802ff1dda877cdb593756d5e25c0218",
    ("fig6", 1): "4b5c0dcdd6a74ee44070f4ffa9756a1e1fe29a2da6902366b3caffffd1d5f30a",
    ("fig6", 2): "77aaddea2a3d1524843e7f33de0fe7f63d61dfedf1550ef1b2286796bd96d222",
    ("son-ablation", 1): "6c85aa78eb9670e6b346621e19516c37c58799886c4a54dffa6888a02ceaa815",
    ("son-ablation", 2): "59b27c7282d19e16180c3256760356b640129a216cf9ffbb56661ebada9c13f6",
}


SIX_SECTORS_NEAR = {
    ("fig5", 1): "db9e2c29cf6e1667f08f08ff72deb6f579f5ad505e99480a11ccbcc5ddff376a",
    ("fig5", 2): "a663aaa1bd09b6d8e491fcb8861abee43e62f0ecb5213e458ee6f34be56a6051",
    ("fig6", 1): "027f10cb2a4b3a4ee5bfa835af65cd081f18e3866d4a0bb045ee96c264a3a8aa",
    ("fig6", 2): "89cc327e0c2ba9a60b35ba91d4c71152f48f147b6054b22d4823133174baa017",
    ("son-ablation", 1): "05274b3edbaa9d204161e1d9a5a6887a10b77532986bb4c26aefa3da6d165d47",
    ("son-ablation", 2): "3d31f9887a8537ad954dad20b3d9187bff7bd39a06595e7115ffef6feaf20885",
}


@pytest.mark.parametrize("experiment, seed", sorted(CENTER_REGION), ids=lambda v: str(v))
def test_center_region_csv_body_hash(tmp_path, experiment, seed):
    sets = [*CASES[experiment], "ue_region=center", f"seed={seed}"]
    assert _body_hash(tmp_path, experiment, sets) == CENTER_REGION[(experiment, seed)]


@pytest.mark.parametrize("experiment, seed", sorted(SIX_SECTORS_NEAR), ids=lambda v: str(v))
def test_six_sectors_near_csv_body_hash(tmp_path, experiment, seed):
    sets = [*CASES[experiment], "reference_distance_m=50", "n_sectors=6", f"seed={seed}"]
    assert _body_hash(tmp_path, experiment, sets) == SIX_SECTORS_NEAR[(experiment, seed)]


EIGHT_SECTORS_NEAR = {
    ("fig5", 1): "1da08ad7035b2dd51b7a0eec68b295eec6ef6866c7fd137dd9b14a4be6d8020c",
    ("fig5", 2): "3e4fb69fddd7da68f292cbd8a5be17de1ac87e9e03a03d89621837c20a89b049",
    ("fig6", 1): "0263894ebce66c7dd00a6a6f22a86e3cdb0a64b96db3c185a3a990860b3f532a",
    ("fig6", 2): "be47ce0114d592edac073e90f618367806c68f7e20946b5caba7273aa27ede82",
    ("son-ablation", 1): "5bd02808ee1b1ffad4e0b0667b9f80134e1037a01af5cdabe810866a781ee482",
    ("son-ablation", 2): "18bfc245f163c7ed47448956f2f3959708b74d1476fe5435333db40355f8f46d",
}


@pytest.mark.parametrize("experiment, seed", sorted(EIGHT_SECTORS_NEAR), ids=lambda v: str(v))
def test_eight_sectors_near_csv_body_hash(tmp_path, experiment, seed):
    sets = [*CASES[experiment], "reference_distance_m=30", "n_sectors=8", f"seed={seed}"]
    assert _body_hash(tmp_path, experiment, sets) == EIGHT_SECTORS_NEAR[(experiment, seed)]


NON_DEFAULT_KEYS = (
    "n_trials=3000", "ue_direction=random", "ue_region=center", "n_sectors=6",
    "reference_distance_m=50", "walls_between_femtos=3", "eta_femto=3", "ue_distance_m=7",
    "densities=200,700", "schemes=dynamic,same,dedicated", "n_shards=5", "gamma_db=6dB",
)

NON_DEFAULT_FILES = {
    "fig5": "5d4b97fdbb48ae975ec0ddbe63bd37ced59ee5c96c4e4e8abe864f8f45ad7a5f",
    "fig6": "5133e1674b61e1eaf3e3b8799f2d13d763d28365dda827474fe003339006f736",
    "son-ablation": "45bef02ff4938ab26ca81c0adafe2697f40958d0e748f0bf0bdcc969f484de59",
}


@pytest.mark.parametrize("experiment", sorted(NON_DEFAULT_FILES))
def test_non_default_keys_whole_file_hash(tmp_path, experiment):
    out = tmp_path / f"{experiment}.csv"
    cfg = apply_overrides(ExperimentConfig(), [*NON_DEFAULT_KEYS, f"out={out}"])
    cfg.validate()
    cli.run_experiment(cfg, experiment, 1)
    assert hashlib.sha256(out.read_bytes()).hexdigest() == NON_DEFAULT_FILES[experiment]


def test_default_config_hash():
    assert config_hash(ExperimentConfig()) == "29e272b2457bae6d"
