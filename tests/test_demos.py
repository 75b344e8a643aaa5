"""Pinned output of every demo script.

Each script in demos/ runs in a fresh interpreter with the package source
on its path, and the SHA-256 of its standard output must equal the
recorded digest.  The demos are deterministic; 04 and 05 drive
`encode_components` through the private and cloud-center paths end to end.
"""

import hashlib
import os
import pathlib
import subprocess
import sys

import pytest

ROOT = pathlib.Path(__file__).resolve().parent.parent

DIGESTS = {
    "01_hash_families.py": "509f355309687931c65454a44931f993ba3d8c11bfc8a67999aad88646ebfa20",
    "02_typicality_toolkit.py": "46808e6b8facc2af884320835d97317274019b718e4f1a02e0ab39fa72194ae9",
    "03_rate_regions.py": "d53085f295a48c5d8423588b65a0556dc1d54b30c40704e35d851a75432b73b8",
    "04_private_mac.py": "1d6eceeb898a2ba0297066e861b0e4c8f4a9c557164be4c4256098626a974e89",
    "05_superposition.py": "c961bdaffb1bd4f249f882eef0914d61b7e7058398aec6b3399c47df80d6da21",
}


def test_every_demo_is_pinned():
    assert sorted(p.name for p in (ROOT / "demos").glob("*.py")) == sorted(DIGESTS)


@pytest.mark.parametrize("name", sorted(DIGESTS))
def test_demo_output_is_pinned(name):
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    run = subprocess.run([sys.executable, str(ROOT / "demos" / name)], env=env,
                         capture_output=True, timeout=120, check=True)
    assert hashlib.sha256(run.stdout).hexdigest() == DIGESTS[name]
