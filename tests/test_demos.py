"""Every demo runs the public API end to end and prints pinned bytes."""

import hashlib
import os
import subprocess
import sys

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

# sha256 of each demo's stdout; a demo missing here fails its test
DEMOS = {
    "01_wiener_and_distances.py": "e2a65b58842497bab84ba83012b21ebdc1d6af3e24bef08902ea3bfe6989256e",
    "02_onion_closed_forms.py": "fdfb92027a28a91a1e6089949fcb86ba4d4dee1008b980303ceeb29ecebe6cf9",
    "03_enumerate_classes.py": "969a626a32d0489e1909e38de5f2190e21ec6a8f60d25c06f0db4af362533601",
    "04_verify_extremal.py": "61c216a20cca40d1485a1195b9f031a00bafe8becb5e894cb10f7f4171fea3fd",
    "05_lemma_spot_checks.py": "8498afdfc886f4d9392bda5844dc9c9f59f350c9e87c7d6b454d50ef2ad641bf",
}


@pytest.mark.parametrize("demo", sorted(f for f in os.listdir(os.path.join(ROOT, "demos")) if f.endswith(".py")))
def test_demo_output_is_pinned_and_leaves_tmpdir_empty(demo, tmp_path):
    src = os.path.join(ROOT, "src")
    env = dict(os.environ, TMPDIR=str(tmp_path))
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    result = subprocess.run(
        [sys.executable, os.path.join(ROOT, "demos", demo)], env=env, capture_output=True, timeout=60
    )
    assert result.returncode == 0, result.stderr.decode()
    assert hashlib.sha256(result.stdout).hexdigest() == DEMOS.get(demo)
    assert os.listdir(tmp_path) == []
