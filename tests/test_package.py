"""The public surface, and the CLI without the test-only dependencies."""

import os
import subprocess
import sys

import wiener_unicyclic

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")

# networkx and hypothesis serve the tests only; a None entry in sys.modules
# makes any import of them raise ImportError
NO_TEST_DEPS = (
    "import sys; sys.modules['networkx'] = None; sys.modules['hypothesis'] = None; "
    "from wiener_unicyclic.cli import entry; sys.argv[1:] = {argv!r}; entry()"
)


def test_every_public_name_resolves():
    assert len(set(wiener_unicyclic.__all__)) == len(wiener_unicyclic.__all__)
    for name in wiener_unicyclic.__all__:
        assert getattr(wiener_unicyclic, name) is not None, name


def test_star_import_binds_every_public_name():
    namespace: dict = {}
    exec("from wiener_unicyclic import *", namespace)
    assert set(wiener_unicyclic.__all__) <= set(namespace)


def test_every_subcommand_runs_without_the_test_dependencies(tmp_path):
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [SRC, os.environ.get("PYTHONPATH")])))
    classes = tmp_path / "classes.g6"
    for argv in (
        ["verify", "--max", "3", "4"],
        ["verify", "--min", "3", "3"],
        ["enumerate", "3", "4", "--output", str(classes)],
        ["wiener", str(classes)],
        ["table", "--n-max", "8"],
        ["harness", "--trials", "50"],
        ["onion", "1", "2", "1"],
    ):
        result = subprocess.run(
            [sys.executable, "-c", NO_TEST_DEPS.format(argv=argv)],
            env=env, cwd=tmp_path, capture_output=True, text=True, timeout=60,
        )
        assert result.returncode == 0, (argv, result.stderr)
        assert result.stdout or argv[0] == "enumerate", argv
    assert len(classes.read_text().splitlines()) == 8  # the classes of (3, 4)

