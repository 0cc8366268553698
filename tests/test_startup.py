"""What a fresh interpreter loads: ``import eigpert`` loads none of the
package's modules, and each command loads only the modules it calls.  Every
test starts its own interpreter, since this one has loaded them all."""

import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import eigpert

SRC = str(Path(eigpert.__file__).resolve().parents[1])

# What every command loads: the command-line module and what it imports.
CLI = {"alignment", "cli", "errors", "first_order", "jacobi", "matrices"}


def run(code: str, *args: str, cwd=None) -> subprocess.CompletedProcess:
    path = os.pathsep.join(filter(None, (SRC, os.environ.get("PYTHONPATH"))))
    return subprocess.run(
        [sys.executable, "-c", code, *args],
        capture_output=True,
        text=True,
        cwd=cwd,
        env={**os.environ, "PYTHONPATH": path},
        timeout=120,
    )


def loaded(code: str, *args: str, cwd=None) -> set[str]:
    """The ``eigpert`` modules loaded after ``code`` runs, by short name."""
    probe = code + "\nprint(' '.join(m[8:] for m in sys.modules if m.startswith('eigpert.')))"
    proc = run("import sys\n" + probe, *args, cwd=cwd)
    assert proc.returncode == 0, proc.stderr
    return set(proc.stdout.splitlines()[-1].split())


def test_import_loads_no_module():
    assert loaded("import eigpert") == set()


def test_first_read_loads_the_defining_module_only():
    assert loaded("import eigpert; eigpert.eigh") == {"errors", "matrices", "jacobi"}


@pytest.mark.parametrize(
    "argv, extra",
    [
        (["eigh", "a.txt"], set()),
        (["predict", "--order", "1", "--a", "a.txt", "--e", "e.txt"], set()),
        (["predict", "--order", "2", "--a", "a.txt", "--e", "e.txt"], {"rayleigh"}),
        (["predict", "--order", "schur", "--a", "a.txt", "--e", "e.txt"], {"schur"}),
        (["derivative", "--a", "a.txt", "--f", "e.txt"], {"rayleigh"}),
        (["paper-example"], {"harness", "rayleigh", "schur"}),
    ],
    ids=["eigh", "order1", "order2", "schur", "derivative", "paper_example"],
)
def test_each_command_loads_only_its_modules(tmp_path, argv, extra):
    (tmp_path / "a.txt").write_text(eigpert.format_matrix(np.diag([3.0, 1.0, 1.0]).astype(complex)))
    (tmp_path / "e.txt").write_text(eigpert.format_matrix(np.full((3, 3), 0.1, dtype=complex)))
    code = "from eigpert.cli import main\nassert main(sys.argv[1:]) == 0"
    assert loaded(code, *argv, cwd=tmp_path) == CLI | extra


def test_every_public_name_is_its_modules_object():
    code = """
import importlib
import eigpert

for name in eigpert.__all__:
    module = importlib.import_module("eigpert." + eigpert._MODULE_OF[name])
    assert getattr(eigpert, name) is getattr(module, name), name
    assert name in vars(eigpert), name
for name in eigpert._SUBMODULES:
    assert getattr(eigpert, name) is sys.modules["eigpert." + name], name
assert set(eigpert.__all__) | set(eigpert._SUBMODULES) <= set(dir(eigpert))
"""
    assert loaded(code) == set(eigpert._SUBMODULES)
    assert "random_unitary" not in eigpert.__all__


# The names each layer module exports that the package does not; three of
# them name per-layer benchmark metrics.
MODULE_ONLY = {
    "matrices": ("DEFAULT_ASYMMETRY_TOL", "as_readonly"),
    "jacobi": ("DEFAULT_MAX_SWEEPS",),
    "alignment": ("DEFAULT_REL_GAP_TOL", "DEFAULT_MARGIN_FACTOR", "LazyNorm"),
    "first_order": ("approx_decomposition_residual",),
    "schur": (),
    "rayleigh": ("STRICT_DIAGONAL_TOL",),
    "harness": ("random_unitary", "fit_loglog"),
}


def test_each_modules_all_is_its_table_entry_and_its_own_names():
    code = f"""
import importlib
import eigpert

module_only = {MODULE_ONLY!r}
assert set(module_only) == set(eigpert._EXPORTS) - {{"errors"}}
for name, own in module_only.items():
    module = importlib.import_module("eigpert." + name)
    names = module.__all__
    assert len(set(names)) == len(names), name
    assert set(eigpert._EXPORTS[name]) <= set(names), name
    rest = set(names) - set(eigpert._EXPORTS[name])
    assert rest == set(own) and not rest & set(eigpert.__all__), (name, rest)
    assert all(hasattr(module, attr) for attr in names), name
"""
    assert loaded(code) == set(eigpert._EXPORTS)


def test_unknown_attribute_is_the_standard_error_and_loads_nothing():
    code = """
import eigpert

try:
    eigpert.random_unitary
except AttributeError as exc:
    assert str(exc) == "module 'eigpert' has no attribute 'random_unitary'", exc
else:
    raise AssertionError("no AttributeError")
assert not hasattr(eigpert, "no_such_name")
"""
    assert loaded(code) == set()


def test_unknown_predictor_is_a_usage_error():
    argv = ["converge", "--predictor", "bogus", "--seed", "1", "--n", "2", "--blocks", "1,1", "--trials", "1"]
    proc = run("import sys; from eigpert.cli import main; sys.exit(main(sys.argv[1:]))", *argv)
    assert proc.returncode == 2
    assert proc.stdout == ""
    assert "'bogus'" in proc.stderr
    assert all(repr(name) in proc.stderr for name in eigpert.PREDICTORS)
