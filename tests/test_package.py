"""The public names of the package."""

import importlib
import os
import subprocess
import sys

import pytest

import blockade

# each public name and the submodule that defines it
HOMES = {
    "fock": ("FockBasis", "annihilation", "two_mode_ops"),
    "model": ("SystemParams", "weak_params", "strong_params", "cpb_detunings",
              "effective_hamiltonian", "non_hermitian_hamiltonian"),
    "amplitude": ("AmplitudeState", "steady_amplitudes",
                  "analytic_coefficients", "g2_from_amplitudes"),
    "lindblad": ("steady_rho", "steady_rho_stack", "g2_from_rho",
                 "steady_g2"),
    "optimize": ("OptimalPair", "SearchGrid", "find_optimal_pairs",
                 "target_residual"),
    "sweep": ("SweepSpec", "run_sweep", "figure_dataset"),
}
SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(
    __file__))), "src")


def test_all_names_resolve_and_star_import_works():
    missing = [name for name in blockade.__all__
               if not hasattr(blockade, name)]
    assert not missing
    namespace = {}
    exec("from blockade import *", namespace)
    assert set(blockade.__all__) <= set(namespace)


def test_each_name_is_its_home_modules_object():
    names = [(module, name) for module, names in HOMES.items()
             for name in names]
    assert len(names) == 24
    assert set(blockade.__all__) == {name for _, name in names}
    assert len(blockade.__all__) == len(set(blockade.__all__))
    for module, name in names:
        home = importlib.import_module("blockade." + module)
        assert getattr(blockade, name) is getattr(home, name)
        assert name in vars(blockade)       # kept once resolved


def test_dir_lists_every_public_name():
    assert set(blockade.__all__) <= set(dir(blockade))
    assert "__version__" in dir(blockade)


def test_unknown_name_raises_an_attribute_error_naming_it():
    with pytest.raises(AttributeError, match="no_such_name"):
        blockade.no_such_name
    with pytest.raises(ImportError, match="no_such_name"):
        exec("from blockade import no_such_name", {})


def test_import_loads_only_the_submodules_it_uses():
    # a fresh interpreter running the statements of a cold start
    probe = "\n".join([
        "import sys",
        "had_json = 'json' in sys.modules",
        "import blockade",
        "from blockade import steady_amplitudes, weak_params",
        "print(' '.join(sorted(m for m in sys.modules",
        "                      if m.startswith('blockade.'))))",
        "print('json' in sys.modules and not had_json)",
        "import blockade.lindblad",
        "print(blockade.lindblad.steady_g2 is blockade.steady_g2)",
    ])
    env = dict(os.environ, PYTHONPATH=SRC)
    done = subprocess.run([sys.executable, "-c", probe], capture_output=True,
                          text=True, env=env, timeout=60)
    assert (done.returncode, done.stderr) == (0, "")
    loaded, json_loaded, same = done.stdout.splitlines()
    assert loaded == "blockade.amplitude blockade.fock blockade.model"
    for module in ("lindblad", "optimize", "sweep", "cli"):
        assert "blockade." + module not in loaded.split()
    assert (json_loaded, same) == ("False", "True")


def test_submodules_resolve_as_attributes():
    for module in HOMES:
        assert getattr(blockade, module) is importlib.import_module(
            "blockade." + module)
