"""Smoke tests of the top-level public API."""

import importlib
import os
import pkgutil
import subprocess
import sys

import numpy as np
import pytest

import repro


def test_version():
    assert repro.__version__ == "1.10.0"


def _packages_with_all():
    """``repro`` and every package under it that declares an ``__all__``."""
    names = ["repro"] + [
        info.name for info in pkgutil.walk_packages(repro.__path__, "repro.") if info.ispkg
    ]
    return [name for name in names if hasattr(importlib.import_module(name), "__all__")]


@pytest.mark.parametrize("package", _packages_with_all())
def test_all_exports_resolve(package):
    """A name left in ``__all__`` after its definition goes fails here."""
    module = importlib.import_module(package)
    for name in module.__all__:
        assert hasattr(module, name), f"{package}.{name}"


def test_import_loads_no_scipy():
    """scipy is imported where it is used: the package, its CLI and the
    scenario registry load without it, so serving and every CLI call
    skip its import cost."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p
        for p in [os.path.dirname(os.path.dirname(repro.__file__)), env.get("PYTHONPATH", "")]
        if p
    )
    script = (
        "import sys, repro, repro.cli, repro.scenarios\n"
        "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"
    )
    out = subprocess.run(
        [sys.executable, "-c", script], capture_output=True, text=True, env=env, check=True
    ).stdout
    assert out.strip() == "[]"


def test_quickstart_flow(control_data):
    from repro import CollectionGame, make_scheme
    from repro.core.trimming import RadialTrimmer
    from repro.streams import ArrayStream, PoisonInjector

    data, _ = control_data
    collector, adversary = make_scheme("elastic0.5", t_th=0.9)
    game = CollectionGame(
        source=ArrayStream(data, batch_size=100, seed=0),
        collector=collector,
        adversary=adversary,
        injector=PoisonInjector(attack_ratio=0.2, seed=0),
        trimmer=RadialTrimmer(),
        reference=data,
        rounds=10,
    )
    result = game.run()
    assert 0.0 <= result.poison_retained_fraction() <= 1.0
    assert result.retained_data().shape[1] == data.shape[1]


def test_theory_pipeline():
    """The analytical-model objects compose end to end."""
    from repro import (
        CoupledUtilityOscillator,
        PayoffModel,
        RepeatedGameModel,
        build_ultimatum_game,
        solve_stackelberg,
    )

    model = PayoffModel()
    solution = solve_stackelberg(model, grid_size=51)
    assert solution.follower_action <= solution.leader_action

    game = build_ultimatum_game()
    assert game.pure_nash_equilibria() == [(1, 1)]

    repeated = RepeatedGameModel(4.0, 2.0, discount=0.9)
    assert repeated.adversary_complies(0.1, flag_miss_probability=0.2)

    oscillator = CoupledUtilityOscillator(stiffness=1.0, u_adversary0=0.5)
    r = np.linspace(0, 10, 100)
    energy = oscillator.energy(r)
    assert np.ptp(energy) < 1e-9
