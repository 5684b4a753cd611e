"""Tests for repro.experiments.tournament — the empirical meta-game.

The structural tests play a small private config through
``run_tournament``; the meta-game's claims are checked on the registered
``metagame`` scenario at quick scale, the artifact the registry renders.
"""

import pytest

from repro.experiments import TournamentConfig, run_tournament
from repro.scenarios import get_scenario, run_scenario


@pytest.fixture(scope="module")
def result():
    return run_tournament(TournamentConfig(repetitions=1, rounds=6))


@pytest.fixture(scope="module")
def metagame():
    return run_scenario(get_scenario("metagame")).value


def _adversary_payoff(result, adversary, collector):
    i = result.adversary_names.index(adversary)
    return result.adversary_payoffs[i, result.collector_names.index(collector)]


@pytest.mark.slow
class TestTournament:
    def test_matrix_shapes(self, result):
        n_a = len(result.adversary_names)
        n_c = len(result.collector_names)
        assert result.adversary_payoffs.shape == (n_a, n_c)
        assert result.collector_payoffs.shape == (n_a, n_c)

    def test_mixtures_are_distributions(self, result):
        assert result.adversary_mixture.sum() == pytest.approx(1.0)
        assert result.collector_mixture.sum() == pytest.approx(1.0)
        assert (result.adversary_mixture >= -1e-12).all()
        assert (result.collector_mixture >= -1e-12).all()

    def test_adversary_payoffs_nonnegative(self, result):
        assert (result.adversary_payoffs >= 0.0).all()

    def test_collector_pays_at_least_the_poison(self, result):
        # Collector payoff = -poison - overhead <= -poison.
        assert (
            result.collector_payoffs <= -result.adversary_payoffs + 1e-12
        ).all()

    def test_extreme_adversary_zeroed_by_trimming_collectors(self, metagame):
        payoff = _adversary_payoff(metagame, "extreme@0.99", "titfortat")
        assert payoff == pytest.approx(0.0, abs=0.01)

    def test_extreme_adversary_survives_ostrich(self, metagame):
        assert _adversary_payoff(metagame, "extreme@0.99", "ostrich") > 0.15

    def test_just_below_exploits_static(self, metagame):
        assert _adversary_payoff(metagame, "just-below", "static") > 0.1

    def test_empirical_equilibrium_is_adaptive(self, metagame):
        # The headline (beyond the paper, on its §III-B payoffs): the
        # minimax collector is the Elastic scheme — the paper's
        # interactive equilibrium found empirically.
        assert metagame.best_collector() == "elastic0.5"

    def test_game_value_consistent_with_matrix(self, result):
        value = float(
            result.adversary_mixture
            @ result.adversary_payoffs
            @ result.collector_mixture
        )
        assert value == pytest.approx(result.game_value, abs=1e-6)
