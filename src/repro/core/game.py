"""Finite matrix games: Nash equilibria, minimax, and the ultimatum game.

Implements the game-theoretic toolkit of Section III:

* generic two-player bimatrix games with best responses, strict dominance,
  and pure-strategy Nash enumeration;
* zero-sum matrix games solved exactly by linear programming (the classic
  minimax LP), used for mixed equilibria over discretized trimming grids;
* the single-round *ultimatum game* of Table I — a prisoner's-dilemma-like
  2x2 game between adversary (rows: Soft/Hard) and collector (columns:
  Soft/Hard) whose unique equilibrium is mutual Hard play, motivating the
  move to the repeated game of Section IV.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, List, Optional, Sequence, Tuple

import numpy as np

from .arrays import Array

__all__ = [
    "BimatrixGame",
    "solve_zero_sum",
    "UltimatumPayoffs",
    "build_ultimatum_game",
    "SOFT",
    "HARD",
]

#: Index of the Soft action in the ultimatum game's strategy lists.
SOFT = 0
#: Index of the Hard action in the ultimatum game's strategy lists.
HARD = 1


@dataclass
class BimatrixGame:
    """A finite two-player game in strategic form.

    ``row_payoffs[i, j]`` / ``col_payoffs[i, j]`` are the payoffs of the row
    and column player when row plays ``i`` and column plays ``j``.  In this
    library the row player is the adversary and the column player the
    collector.
    """

    row_payoffs: Array
    col_payoffs: Array
    row_labels: Sequence[str] = ()
    col_labels: Sequence[str] = ()

    def __post_init__(self) -> None:
        self.row_payoffs = np.asarray(self.row_payoffs, dtype=float)
        self.col_payoffs = np.asarray(self.col_payoffs, dtype=float)
        if self.row_payoffs.shape != self.col_payoffs.shape:
            raise ValueError("payoff matrices must share a shape")
        if self.row_payoffs.ndim != 2:
            raise ValueError("payoff matrices must be 2-D")
        if not self.row_labels:
            self.row_labels = [f"r{i}" for i in range(self.row_payoffs.shape[0])]
        if not self.col_labels:
            self.col_labels = [f"c{j}" for j in range(self.row_payoffs.shape[1])]

    @property
    def shape(self) -> Tuple[int, int]:
        """Numbers of (row, column) pure strategies."""
        return self.row_payoffs.shape

    def is_zero_sum(self, atol: float = 1e-9) -> bool:
        """True when the two payoff matrices sum to zero everywhere."""
        return bool(np.allclose(self.row_payoffs + self.col_payoffs, 0.0, atol=atol))

    # ------------------------------------------------------------------ #
    # best responses and equilibria
    # ------------------------------------------------------------------ #
    def row_best_responses(self, col_action: int) -> Array:
        """Indices of row actions maximizing row payoff against a column."""
        column = self.row_payoffs[:, col_action]
        return np.flatnonzero(np.isclose(column, column.max()))

    def col_best_responses(self, row_action: int) -> Array:
        """Indices of column actions maximizing column payoff against a row."""
        row = self.col_payoffs[row_action, :]
        return np.flatnonzero(np.isclose(row, row.max()))

    def pure_nash_equilibria(self) -> List[Tuple[int, int]]:
        """All pure-strategy Nash equilibria as (row, column) index pairs."""
        equilibria = []
        n_rows, n_cols = self.shape
        for i in range(n_rows):
            for j in range(n_cols):
                if i in self.row_best_responses(j) and j in self.col_best_responses(i):
                    equilibria.append((i, j))
        return equilibria

    def strictly_dominated_rows(self) -> List[int]:
        """Rows strictly dominated by some other pure row strategy."""
        dominated = []
        n_rows = self.shape[0]
        for i in range(n_rows):
            for k in range(n_rows):
                if k != i and np.all(self.row_payoffs[k] > self.row_payoffs[i]):
                    dominated.append(i)
                    break
        return dominated

    def strictly_dominated_cols(self) -> List[int]:
        """Columns strictly dominated by some other pure column strategy."""
        dominated = []
        n_cols = self.shape[1]
        for j in range(n_cols):
            for k in range(n_cols):
                if k != j and np.all(self.col_payoffs[:, k] > self.col_payoffs[:, j]):
                    dominated.append(j)
                    break
        return dominated


def solve_zero_sum(row_payoffs: Any) -> Tuple[Array, Array, float]:
    """Solve a zero-sum matrix game exactly via the minimax LP.

    ``row_payoffs[i, j]`` is the payoff to the (maximizing) row player.
    Returns ``(row_mixture, col_mixture, value)`` — the optimal mixed
    strategies of both players and the game value to the row player.

    The standard construction shifts payoffs positive, solves
    ``min 1'x  s.t.  A'x >= 1, x >= 0`` for the row player and reads the
    column strategy off the dual (recovered here by solving the symmetric
    program on ``-A`` transposed).
    """
    matrix = np.asarray(row_payoffs, dtype=float)
    if matrix.ndim != 2 or matrix.size == 0:
        raise ValueError("payoff matrix must be a non-empty 2-D array")

    shift = float(matrix.min())
    positive = matrix - shift + 1.0  # all entries >= 1

    n_rows, n_cols = positive.shape

    # scipy is imported where it is used: importing it is most of the
    # cost of ``import repro``, which serving and the CLI pay.
    from scipy.optimize import linprog

    # Row player: maximize v s.t. sum_i x_i A_ij >= v  ->  LP in y = x / v.
    res_row = linprog(
        c=np.ones(n_rows),
        A_ub=-positive.T,
        b_ub=-np.ones(n_cols),
        bounds=[(0, None)] * n_rows,
        method="highs",
    )
    if not res_row.success:
        raise RuntimeError(f"row LP failed: {res_row.message}")
    value_shifted = 1.0 / float(np.sum(res_row.x))
    row_mixture = res_row.x * value_shifted

    # Column player: minimize v s.t. sum_j A_ij y_j <= v.
    res_col = linprog(
        c=-np.ones(n_cols),
        A_ub=positive,
        b_ub=np.ones(n_rows),
        bounds=[(0, None)] * n_cols,
        method="highs",
    )
    if not res_col.success:
        raise RuntimeError(f"column LP failed: {res_col.message}")
    col_mixture = res_col.x / float(np.sum(res_col.x))

    value = value_shifted + shift - 1.0
    return row_mixture, col_mixture, float(value)


@dataclass(frozen=True)
class UltimatumPayoffs:
    """Parameters of the Table I ultimatum game.

    The caption requires the ordering ``p_high > t_high >> p_low > t_low > 0``:
    ``p_high``/``p_low`` are the adversary's hard/soft poisoning payoffs and
    ``t_high``/``t_low`` the collector's hard/soft trimming overheads.
    """

    p_high: float = 10.0
    t_high: float = 6.0
    p_low: float = 1.0
    t_low: float = 0.5

    def __post_init__(self) -> None:
        if not self.p_high > self.t_high > self.p_low > self.t_low > 0.0:
            raise ValueError(
                "Table I requires p_high > t_high > p_low > t_low > 0, got "
                f"{self.p_high}, {self.t_high}, {self.p_low}, {self.t_low}"
            )


def build_ultimatum_game(
    payoffs: Optional[UltimatumPayoffs] = None,
) -> BimatrixGame:
    """Construct the single-round ultimatum game of Table I.

    Rows: adversary {Soft, Hard}; columns: collector {Soft, Hard}.

    * (Soft, Soft): light poisoning survives a gentle trim — adversary gains
      ``p_low``, collector pays the poison plus the light overhead.
    * (Hard, Soft): heavy poisoning survives — adversary gains ``p_high``,
      collector pays it (gentle trimming overhead is dwarfed and folded in).
    * (·, Hard): a hard trim removes the poison regardless of intensity —
      adversary gains nothing, collector pays the heavy overhead ``t_high``.

    The unique Nash equilibrium is (Hard, Hard), mirroring the prisoner's
    dilemma: mutual Soft play is Pareto-superior yet not stable in the
    one-shot game, which motivates the infinite repeated game of §IV.
    """
    if payoffs is None:
        payoffs = UltimatumPayoffs()
    p_hi, t_hi = payoffs.p_high, payoffs.t_high
    p_lo, t_lo = payoffs.p_low, payoffs.t_low

    # Row player = adversary, column player = collector.
    adversary = np.array(
        [
            [p_lo, 0.0],  # Soft vs (Soft, Hard)
            [p_hi, 0.0],  # Hard vs (Soft, Hard)
        ]
    )
    collector = np.array(
        [
            [-p_lo - t_lo, -t_hi],
            [-p_hi - t_lo, -t_hi],
        ]
    )
    return BimatrixGame(
        row_payoffs=adversary,
        col_payoffs=collector,
        row_labels=("soft", "hard"),
        col_labels=("soft", "hard"),
    )
