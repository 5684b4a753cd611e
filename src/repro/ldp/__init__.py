"""Fig. 9's LDP substrate: mechanisms, the input attack, EM reconstruction, the EMF baseline."""

from .attacks import InputManipulationAttack
from .emf import EMFResult, ExpectationMaximizationFilter
from .estimators import TrimmedMeanEstimator, mean_estimate
from .mechanisms import PiecewiseMechanism
from .square_wave import SquareWaveMechanism, em_reconstruct

__all__ = [
    "PiecewiseMechanism",
    "SquareWaveMechanism",
    "em_reconstruct",
    "InputManipulationAttack",
    "EMFResult",
    "ExpectationMaximizationFilter",
    "TrimmedMeanEstimator",
    "mean_estimate",
]
