"""hashprop: a workbench for hash-property-based code constructions.

Subpackages cover GF(q) linear algebra (gf), the method of types (types),
matrix/function ensembles with exact collision audits (ensemble), syndrome
source coding (slepian_wolf), broadcast-channel coding (broadcast),
LP-based minimum-divergence decoding (lp_md), and shared Monte Carlo
plumbing (mc).  The CLI entry point lives in hashprop.cli.
"""

from .gf import FieldMatrix, coset_array, solve_affine
from .types import CondDistribution, Distribution, JointType, TypicalityParams
from .ensemble import Ensemble, EnsembleProfile, TypeFilter
from .slepian_wolf import SwCode, SwRates
from .broadcast import BcCode, BcProblem, KappaSchedule, RateParams
from .mc import McEstimate, wilson_interval

__all__ = [
    "FieldMatrix", "coset_array", "solve_affine",
    "CondDistribution", "Distribution", "JointType", "TypicalityParams",
    "Ensemble", "EnsembleProfile", "TypeFilter",
    "SwCode", "SwRates",
    "BcCode", "BcProblem", "KappaSchedule", "RateParams",
    "McEstimate", "wilson_interval",
]

__version__ = "0.1.0"
