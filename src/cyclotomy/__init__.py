"""Exact computation of cyclotomic polynomials and Ramanujan sums, with
mechanical verification of the identities relating them.

The package is organised as:

* :mod:`cyclotomy.arith`   -- factorization, divisors, mu, phi, Ramanujan sums;
* :mod:`cyclotomy.intpoly` -- dense exact integer polynomial arithmetic and
  the Newton-identities bridge between coefficients and root power sums;
* :mod:`cyclotomy.cyclo`   -- Phi_n by five independent algorithms;
* :mod:`cyclotomy.verify`  -- identity checks and parameter sweeps;
* :mod:`cyclotomy.cli`     -- the ``cyclotomy`` command-line tool.
"""

from .arith import (
    MAX_INDEX,
    RAMANUJAN_METHODS,
    DefinitionResidualError,
    divisors,
    factorize,
    is_prime,
    mobius,
    ramanujan_sum,
    totient,
)
from .cyclo import (
    ALGORITHMS,
    CyclotomicResult,
    InternalIdentityError,
    NotCoprimeError,
    cyclotomic,
    cyclotomic_of_power,
    cyclotomic_poly,
    radical_reduce,
)
from .intpoly import (
    InexactDivisionError,
    NotDivisibleError,
    NotMonicError,
    coeffs_from_power_sums,
    poly_exact_div,
    poly_height,
    poly_mul,
    poly_prod,
    poly_str,
    power_sums,
    substitute_power,
)
from .verify import (
    CheckReport,
    SweepResult,
    check_coefficient_facts,
    check_polynomial_identities,
    check_ramanujan_identities,
    check_totient_identities,
    sweep_coefficients,
    sweep_polynomial,
    sweep_ramanujan,
    sweep_totient,
)

__version__ = "0.1.0"

__all__ = [
    "MAX_INDEX",
    "RAMANUJAN_METHODS",
    "ALGORITHMS",
    "DefinitionResidualError",
    "InternalIdentityError",
    "NotCoprimeError",
    "NotDivisibleError",
    "NotMonicError",
    "InexactDivisionError",
    "CyclotomicResult",
    "CheckReport",
    "SweepResult",
    "factorize",
    "divisors",
    "mobius",
    "totient",
    "is_prime",
    "ramanujan_sum",
    "cyclotomic",
    "cyclotomic_poly",
    "cyclotomic_of_power",
    "radical_reduce",
    "poly_mul",
    "poly_prod",
    "poly_exact_div",
    "poly_height",
    "poly_str",
    "substitute_power",
    "power_sums",
    "coeffs_from_power_sums",
    "check_polynomial_identities",
    "check_totient_identities",
    "check_ramanujan_identities",
    "check_coefficient_facts",
    "sweep_polynomial",
    "sweep_totient",
    "sweep_ramanujan",
    "sweep_coefficients",
    "__version__",
]
