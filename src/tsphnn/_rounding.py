"""The float model that the package's written rounding bounds cite.

IEEE double precision, round to nearest, in the notation of Higham,
*Accuracy and Stability of Numerical Algorithms* (2002), ch. 3:

- Unit roundoff ``U`` = 2^-53.  A rounded sum or difference that does not
  overflow is (x op y)(1 + delta), |delta| <= U, and exact if subnormal; a
  rounded product or quotient is too where normal, and errs by at most
  2^-1075 more where subnormal, which ``MIN_NORMAL`` added to a bound
  covers.  Rounding is monotone: x <= y gives fl(x) <= fl(y).
- gamma_j = j*U / (1 - j*U) <= 2*j*U while j*U <= 1/2; j factors
  1 + delta_i multiply to 1 + theta, |theta| <= gamma_j (Lemma 3.1).
- Summation lemma: if each exact term t_i reaches a sum through at most j
  rounded operations (additions, subtractions or its own rounding), in any
  order and none overflowing, the sum lies within gamma_j * sum |t_i| of
  the exact sum.  So m terms in [0, M] lie within gamma_{m-1} * m*M of it.
- ``pow`` and ``np.power`` are assumed within 2^9 ulp of the exact power R,
  far above their few: within 2^-43 * R + 2^-1065, which ``POW_TINY``
  added to a power covers.  ``np.exp`` and ``np.log`` are assumed within
  2^-50 relative, plus 2^-1074 where subnormal; ``E`` is a relative margin
  far above either error.
"""

U = 2.0**-53
E = 2.0**-40
POW_TINY = 2.0**-1060
MIN_NORMAL = 2.0**-1022
