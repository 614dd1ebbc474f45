"""Exact-arithmetic toolkit for strong porosity at zero.

Five building blocks:

- ideal_core: down sets, ideals, and maximal-ideal structure on ground sets
  of at most four points, settled in closed form.
- tailset: exact rational chains near zero, parametric tail families, gap
  scans, and tail certificates.
- blowup: the multiplicative enlargement x -> (x/q, q x), component chains,
  and the inclusion/covering constructions built on it.
- membership: Definite/Empirical verdicts for the porosity classes, the
  structured cover decomposition, and the worked counterexample family.
- cli: deterministic JSON/text reports over all of the above.
"""

__version__ = "0.1.0"
