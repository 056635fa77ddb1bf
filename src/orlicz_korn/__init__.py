"""Numerical toolkit for Korn-type inequalities in Orlicz spaces.

Submodules
----------
young      Young-function algebra: conjugation, inverses, growth conditions
balance    integral balance conditions between Young-function pairs
rearrange  decreasing rearrangements and Luxemburg norms of sampled data
hardy      averaging / dual Hardy operators on (0, L) and their norm ratios
fields     discrete vector calculus, kernel projections, Korn-ratio harness
laminate   exact laminate measures, blow-up diagnostics, field realization
bogovskii  integral right inverse of the divergence on star-shaped domains
cli        command-line orchestration with reproducible manifests
"""

from . import young, balance, rearrange, hardy, fields, laminate, bogovskii

__all__ = ["young", "balance", "rearrange", "hardy", "fields", "laminate", "bogovskii"]

__version__ = "0.1.0"
