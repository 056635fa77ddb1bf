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

Importing the package imports none of them: each is imported on its first
use, as ``orlicz_korn.fields`` or ``from orlicz_korn import fields``, so a
process compiles and builds only the modules its work reads.
"""

import importlib

__version__ = "0.1.0"

_SUBMODULES = ("young", "balance", "rearrange", "hardy", "fields", "laminate", "bogovskii", "cli")


def __getattr__(name):
    if name in _SUBMODULES:
        return importlib.import_module(f"{__name__}.{name}")
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
