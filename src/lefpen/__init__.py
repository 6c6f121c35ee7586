"""Combinatorial monodromy of Lefschetz pencils, with a numerical verifier
for the quantitative lemmas that back the construction (cutoff profiles,
Morse-function deformation, estimated transversality of perturbed local
models).

Exact layer: free/braid words (:mod:`lefpen.words`), fiber models and
vanishing cycles (:mod:`lefpen.fiber`), factorizations and automorphisms
(:mod:`lefpen.pencil`).  Numerical layer: :mod:`lefpen.transversal`.
Everything is immutable and pure; the CLI lives in :mod:`lefpen.cli`.
"""

from .words import (
    Arc,
    Braid,
    FreeWord,
    RankMismatch,
    artin_apply,
    braid_from_str,
    braid_to_str,
    half_twist,
    supporting_pair,
    word_from_str,
    word_to_str,
)
from .fiber import (
    Cycle,
    FiberElement,
    FiberModel,
    ModelMismatch,
    UnsupportedCycle,
    act,
    base_half_twist,
    dehn_twist,
    full_twist,
    intersection_number,
    standard_curve,
    symplectic_pairing,
)
from .pencil import (
    ArcClass,
    Automorphism,
    HypothesisError,
    Pencil,
    automorphism_from_arc,
    base_twist_automorphism,
    classify_arc,
    dual_singularity_braid,
    enumerate_arcs,
    enumerate_matching_arcs,
    hurwitz_apply,
    hurwitz_orbit,
    in_gamma,
    kernel_orbit,
    monodromy_of,
    vanishing_label,
)

__version__ = "0.1.0"
