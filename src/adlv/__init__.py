"""Exact combinatorics for unions of affine Deligne-Lusztig varieties."""

from .admissible import AdmissibleSet, adm, in_adm, tau_mu
from .affine_weyl import AffineRoot, AffineWeylElement, AffineWeylGroup, OmegaElt
from .frobenius import FrobeniusDatum, StraightClassTag
from .levi import jb_shadow, levi_of, pi0_predict
from .newton_bg import BGMuElement, b_g_mu, obstruction_class
from .picard import PicardLattice, PicClass, descent_certificate
from .presets import catalog, preset
from .root_datum import RootDatum, build_root_datum

__version__ = "0.1.0"

__all__ = [
    "AdmissibleSet",
    "AffineRoot",
    "AffineWeylElement",
    "AffineWeylGroup",
    "BGMuElement",
    "FrobeniusDatum",
    "OmegaElt",
    "PicClass",
    "PicardLattice",
    "RootDatum",
    "StraightClassTag",
    "adm",
    "b_g_mu",
    "build_root_datum",
    "catalog",
    "descent_certificate",
    "in_adm",
    "jb_shadow",
    "levi_of",
    "obstruction_class",
    "pi0_predict",
    "preset",
    "tau_mu",
]
