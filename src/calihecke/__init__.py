"""Combinatorics of calibrated (unitary) representations of cyclotomic
Hecke algebras at roots of unity: crystal and FLOTW classification, exact
seminormal forms with Hermitian form signs, alcove geometry, BGG-style
character identities with a KLR action, and level-1 unitary loci.

The names below are resolved from their submodules on first use (PEP 562),
so ``import calihecke`` loads no submodule."""

import importlib

_EXPORTS = {
    "multipartitions": ("Charge", "make_charge"),
    "calibration": ("is_cali", "is_flotw", "enumerate_cali"),
    "crystal": ("e_tilde", "f_tilde", "is_no_stuttering", "is_reachable"),
    "cyclotomics": ("Cyc", "re_compare"),
    "seminormal": ("is_calibrated_weight", "weight_class", "seminormal_module",
                   "verify_hecke_relations", "form_signs", "class_form_signs",
                   "is_unitary_class", "cyclotomic_membership"),
    "alcoves": ("in_fundamental_alcove", "length", "count_fundamental_paths"),
    "bgg": ("block_poset", "euler_check", "build_klr_module", "verify_klr_relations"),
    "unitary_loci": ("unitary_locus", "locus_contains", "positivity_oracle"),
}
_HOME = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = list(_HOME)


def __getattr__(name):
    # not cached here: the package reads the submodule's current binding
    if name not in _HOME:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(importlib.import_module(f".{_HOME[name]}", __name__), name)


def __dir__():
    return sorted(set(globals()) | set(__all__))
