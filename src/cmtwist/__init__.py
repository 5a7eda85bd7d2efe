"""Exact arithmetic for abelian CM fields, CM-types, character twists,
and connectedness-extension degree certificates."""

__version__ = "0.4.1"

from .fields import (
    AbelianField,
    compositum,
    cyclotomic,
    field_from,
    is_cm,
    is_subfield,
    maximal_real_subfield,
    quadratic,
    roots_of_unity_order,
)
from .cmtypes import (
    CMType,
    WeilDatum,
    is_weil_type,
    reflex,
    restriction_multiplicities,
    stabilizer,
    validate_cm_type,
    weil_datum,
    weil_r,
)
from .twists import (
    Conclusion,
    discond_groups,
    twist_e,
    twist_x,
)
from .inertia import (
    base_certificate,
    kitself_certificate,
)

__all__ = [
    "AbelianField",
    "CMType",
    "Conclusion",
    "WeilDatum",
    "base_certificate",
    "compositum",
    "cyclotomic",
    "discond_groups",
    "field_from",
    "is_cm",
    "is_subfield",
    "is_weil_type",
    "kitself_certificate",
    "maximal_real_subfield",
    "quadratic",
    "reflex",
    "restriction_multiplicities",
    "roots_of_unity_order",
    "stabilizer",
    "twist_e",
    "twist_x",
    "validate_cm_type",
    "weil_datum",
    "weil_r",
]
