"""Supercharacter theories of parabolic subgroups of finite orthogonal and
symplectic groups, constructed and verified by exact arithmetic."""

from .algebra import CycField
from .errors import FalsificationError, ResourceGuardError, ValidationError
from .groups import GroupSpec, Parabolic, build_spec

__version__ = "0.1.0"

__all__ = [
    "CycField", "FalsificationError", "GroupSpec", "Parabolic",
    "ResourceGuardError", "ValidationError", "build_spec",
]
