"""Concrete group constructors and the buildable-group registry."""

from .builders import (
    alternating,
    cyclic,
    pgl2,
    psl2,
    psl2_semilinear,
    sl2,
    suzuki,
    suzuki_semilinear,
    twisted_m10,
    unitary3,
)
from .registry import (
    GroupRecipe,
    RegistryError,
    ValidationFailed,
    bind,
    build,
    find_recipe,
    registry_names,
)

__all__ = [
    "alternating", "cyclic", "pgl2", "psl2", "psl2_semilinear",
    "sl2", "suzuki", "suzuki_semilinear", "twisted_m10", "unitary3",
    "GroupRecipe", "RegistryError", "ValidationFailed", "bind", "build",
    "find_recipe", "registry_names",
]
