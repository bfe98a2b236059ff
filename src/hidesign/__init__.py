"""Harmonic-index spherical designs.

A point set X on the unit sphere S^{n-1} has harmonic index t when every
degree-t harmonic homogeneous polynomial sums to zero over X.  This package
evaluates the associated reproducing kernels, constructs and verifies such
designs (including the lift of a circle design to the sphere), computes the
Fisher-type cardinality bound with its Bessel-function large-degree limit,
and runs the exact feasibility tests that rule out minimum-size designs.
The public API is each module's ``__all__``, re-exported here; importing the
package runs no module, so numpy loads only with the float work.
"""

import importlib.util as _util
import sys as _sys

__version__ = "0.1.0"

_MODULES = ("bounds", "designs", "exactnum", "orthopoly", "tightness")

for _name in _MODULES:  # registered in sys.modules, each run on its first attribute access
    _spec = _util.find_spec(f"{__name__}.{_name}")
    _spec.loader = _util.LazyLoader(_spec.loader)
    _sys.modules[_spec.name] = globals()[_name] = _util.module_from_spec(_spec)
    _spec.loader.exec_module(globals()[_name])


def __getattr__(name: str):
    # a private, submodule (asked for before hidesign.cli is imported) or dotted name loads no module
    if name == "__all__":  # what ``from hidesign import *`` binds
        return [*_MODULES, *(key for mod in _MODULES for key in globals()[mod].__all__)]
    if name.isidentifier() and not name.startswith("_") and _util.find_spec(f"{__name__}.{name}") is None:
        for mod in _MODULES:
            if name in globals()[mod].__all__:
                value = globals()[name] = getattr(globals()[mod], name)
                return value
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__() -> list:  # the names of the star-importing package: hidesign.cli too once imported
    names = {key for key in globals() if not key.startswith("_") or key.startswith("__")}
    return sorted(names - {"__getattr__", "__dir__"} | set(__getattr__("__all__")))
