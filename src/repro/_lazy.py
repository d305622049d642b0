"""Lazy package re-exports (PEP 562).

A package ``__init__`` that re-exports names from its submodules would,
done eagerly, import and compile every one of those submodules whenever
any of them is needed.  Instead it declares which submodule defines
each name and installs the module-level ``__getattr__``/``__dir__``
pair :func:`lazy_exports` returns::

    __getattr__, __dir__ = lazy_exports(__name__, {
        "repro.obs.tracer": ("NullTracer", "Tracer"),
    })

The first access to a name imports its defining submodule and caches
the value in the package's globals, so ``__getattr__`` runs at most
once per name.  A name outside the table that names a submodule
(``repro.sim``) is imported as that submodule; anything else raises
:class:`AttributeError`.  mypy does not follow ``__getattr__``, so each
package also imports the same names under ``if TYPE_CHECKING:``.
"""

from __future__ import annotations

import sys
import typing as _t


def _import(module: str) -> _t.Any:
    # ``__import__`` rather than ``importlib.import_module``: only the
    # former is logged by ``python -X importtime``.
    __import__(module)
    return sys.modules[module]


def lazy_exports(
    package: str, exports: _t.Mapping[str, _t.Iterable[str]]
) -> tuple[_t.Callable[[str], _t.Any], _t.Callable[[], list[str]]]:
    """``__getattr__`` and ``__dir__`` for ``package``.

    ``exports`` maps each defining submodule to the names the package
    re-exports from it.
    """
    namespace = sys.modules[package].__dict__
    source = {
        name: module for module, names in exports.items() for name in names
    }

    def __getattr__(name: str) -> _t.Any:
        module = source.get(name)
        if module is not None:
            value = getattr(_import(module), name)
        else:
            submodule = f"{package}.{name}"
            try:
                value = _import(submodule)
            except ModuleNotFoundError as exc:
                if exc.name != submodule:
                    raise
                raise AttributeError(
                    f"module {package!r} has no attribute {name!r}"
                ) from None
        namespace[name] = value
        return value

    def __dir__() -> list[str]:
        return sorted(set(namespace) | set(source))

    return __getattr__, __dir__
