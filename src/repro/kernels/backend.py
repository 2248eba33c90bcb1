"""Kernel backend detection and selection.

One executor evaluates lowered
:class:`~repro.kernels.program.KernelProgram` batches: ``"numpy"`` —
vectorised column ops over one concatenated slot vector for the whole
batch (:mod:`repro.kernels.exec_numpy`), available only when numpy is
importable (``pip install repro[numpy]``).

``"plan"`` names the per-query compiled-plan replay path (no kernel
lowering at all); it is the default and the reference every kernel
result is tested against.  ``"auto"`` resolves to numpy when it is
importable and to plan otherwise.  All backends are bit-identical by
construction — selection is purely a throughput choice.

Setting ``REPRO_DISABLE_NUMPY=1`` in the environment hides an installed
numpy, forcing the plan fallback; the CI no-numpy legs and the fallback
tests rely on it.
"""

from __future__ import annotations

import os

__all__ = [
    "HAVE_NUMPY",
    "KERNEL_BACKENDS",
    "available_backends",
    "resolve_backend",
]


def _numpy_available() -> bool:
    """Import-probe for the optional numpy dependency (env-maskable)."""
    if os.environ.get("REPRO_DISABLE_NUMPY", "") not in ("", "0"):
        return False
    try:
        import numpy  # noqa: F401
    except ImportError:
        return False
    return True


#: True when the numpy executor can be used in this process.
HAVE_NUMPY = _numpy_available()

#: Backends that evaluate lowered kernel programs (excludes ``"plan"``).
KERNEL_BACKENDS: tuple[str, ...] = ("numpy",) if HAVE_NUMPY else ()


def available_backends() -> tuple[str, ...]:
    """Every usable ``estimate_batch`` backend name, legacy path included."""
    return ("plan",) + KERNEL_BACKENDS


def resolve_backend(backend: str | None) -> str:
    """Normalise a user-facing backend knob to a concrete backend name.

    ``None`` keeps the compiled-plan replay (``"plan"``); ``"auto"``
    picks numpy when importable and plan replay otherwise.  Explicit
    names are validated: asking for ``"numpy"`` without numpy installed
    raises :class:`ValueError` instead of silently degrading.
    """
    if backend is None or backend == "plan":
        return "plan"
    if backend == "auto":
        return "numpy" if HAVE_NUMPY else "plan"
    if backend == "numpy":
        if not HAVE_NUMPY:
            raise ValueError(
                "backend 'numpy' requested but numpy is not importable "
                "(install the extra: pip install repro[numpy], or use "
                "backend='auto' to fall back automatically)"
            )
        return "numpy"
    raise ValueError(
        f"unknown estimation backend {backend!r} "
        "(expected one of: auto, plan, numpy)"
    )
