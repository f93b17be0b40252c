"""Accept-and-ignore handling for options removed from the public surface.

Edge blocks are built by one serial plane sweep and grid cells run one
after another, so the old fan-out options (``jobs``, ``backend``,
``cell_jobs``) no longer select anything.  For one release the outermost
entry points — the CLI flags, the :class:`~repro.analysis.Analyzer` and
:class:`~repro.service.AnalysisService` keywords, :class:`GridSpec` and the
``/v1/grid`` body — still accept them, pass them nowhere, and warn through
:func:`ignore_removed_options`.
"""

from __future__ import annotations

import warnings
from typing import Mapping


def ignore_removed_options(
    where: str, options: Mapping[str, object], stacklevel: int = 3
) -> str | None:
    """Warn that the given removed ``options`` of ``where`` are ignored.

    ``None`` values count as not given; ``stacklevel`` counts from this
    function, so the default points at the caller's caller.  Returns the
    warning text (``None`` when nothing was given) so the CLI can print it
    as one stderr line.
    """
    given = [name for name, value in options.items() if value is not None]
    if not given:
        return None
    message = (
        f"{where}: {', '.join(given)} {'is' if len(given) == 1 else 'are'} "
        "ignored and will be removed in the next release"
    )
    warnings.warn(message, DeprecationWarning, stacklevel=stacklevel)
    return message
