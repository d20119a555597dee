"""``repro.serve`` — zero-copy persisted structures + query service.

Three layers (see ROADMAP "build once, serve from many"):

* :mod:`repro.serve.container` — the versioned on-disk format (header
  JSON + aligned raw segments, opened via ``np.memmap``);
* :mod:`repro.serve.persist` — ``save_structure``/``load_structure``
  round-tripping fitted paper schemes bit-for-bit;
* :mod:`repro.serve.server` / :mod:`repro.serve.client` — the asyncio
  NDJSON service with micro-batched ``estimate`` calls.

Exports resolve lazily so importing :mod:`repro.metrics` (whose io
module uses the container format) never drags in the api layer.
"""

from __future__ import annotations

import importlib

_EXPORTS = {
    "Container": "repro.serve.container",
    "ContainerError": "repro.serve.container",
    "FORMAT_VERSION": "repro.serve.container",
    "read_container": "repro.serve.container",
    "write_container": "repro.serve.container",
    "DetachedMetric": "repro.serve.persist",
    "DetachedStructureError": "repro.serve.persist",
    "PERSISTABLE_SCHEMES": "repro.serve.persist",
    "UnsupportedSchemeError": "repro.serve.persist",
    "load_structure": "repro.serve.persist",
    "save_structure": "repro.serve.persist",
    "LINE_LIMIT": "repro.serve.server",
    "StructureServer": "repro.serve.server",
    "serve_structure": "repro.serve.server",
    "ServeClient": "repro.serve.client",
    "ServeError": "repro.serve.client",
}

__all__ = sorted(_EXPORTS)


def __getattr__(name: str):
    module_name = _EXPORTS.get(name)
    if module_name is None:
        raise AttributeError(f"module 'repro.serve' has no attribute {name!r}")
    return getattr(importlib.import_module(module_name), name)


def __dir__():
    return sorted(set(globals()) | set(_EXPORTS))
