"""Start an ``rpcheck serve`` daemon from the checkout's ``src/``.

Usage::

    python3 servebench/launcher.py [--trace-out FILE] -- <rpcheck serve args>

Without ``--trace-out`` this is plain :func:`repro.serve.daemon.serve_main`.
With it, :func:`tracing.install` wraps the layer boundaries first and the
per-request roll-ups are written to FILE when the daemon exits.
"""

from __future__ import annotations

import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path[:0] = [os.path.join(os.path.dirname(HERE), "src"), HERE]


def main(argv) -> int:
    trace_out = None
    if argv[:1] == ["--trace-out"]:
        trace_out, argv = argv[1], argv[2:]
    if argv[:1] == ["--"]:
        argv = argv[1:]
    if trace_out is not None:
        import tracing

        tracing.install()
    from repro.serve.daemon import serve_main

    code = serve_main(argv)
    if trace_out is not None:
        tracing.dump(trace_out)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
