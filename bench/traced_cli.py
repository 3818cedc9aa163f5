"""Run one vbodmr CLI verb under the span tracer, as a fresh process.

    python3 bench/traced_cli.py <summary.json> <verb> [cli arguments...]

Imports ``vbodmr.cli``, wraps the public functions of every layer, calls
``vbodmr.cli.main`` with the remaining arguments, writes the tracer summary
to <summary.json> and exits with the verb's exit code.
"""

import json
import sys
from pathlib import Path

import tracer as tracing
from spec import NAMED_FUNCTIONS

import vbodmr.cli  # noqa: E402  (after the bench imports, as in a plain run)

t = tracing.Tracer()
t.install(NAMED_FUNCTIONS)
t.enabled = True
try:
    code = vbodmr.cli.main(sys.argv[2:])
finally:
    t.enabled = False
    Path(sys.argv[1]).write_text(json.dumps(t.summary()), encoding="utf-8")
raise SystemExit(code)
