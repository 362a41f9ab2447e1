"""The CLI under the tracer: one traced invocation of the benchmark's cli workload.

    python -m cli_child TRACE_JSON ARG...

runs ``hyperpoly.cli.run(ARG...)`` with every layer wrapped, writes the
tracer's totals to TRACE_JSON and exits with the CLI's exit code.
"""

import json
import sys

import hyperpoly.cli
from tracer import Tracer

if __name__ == "__main__":
    tracer = Tracer().install()
    code = hyperpoly.cli.run(sys.argv[2:])
    with open(sys.argv[1], "w", encoding="utf-8") as fh:
        json.dump(tracer.snapshot(), fh)
    sys.exit(code)
