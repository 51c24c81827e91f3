"""Run kernelkl's CLI in this process under the tracer and save its spans.

Usage: python3 perfbench/traced_cli.py SPANS_JSON -- CLI_ARGS...

The traced counterpart of ``python -m kernelkl CLI_ARGS...``: same process
shape (a fresh interpreter that imports kernelkl), so its time per operation
compares with the untraced run's.  The exit code is the CLI's.
"""

import json
import sys

from tracing import Tracer


def main(argv):
    spans_path, sep, *cli_args = argv
    if sep != "--":
        raise SystemExit("usage: traced_cli.py SPANS_JSON -- CLI_ARGS...")
    tracer = Tracer()
    tracer.install()
    from kernelkl import cli

    with tracer.span("cli.main"):
        code = cli.main(cli_args)
    with open(spans_path, "w", encoding="utf-8") as fh:
        json.dump({"spans": tracer.records(), "missing": tracer.missing}, fh)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
