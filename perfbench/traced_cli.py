"""Run one `dysonmap` CLI command with the layer tracer installed.

Usage: python3 traced_cli.py TRACE_DIR INVOCATION_ID CLI_ARGS...

Equivalent to the `dysonmap` console script, except that spans and call
counts are written to TRACE_DIR (see tracer.py).  Exits with the CLI's code.
"""

import sys

from tracer import Tracer


def main(argv):
    trace_dir, invocation, cli_args = argv[0], argv[1], argv[2:]
    tracer = Tracer(trace_dir, invocation)
    tracer.install()
    import dysonmap.cli

    try:
        return dysonmap.cli.main(cli_args)
    finally:
        tracer.flush()
        tracer.uninstall()


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
