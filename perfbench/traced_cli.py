"""Run one cactusnet CLI command with the outside-in tracer installed.

Usage: python3 perfbench/traced_cli.py SPANS.jsonl --config CFG VERB [ARGS...]

The arguments after the span file go to ``cactusnet.cli.main`` unchanged;
the spans are written to SPANS.jsonl when the command returns, and the
process exits with the command's exit code.
"""

import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))

from tracer import Tracer  # noqa: E402


def main(argv):
    spans_path, cli_args = argv[0], argv[1:]
    tracer = Tracer().install()
    try:
        from cactusnet.cli import main as cli_main
        code = cli_main(cli_args)
    finally:
        tracer.uninstall()
        tracer.dump(spans_path)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
