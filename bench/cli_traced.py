"""Run one s3sr CLI command with the benchmark's tracer installed.

Usage: python3 bench/cli_traced.py DUMP.json <s3sr cli arguments...>

Used by the traced run of cli_session in place of `python -m s3sr.cli`.
Writes the tracer's spans and totals to DUMP.json and exits with the
command's exit code.
"""

import sys

import s3sr.cli

import tracer

# spans kept per command, so the dump written at exit stays small
CHILD_SPAN_CAP = 20_000


def main():
    dump, argv = sys.argv[1], sys.argv[2:]
    t = tracer.Tracer(span_cap=CHILD_SPAN_CAP)
    t.install()
    t.begin_op(0, name="cli.main")
    try:
        return s3sr.cli.main(argv)
    finally:
        t.end_op()
        t.write(dump)


if __name__ == "__main__":
    sys.exit(main())
