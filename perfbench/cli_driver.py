"""Traced CLI invocation: ``python3 cli_driver.py TRACE_FILE [pasf arguments...]``.

Times ``import pasf.cli`` in this fresh process, installs the tracer's
wrappers, calls ``pasf.cli.main`` with the arguments, and writes the
import time and every span to TRACE_FILE as one JSON object. With no
pasf arguments it only times the import. The exit code is the CLI's.

The trace file is written even when the import or the command raises
(``import_ms`` is then null and the exit code is not 0), so the caller
always gets one document per call.
"""

import json
import sys
import time


def main() -> int:
    trace_file, cli_args = sys.argv[1], sys.argv[2:]
    import_ms, tracer = None, None
    try:
        start = time.perf_counter()
        import pasf.cli

        import_ms = 1e3 * (time.perf_counter() - start)
        import tracing  # after the timed import, so its stdlib imports do not help pasf's

        tracer = tracing.Tracer(step=cli_args[0] if cli_args else "")
        if not cli_args:
            return 0
        tracer.install()
        try:
            return pasf.cli.main(cli_args)
        except SystemExit as exc:  # argparse usage errors exit through here
            return exc.code if isinstance(exc.code, int) else 1
        finally:
            tracer.uninstall()
    finally:
        with open(trace_file, "w", encoding="utf-8") as fh:
            json.dump({"import_ms": import_ms,
                       "absent": tracer.absent if tracer else [],
                       "spans": [span.to_json() for span in tracer.spans] if tracer else []}, fh)


if __name__ == "__main__":
    sys.exit(main())
