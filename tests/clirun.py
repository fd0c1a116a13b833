"""Run the timescore CLI in process with its output captured."""

import contextlib
import io
from typing import NamedTuple, Sequence

from timescore.cli import main


class CliResult(NamedTuple):
    exit_code: int
    output: str  # stdout
    stderr: str


def run_cli(argv: Sequence[str]) -> CliResult:
    """Run ``main(argv)``; the exit code comes from SystemExit, or is 0 if main returns.

    Any other exception propagates to the caller.
    """
    out, err = io.StringIO(), io.StringIO()
    code = 0
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            main(argv)
        except SystemExit as exc:
            code = exc.code if isinstance(exc.code, int) else int(exc.code is not None)
    return CliResult(code, out.getvalue(), err.getvalue())
