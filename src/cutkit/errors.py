"""Exception hierarchy shared by the whole toolkit, and the one reader of
text files (instances, 3DM descriptions, config files).

Exit-code mapping used by the CLI: parse errors -> 1, infeasibility -> 2,
capacity -> 3, convergence -> 4.
"""


class CutkitError(Exception):
    """Base class for all toolkit errors."""

    exit_code = 1


class ParseError(CutkitError):
    """Malformed instance / matroid / 3DM file."""

    exit_code = 1

    def __init__(self, message, line=None, column=None):
        loc = ""
        if line is not None:
            loc = f"line {line}"
            if column is not None:
                loc += f", column {column}"
            loc += ": "
        super().__init__(loc + message)
        self.line = line
        self.column = column


def read_text(path: str) -> str:
    """The UTF-8 text of `path`.  A missing file raises FileNotFoundError;
    any other entry that cannot be read (a directory, a file that is not
    UTF-8) is a ParseError naming the path."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return fh.read()
    except FileNotFoundError:
        raise
    except OSError as exc:
        raise ParseError(f"cannot read {path}: {exc.strerror or exc}") from exc
    except UnicodeDecodeError as exc:
        raise ParseError(f"{path} is not UTF-8 text: byte {exc.start} {exc.reason}") from exc


class InputError(CutkitError):
    """Arguments violate an operation's preconditions."""

    exit_code = 1


class InfeasibleError(CutkitError):
    """No feasible solution exists (e.g. budget exceeds part size)."""

    exit_code = 2


class CapacityError(CutkitError):
    """Instance exceeds an enumeration or size cap."""

    exit_code = 3


class ConvergenceError(CutkitError):
    """Numerical solver failed to reach its target residuals."""

    exit_code = 4

    def __init__(self, message, primal=None, dual=None, iterations=None):
        super().__init__(message)
        self.primal = primal
        self.dual = dual
        self.iterations = iterations


class DegenerateEventError(CutkitError):
    """Conditioning on an event of (near-)zero probability."""

    exit_code = 2


class SearchFailureError(CutkitError):
    """Conditioning search exhausted its budget; carries the best candidate."""

    exit_code = 2

    def __init__(self, message, best=None):
        super().__init__(message)
        self.best = best


class StallError(CutkitError):
    """Iterative rounding made no progress within its step bound."""

    exit_code = 4
