"""Exception hierarchy shared across the toolkit, the reader of input files, and config types.

An unreadable input file is an error of the class its reader picks, worded here only:
``cannot read [<kind> ]<path>: <reason>`` (the system's reason, or the codec's for text
not UTF-8), ``<path> is not valid JSON: <reason>`` or ``<path> holds a JSON list, not an
object``.  ``InvalidInput``: corpus, query diff and run files; ``ConfigError``: experiment
and provider configs, templates; ``CorruptIndex``: index files.
"""

import json
from contextlib import contextmanager


class CoracmgError(Exception):
    """Base class for all toolkit errors."""


class MalformedDiff(CoracmgError):
    """A unified diff could not be parsed; carries the byte offset of the bad hunk header."""

    def __init__(self, message: str, offset: int):
        super().__init__(f"{message} (byte offset {offset})")
        self.offset = offset


class RepoNotFound(CoracmgError):
    pass


class BranchNotFound(CoracmgError):
    pass


class EmptyCorpus(CoracmgError):
    pass


class CorpusTooSmall(CoracmgError):
    pass


class DimensionMismatch(CoracmgError):
    pass


class CorruptIndex(CoracmgError):
    """An index directory is missing, unreadable, of another version, or inconsistent."""

    def __init__(self, problem: str):
        super().__init__(f"{problem}; rebuild the index with `coracmg index`")


class InvalidInput(CoracmgError):
    """An input file or directory lacks what the command reads from it."""


class ConfigError(CoracmgError):
    """A config file, template or command-line option is unreadable, incomplete or invalid."""


class EmptyScope(CoracmgError):
    """No admissible retrieval candidates remain in the scoped partition."""


class ProviderUnavailable(CoracmgError):
    """A model provider kept failing after the configured retries."""


class EmptyGeneration(CoracmgError):
    """Post-processing of a provider response yielded no usable text."""


class EmptyQuery(CoracmgError):
    pass


class TooManyExamples(CoracmgError):
    pass


class ManifestMismatch(CoracmgError):
    """Experiment results being combined were not produced from the same subset."""


@contextmanager
def reading(path, error: type[CoracmgError], what: str = ""):
    """Raise ``error("cannot read <what><path>: <reason>")`` if the block fails to read."""
    try:
        yield
    except (OSError, UnicodeDecodeError) as exc:  # any other error, a named one too, passes
        raise error(f"cannot read {what}{path}: {getattr(exc, 'strerror', None) or exc}") from None


def read_bytes(path, error: type[CoracmgError], what: str = "") -> bytes:
    with reading(path, error, what), open(path, "rb") as fh:
        return fh.read()


def read_text(path, error: type[CoracmgError], what: str = "") -> str:
    with reading(path, error, what), open(path, encoding="utf-8") as fh:
        return fh.read()


def read_json(path, error: type[CoracmgError], what: str = "") -> dict:
    """The JSON object in the file's UTF-8 text; any other content is an ``error``."""
    try:
        value = json.loads(read_bytes(path, error, what).decode("utf-8"))
    except ValueError as exc:  # not UTF-8, or not JSON
        raise error(f"{what}{path} is not valid JSON: {exc}") from None
    if not isinstance(value, dict):
        kinds = {list: "list", str: "string", bool: "boolean", int: "number", float: "number"}
        raise error(f"{what}{path} holds a JSON {kinds.get(type(value), 'null')}, not an object")
    return value


# What a config value of each annotated type may be.  bool is a subclass of
# int, and a JSON true is never a count, a number or a path.
_ACCEPTED = {
    "str": (str, "a string"),
    "int": (int, "an integer"),
    "float": ((int, float), "a number"),
}


def check_type(name: str, value, annotation: str) -> None:
    """Raise :class:`ConfigError` unless ``value`` fits ``annotation``.

    ``annotation`` is ``"str"``, ``"int"`` or ``"float"``, optionally with
    ``" | None"``; a float takes an int, and no string is read as a number.
    """
    kind = annotation.removesuffix(" | None")
    if value is None and kind != annotation:
        return
    types, what = _ACCEPTED[kind]
    if isinstance(value, bool) or not isinstance(value, types):
        raise ConfigError(f"{name} must be {what}, not {value!r}")
