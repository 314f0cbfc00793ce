"""Exception hierarchy shared across the toolkit, and the type rule of config values."""


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
