"""The grammar the text formats share.

The input formats (workflow, cluster, scenario, matrix overrides and
capability profiles) are directive lines, with blanks and ``#`` comments
skipped, and an error about one line of any format is a ``LineError``.
A directive that sets one value of the file (a name, a size, a seed) may
appear once; a repeat is a line error, not a silent override.
``int()`` alone accepts spellings that no writer of these formats emits
(surrounding whitespace, ``_`` separators, non-ASCII digits), so every
parser reads its integer fields through ``parse_decimal`` instead.
"""


class LineError(Exception):
    """An error about one line of a text file.  ``str()`` reads
    ``<prefix> N: <message>`` and ``.line`` is N; each format's line error
    also derives from its own module's base error."""

    prefix = "line"

    def __init__(self, line: int, message: str):
        super().__init__(f"{self.prefix} {line}: {message}")
        self.line = line


def directive_lines(text: str) -> list[tuple[int, str]]:
    """(line number, stripped line) of each line that is neither blank nor
    a ``#`` comment."""
    return [
        (lineno, line)
        for lineno, line in enumerate(map(str.strip, text.splitlines()), start=1)
        if line and not line.startswith("#")
    ]


def key_values(
    parts: list[str], keys: tuple[str, ...], line: int, error: type[LineError]
) -> dict[str, str]:
    """``parts``, each ``key=value``, as a dict that names every one of
    ``keys``; raises ``error`` otherwise.  Callers pass one part per key,
    so an unknown or repeated key leaves a key of ``keys`` missing."""
    kv = {}
    for part in parts:
        key, eq, value = part.partition("=")
        if not eq:
            raise error(line, f"expected key=value, got {part!r}")
        kv[key] = value
    missing = [k for k in keys if k not in kv]
    if missing:
        raise error(line, f"missing keys: {missing}")
    return kv


def set_once(
    first_lines: dict[str, int], directive: str, line: int, error: type[LineError]
) -> None:
    """Note in ``first_lines`` that ``line`` sets ``directive``, which a
    file may set only once; raises ``error`` when an earlier line set it."""
    first = first_lines.setdefault(directive, line)
    if first != line:
        raise error(line, f"{directive!r} repeated; first set on line {first}")


def line_int(text: str, line: int, key: str, error: type[LineError]) -> int:
    """The integer field ``key`` of a directive line; raises ``error``
    when ``text`` is not an optionally signed run of ASCII digits."""
    try:
        return parse_decimal(text, key=key)
    except ValueError as exc:
        raise error(line, str(exc)) from None


def parse_decimal(text: str, canonical: bool = False, key: str = "value") -> int:
    """The value of field ``key``, ``text``, as an optionally signed run of
    ASCII digits; raises ValueError ``<key> is not an integer: <text!r>``.

    With ``canonical`` only the spelling ``str(n)`` gives is accepted:
    ``0`` or ``-?[1-9][0-9]*``, with no ``+`` and no leading zero.  That is
    the grammar of the files the engine writes (event logs and traces),
    where a parsed line must re-render to its own bytes, and anything else
    raises int()'s ValueError or ``not a canonical integer``.
    """
    if canonical:
        value = int(text)
        if str(value) != text:
            raise ValueError(f"not a canonical integer: {text!r}")
        return value
    # isdigit alone also admits non-ASCII digits, which isascii refuses
    if text.isdigit() and text.isascii():
        return int(text)
    if text[:1] in ("+", "-") and text[1:].isdigit() and text.isascii():
        return int(text)
    raise ValueError(f"{key} is not an integer: {text!r}")


def fold_name(name: str) -> str:
    """``name`` stripped and in lower case, for matching a wire name in any
    ASCII case.  Outside ASCII, case mappings carry other letters onto ASCII
    ones (``ſ`` upper-cases to ``S``, ``ı`` to ``I``, the Kelvin sign
    lower-cases to ``k``), so a name that is not ASCII folds to ``""``,
    which spells no wire name."""
    return name.strip().lower() if name.isascii() else ""
