"""The integer grammar of the text formats.

``int()`` alone accepts spellings that no writer of these formats emits:
surrounding whitespace, ``_`` digit separators and non-ASCII digits, so a
parsed file could re-render to other bytes.  Every parser reads its integer
fields through ``parse_decimal`` instead.
"""


def parse_decimal(text: str, canonical: bool = False) -> int:
    """The value of ``text`` as an optionally signed run of ASCII digits.

    With ``canonical`` only the spelling ``str(n)`` gives is accepted:
    ``0`` or ``-?[1-9][0-9]*``, with no ``+`` and no leading zero.  That is
    the grammar of the files the engine writes (event logs and traces),
    where a parsed line must re-render to its own bytes.  Raises
    ValueError for anything else.
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
    raise ValueError(f"not an ASCII integer: {text!r}")
