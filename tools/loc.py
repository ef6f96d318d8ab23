"""Print the size of src/geoloop: lines by ``wc -l`` and code lines by ``tokenize``.

A code line holds at least one token other than a comment, a newline, an
indent or dedent, or a docstring (a string that is a statement on its own).
A token that spans lines, such as a multi-line string that is not a
docstring, counts every line it spans. Deleting docstrings or comments
therefore leaves the code-line count as it is.

    python tools/loc.py [directory]
"""

import pathlib
import sys
import tokenize

SKIP = {
    tokenize.COMMENT,
    tokenize.NEWLINE,
    tokenize.INDENT,
    tokenize.DEDENT,
    tokenize.ENDMARKER,
    tokenize.ENCODING,
}
# The tokens after which a string starts a statement of its own.
STATEMENT_START = {tokenize.NEWLINE, tokenize.INDENT, tokenize.DEDENT, tokenize.ENCODING}


def code_lines(path: pathlib.Path) -> int:
    with path.open("rb") as fh:
        # Blank and comment-only lines end in NL; dropping them leaves the tokens
        # of each statement next to one another.
        tokens = [tok for tok in tokenize.tokenize(fh.readline) if tok.type != tokenize.NL]
    lines = set()
    for prev, tok, nxt in zip([None] + tokens, tokens, tokens[1:] + [None]):
        if tok.type in SKIP:
            continue
        docstring = (
            tok.type == tokenize.STRING
            and prev.type in STATEMENT_START
            and nxt.type in (tokenize.NEWLINE, tokenize.COMMENT)
        )
        if not docstring:
            lines.update(range(tok.start[0], tok.end[0] + 1))
    return len(lines)


def main(root: str = "src/geoloop") -> None:
    files = sorted(pathlib.Path(root).glob("*.py"))
    total_wc = total_code = 0
    for path in files:
        wc, code = path.read_bytes().count(b"\n"), code_lines(path)
        total_wc, total_code = total_wc + wc, total_code + code
        print(f"{wc:6d} {code:6d}  {path}")
    print(f"{total_wc:6d} {total_code:6d}  total (wc -l, code lines)")


if __name__ == "__main__":
    main(*sys.argv[1:])
