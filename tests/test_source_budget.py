"""Every qfe module stays within the parser's first token array.

CPython 3.11's parser keeps a module's tokens in an array that doubles when
it is full, and each doubling callocs one ``Token`` per new slot.  The array
reaches 8192 slots; one more token makes it 16384, and then compiling the
module peaks about 0.45 MiB higher (tracemalloc on ``compile()``: 2.73 MiB
for src/qfe/poly.py at 8185 and at 8192 tokens, 3.17 MiB at 8194).  With
``PYTHONDONTWRITEBYTECODE=1`` every process compiles qfe from source, so
every process pays it in peak RSS.  The parser's tokens are those of
``tokenize`` less comments, NL and the encoding marker.  Since the kernels
on int vectors moved to src/qfe/kernels.py, poly.py has 6092 tokens and
kernels.py 2246.

kernels.py imports only the standard library, so no kernel reaches a ring
or a polynomial: those stay in poly.py.
"""

import ast
import io
import sys
import tokenize
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src" / "qfe"
PARSER_TOKENS = 8192
UNPARSED = {tokenize.COMMENT, tokenize.NL, tokenize.ENCODING}


def parser_tokens(source: bytes) -> int:
    return sum(tok.type not in UNPARSED
               for tok in tokenize.tokenize(io.BytesIO(source).readline))


def test_counts_what_the_parser_reads():
    assert parser_tokens(b"a = 1  # note\n\nb\n") == 7
    assert parser_tokens(b"if a:\n    b\n") == 9


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_module_fits_the_parser_token_array(path):
    n = parser_tokens(path.read_bytes())
    assert n <= PARSER_TOKENS, (
        f"{path.name} has {n} parser tokens, past {PARSER_TOKENS}: CPython "
        f"3.11's parser then doubles its token array to {2 * PARSER_TOKENS} "
        f"slots, and every process that compiles the module from source peaks "
        f"about 0.45 MiB higher; shrink or split the module")


def test_kernels_import_only_the_standard_library():
    tree = ast.parse((SRC / "kernels.py").read_bytes())
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            assert not node.level, f"line {node.lineno}: relative import in kernels.py"
            names = [node.module]
        elif isinstance(node, ast.Import):
            names = [alias.name for alias in node.names]
        else:
            continue
        for name in names:
            top = name.partition(".")[0]
            assert top != "qfe" and top in sys.stdlib_module_names, (
                f"line {node.lineno}: kernels.py imports {name}, not the standard library")
