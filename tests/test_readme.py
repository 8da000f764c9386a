"""README's "Library quick start" block runs as written, and each line
that ends in a `# value` comment evaluates to that value.  The value is
the comment up to its first ": ", read as a Python literal."""

import ast
import io
import pathlib
import tokenize

README = pathlib.Path(__file__).resolve().parent.parent / "README.md"


def quick_start_block():
    text = README.read_text(encoding="utf-8")
    section = text.split("## Library quick start", 1)[1]
    return section.split("```python\n", 1)[1].split("```", 1)[0]


def comments_by_line(source):
    tokens = tokenize.generate_tokens(io.StringIO(source).readline)
    return {t.start[0]: t.string for t in tokens if t.type == tokenize.COMMENT}


def test_quick_start_values_match_their_comments():
    source = quick_start_block()
    comments = comments_by_line(source)
    namespace = {}
    checked = []
    for stmt in ast.parse(source).body:
        comment = comments.get(stmt.end_lineno)
        if comment is None or not isinstance(stmt, ast.Expr):
            exec(compile(ast.Module([stmt], []), "README.md", "exec"), namespace)
            continue
        expected = ast.literal_eval(comment[1:].split(": ", 1)[0].strip())
        got = eval(compile(ast.Expression(stmt.value), "README.md", "eval"), namespace)
        assert got == expected, ast.unparse(stmt)
        checked.append(ast.unparse(stmt))
    # Every commented expression line of the block was checked.
    assert checked and len(checked) == len(comments), checked
