"""The README's Python examples run and print what the README shows.

Each fenced python block is taken out of the Markdown first: run on the
whole file, doctest would read a closing fence as expected output.
"""

import doctest
import re
from pathlib import Path

README = Path(__file__).resolve().parent.parent / "README.md"
BLOCK = re.compile(r"^```python\n(.*?)^```$", re.DOTALL | re.MULTILINE)


def test_readme_python_examples_run():
    blocks = BLOCK.findall(README.read_text())
    assert blocks, "no python block in README.md"
    parser = doctest.DocTestParser()
    runner = doctest.DocTestRunner(optionflags=doctest.ELLIPSIS)
    examples = 0
    for i, text in enumerate(blocks):
        test = parser.get_doctest(text, {}, f"README.md block {i}", str(README), 0)
        examples += len(test.examples)
        runner.run(test)
    assert examples > 0
    assert runner.summarize(verbose=False).failed == 0
