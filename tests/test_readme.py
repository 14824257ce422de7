"""The README's library example runs as written, and the package exports
exactly the names it uses, so that removing an API cannot leave the
documentation stale."""
import contextlib
import inspect
import io
import os
import re
import subprocess
import sys
from pathlib import Path

import steerlab as sl

README = Path(__file__).resolve().parents[1] / "README.md"


def library_code() -> str:
    text = README.read_text(encoding="utf-8")
    library = text[text.index("\n## Library\n"):]
    return re.search(r"```python\n(.*?)```", library, re.S).group(1)


def test_library_example_runs():
    code = library_code()
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        exec(compile(code, "README.md (Library)", "exec"), {})
    assert len(out.getvalue().splitlines()) == code.count("print(")


def test_exports_are_the_library_names():
    # the package's public names, its submodules aside, are the sl. names
    # that the example uses, plus __version__
    public = {name for name, value in vars(sl).items()
              if not name.startswith("_") and not inspect.ismodule(value)}
    assert public == set(re.findall(r"\bsl\.(\w+)", library_code()))
    assert isinstance(sl.__version__, str)


def test_import_leaves_analysis_and_cli_unloaded():
    # in a fresh interpreter, `import steerlab` loads the pipeline modules only
    code = ("import sys, steerlab; "
            "print('steerlab.analysis' in sys.modules, 'steerlab.cli' in sys.modules)")
    env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(sl.__file__)))
    done = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                          text=True, timeout=60)
    assert done.returncode == 0 and done.stdout == "False False\n", done.stderr


def test_cli_loads_g17_on_its_first_csv(tmp_path):
    # in a fresh interpreter, `import steerlab.cli` and a steady report leave
    # the CSV writer's tables unbuilt; the first sweep loads them
    out = tmp_path / "s.csv"
    code = ("import contextlib, io, sys, steerlab.cli as cli\n"
            "loaded = ['steerlab.g17' in sys.modules]\n"
            "with contextlib.redirect_stdout(io.StringIO()):\n"
            "    assert cli.main(['steady']) == 0\n"
            "    loaded.append('steerlab.g17' in sys.modules)\n"
            "    assert cli.main(['sweep', '--axis-x=ta', '--x-min=0.4', '--x-max=0.6', '--nx=2',\n"
            "                     '--axis-y=tb', '--y-min=0.4', '--y-max=0.6', '--ny=2',\n"
            f"                     '--out={out}']) == 0\n"
            "print(*loaded, 'steerlab.g17' in sys.modules)")
    env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(sl.__file__)))
    done = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                          text=True, timeout=60)
    assert done.returncode == 0 and done.stdout == "False False True\n", done.stderr
    assert out.read_text().count("\n") == 5
