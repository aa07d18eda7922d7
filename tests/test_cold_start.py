"""Each entry point imports only the layers its work calls.

Without a bytecode cache, every module a process imports is compiled in that
process, so each module an entry point leaves out is start-up time saved on
every CLI call.  The names that load lazily (`limfuse.Rat`, `RatFunc`,
`Poly`; `limfuse.dirlim.run_selftest`, `SelftestResult`, `system_to_json`,
`system_from_json`; `limfuse.cli.run_selftest`) still resolve to the objects
they name.  A CLI call the command table matches leaves argparse out; help
and errors load it.  Every check runs in a fresh interpreter, as a CLI call
does.
"""

import os
import subprocess
import sys
import textwrap
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src"


def _run(code: str) -> str:
    """Stdout of `code` in a fresh interpreter that imports limfuse from src/."""
    env = {**os.environ, "PYTHONPATH": str(SRC)}
    return subprocess.run([sys.executable, "-c", textwrap.dedent(code)], env=env,
                          capture_output=True, text=True, timeout=120, check=True).stdout


def _loaded_after(statement: str) -> set[str]:
    """The limfuse modules in sys.modules after `statement` runs in a fresh
    interpreter."""
    out = _run(f"{statement}\nimport sys\nprint(*(m for m in sys.modules if m.startswith('limfuse')))")
    return set(out.split())


def test_cli_leaves_dirlim_out():
    loaded = _loaded_after("import limfuse.cli")
    assert "limfuse.cli" in loaded and "limfuse.exact" in loaded
    assert sorted(m for m in loaded if m.startswith("limfuse.dirlim")) == []


def test_dirlim_leaves_exact_serialize_selftest_and_randgen_out():
    loaded = _loaded_after("import limfuse.dirlim")
    assert "limfuse.dirlim.system" in loaded
    left_out = ["limfuse.exact", "limfuse.dirlim.selftest", "limfuse.dirlim.serialize", "limfuse.dirlim.randgen"]
    assert sorted(m for m in loaded if m.startswith(tuple(left_out))) == []


def test_dirlim_selftest_loads_dirlim_on_first_use():
    loaded = _loaded_after("import limfuse.cli as cli; cli.main(['dirlim-selftest', '--cases', '1'])")
    assert {"limfuse.dirlim.selftest", "limfuse.dirlim.randgen"} <= loaded


def _argparse_loaded_after(argv: list[str]) -> bool:
    """Whether `main(argv)`, its output swallowed, leaves argparse in sys.modules."""
    out = _run(f"""
        import contextlib, io, sys
        import limfuse.cli as cli
        with contextlib.redirect_stdout(io.StringIO()), contextlib.suppress(SystemExit):
            cli.main({argv!r})
        print('argparse' in sys.modules)
        """)
    return out == "True\n"


def test_matched_call_leaves_argparse_out():
    assert not _argparse_loaded_after(["weights", "--category", "virasoro-kp2", "--bound", "2"])


def test_help_loads_argparse():
    assert _argparse_loaded_after(["-h"])


def test_lazy_names_resolve_to_their_modules_objects():
    out = _run("""
        import limfuse
        from limfuse import Rat, RatFunc, Poly
        import limfuse.dirlim as dl
        from limfuse.dirlim import SelftestResult, run_selftest, system_from_json, system_to_json
        import limfuse.exact as exact
        import limfuse.dirlim.selftest as selftest
        import limfuse.dirlim.serialize as serialize
        from limfuse.dirlim import randgen

        assert (Rat, RatFunc, Poly) == (exact.Rat, exact.RatFunc, exact.Poly)
        assert limfuse.RatFunc is exact.RatFunc and limfuse.Poly is exact.Poly
        assert (run_selftest, SelftestResult) == (selftest.run_selftest, selftest.SelftestResult)
        assert (system_to_json, system_from_json) == (serialize.system_to_json, serialize.system_from_json)
        assert dl.run_selftest is selftest.run_selftest and dl.system_to_json is serialize.system_to_json
        assert randgen.__name__ == "limfuse.dirlim.randgen"
        assert all(hasattr(dl, name) for name in dl.__all__)
        for module in (limfuse, dl):
            try:
                module.not_a_name
            except AttributeError as e:
                print(e)
        """)
    assert out == ("module 'limfuse' has no attribute 'not_a_name'\n"
                   "module 'limfuse.dirlim' has no attribute 'not_a_name'\n")
