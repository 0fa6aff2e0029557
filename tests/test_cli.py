import contextlib
import io
import json
import os
import shlex
import subprocess
import sys
import tempfile
from pathlib import Path

import pytest

from ptslab.cli import main, search_counterexample
from ptslab import Atom, models, parse_formula

DATA = Path(__file__).parent / "data"


def run(capsys, *argv):
    code = main([str(x) for x in argv])
    out = capsys.readouterr().out
    return code, out


def test_derive_exit_codes(capsys):
    code, _ = run(capsys, "derive", DATA / "two_rule.base", "q")
    assert code == 0
    code, _ = run(capsys, "derive", DATA / "empty.base", "p")
    assert code == 1


def test_models_holds(capsys):
    code, out = run(capsys, "models", DATA / "two_rule.base", "a | ~a")
    assert code == 0 and "holds" in out


def test_models_with_context(capsys):
    code, _ = run(capsys, "models", DATA / "empty.base", "p", "bot")
    assert code == 0  # unobtainable context member
    code, _ = run(capsys, "models", DATA / "empty.base", "p")
    assert code == 1


def test_consequence_base_variant(capsys):
    code, _ = run(capsys, "consequence", "base", "a | ~a",
                  "--family", "enumerate:atoms=2,rules=2")
    assert code == 0
    code, _ = run(capsys, "consequence", "base", "a",
                  "--family", "enumerate:atoms=1,rules=1")
    assert code == 1


def test_consequence_validity_variants(capsys):
    fam = ["--family", "enumerate:atoms=1,rules=1"]
    assert run(capsys, "consequence", "delta", "a | ~a", *fam)[0] == 0
    assert run(capsys, "consequence", "delta-sh", "a | ~a", *fam)[0] == 0
    assert run(capsys, "consequence", "delta-s", "a | ~a", *fam)[0] == 2


def test_unread_flags_are_rejected():
    # each command registers only the options it reads
    base, rules = DATA / "two_rule.base", DATA / "detour.rules"
    redex, contractum = DATA / "redex.struct", DATA / "contractum.struct"
    for argv in (
        ["derive", base, "q", "--max-steps", "3"],
        ["derive", base, "q", "--sigma-pool", redex],
        ["models", base, "q", "--extensions", rules],
        ["reduce", rules, redex, contractum, "--sigma-pool", redex],
        ["reduce", rules, redex, contractum, "--extensions", rules],
    ):
        with pytest.raises(SystemExit) as exc:
            main([str(x) for x in argv])
        assert exc.value.code == 3


def test_reduce_command(capsys):
    code, _ = run(capsys, "reduce", DATA / "detour.rules", DATA / "redex.struct",
                  DATA / "contractum.struct")
    assert code == 0
    code, _ = run(capsys, "reduce", DATA / "detour.rules", DATA / "redex.struct",
                  DATA / "contractum.struct", "--max-steps", "0")
    assert code == 1


def test_valid_command(capsys):
    code, out = run(capsys, "valid", DATA / "redex.struct", DATA / "detour.rules",
                    DATA / "abc.base")
    assert code == 0, out
    code, _ = run(capsys, "valid", DATA / "redex.struct", DATA / "detour.rules",
                  DATA / "empty.base")
    assert code == 1


def test_valid_on_a_leaf_bound_outside_a_vacuous_inner_discharge(capsys, tmp_path):
    # the inner impI discharges label 1 vacuously; the leaf is bound by the root
    struct = tmp_path / "shadow.struct"
    struct.write_text(
        '(inf impI "a -> a" (inf k "a" (assume "a" :label 1)'
        ' (inf impI "b -> a" (inf x "a" (empty)) :discharge (1))) :discharge (1))\n'
    )
    (tmp_path / "none.rules").write_text("")
    (tmp_path / "a.base").write_text("-> a\n")
    code, out = run(capsys, "valid", struct, tmp_path / "none.rules", tmp_path / "a.base")
    assert code in (0, 1, 2), out


def test_search_command(capsys):
    code, out = run(capsys, "search", "p -> q", "--atoms", "p,q", "--max-rules", "1")
    assert code == 1 and "{-> p}" in out
    code, _ = run(capsys, "search", "a | ~a", "--atoms", "a", "--max-rules", "2")
    assert code == 0


def test_search_counterexample_op():
    p, q = Atom("p"), Atom("q")
    found = search_counterexample((), parse_formula("p -> q"), [p, q], 1)
    assert found is not None and found.id == "{-> p}"
    assert not models(found, (), parse_formula("p -> q"))
    assert search_counterexample((), parse_formula("p"), [p], 1).id == "{}"
    assert search_counterexample((), parse_formula("a | ~a"), [Atom("a")], 2) is None


def test_negative_rule_counts_are_input_errors(capsys):
    assert main(["search", "p", "--atoms", "p", "--max-rules", "-1"]) == 3
    assert "non-negative" in capsys.readouterr().err
    assert main(["consequence", "base", "p", "--family", "enumerate:atoms=1,rules=-1"]) == 3
    assert "non-negative" in capsys.readouterr().err
    # with no rules the family is the empty base, on which p fails
    assert run(capsys, "search", "p", "--atoms", "p", "--max-rules", "0") == (1, "counterexample: {}\n")


def test_consequence_needs_a_family(capsys):
    for argv in (["consequence", "base", "p"], ["consequence", "base", "p", "--family"],
                 ["consequence", "delta", "p", "--family"]):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 3
        assert "--family" in capsys.readouterr().err
    # a demo falls back to its own family
    code, out = run(capsys, "demo", "graph", "--family")
    assert code == 0 and out.count("graph witness on") == 4


def test_demos_pass(capsys):
    for name in ("detour", "chain", "graph"):
        code, _ = run(capsys, "demo", name)
        assert code == 0, name
    code, out = run(capsys, "demo", "em", "--family", "enumerate:atoms=1,rules=1")
    assert code == 0
    assert out.count("excluded middle on") == 4  # one witness line per base


def test_lines_format_parses_back(capsys):
    code, out = run(capsys, "models", DATA / "two_rule.base", "q | s", "--format", "lines")
    assert code == 0
    rec = json.loads(out.strip())
    assert rec == {
        "record": "result",
        "command": "models",
        "base": "two_rule",
        "context": [],
        "goal": "q | s",
        "holds": True,
    }


def test_lines_format_demo_records(capsys):
    code, out = run(capsys, "demo", "em", "--family", "enumerate:atoms=1,rules=1",
                    "--format", "lines")
    assert code == 0
    records = [json.loads(line) for line in out.strip().splitlines()]
    assert all(r["record"] == "demo" and r["name"] == "em" for r in records)
    assert all(r["status"] == "valid" for r in records)
    arms = {r["arm"] for r in records}
    assert "em_refute" in arms and any(a.startswith("em_assert") for a in arms)


def test_usage_error_exit_code():
    with pytest.raises(SystemExit) as exc:
        main(["bogus"])
    assert exc.value.code == 3


def test_parse_error_exit_code(capsys, tmp_path):
    bad = tmp_path / "bad.base"
    bad.write_text("p q r\n", encoding="utf-8")
    code = main(["derive", str(bad), "p"])
    assert code == 3
    err = capsys.readouterr().err
    assert "line 1" in err


def test_missing_file_exit_code(capsys):
    assert main(["derive", "no/such/file.base", "p"]) == 3


def test_valid_command_pool_flags(capsys, tmp_path):
    pool = tmp_path / "pool.structs"
    pool.write_text('(inf cls "a | b" (inf atm "a" (empty)))\n', encoding="utf-8")
    code, _ = run(capsys, "valid", DATA / "redex.struct", DATA / "detour.rules",
                  DATA / "abc.base", "--sigma-pool", pool)
    assert code == 0
    code, _ = run(capsys, "valid", DATA / "redex.struct", DATA / "detour.rules",
                  DATA / "abc.base", "--extensions", DATA / "detour.rules")
    assert code == 0


def test_family_enumeration_cap_is_a_clean_error(capsys):
    code = main(["consequence", "base", "a", "--family", "enumerate:atoms=4,rules=9"])
    assert code == 3
    assert "cap" in capsys.readouterr().err


def test_enumerate_atom_counts_outside_the_alphabet_are_input_errors(capsys):
    # atoms are named a..z, so a count must lie in 0..26
    for n in (-1, 27, 30):
        code = main(["consequence", "base", "a", "--family", f"enumerate:atoms={n},rules=1"])
        assert code == 3
        assert f"between 0 and 26, got {n}" in capsys.readouterr().err
    # the largest count is read, and its family is refused by the cap before it is built
    assert main(["consequence", "base", "a", "--family", "enumerate:atoms=26,rules=1"]) == 3
    assert "cap" in capsys.readouterr().err


def test_too_deep_formula_is_an_input_error(capsys):
    code, out = run(capsys, "search", "~" * 100 + "a", "--atoms", "a", "--max-rules", "1")
    assert code == 1 and out == "counterexample: {}\n"
    for depth in (101, 2000):
        assert main(["search", "~" * depth + "a", "--atoms", "a"]) == 3
        assert "nested more than 100 levels" in capsys.readouterr().err


def test_too_deep_structure_text_is_an_input_error(capsys, tmp_path):
    deep = tmp_path / "deep.struct"
    deep.write_text('(inf s "a" ' * 3000 + '(inf atm "a" (empty))' + ")" * 3000, encoding="utf-8")
    code = main(["valid", str(deep), str(DATA / "detour.rules"), str(DATA / "abc.base")])
    assert code == 3
    assert f"{deep}: 1:" in capsys.readouterr().err  # the reader names the file and the position
    code = main(["valid", str(DATA / "redex.struct"), str(DATA / "detour.rules"), str(DATA / "abc.base"),
                 "--sigma-pool", str(deep)])
    assert code == 3 and "nested more than 150 levels deep" in capsys.readouterr().err


def test_same_stem_bases_count_by_content(capsys, tmp_path):
    # two files named x.base: `a` fails on the empty one in either order
    (tmp_path / "d1").mkdir()
    (tmp_path / "d2").mkdir()
    (tmp_path / "d1" / "x.base").write_text("-> a\n", encoding="utf-8")
    (tmp_path / "d2" / "x.base").write_text("", encoding="utf-8")
    orders = ([tmp_path / "d1" / "x.base", tmp_path / "d2" / "x.base"],
              [tmp_path / "d2" / "x.base", tmp_path / "d1" / "x.base"])
    for variant in ("delta", "base"):
        outs = []
        for files in orders:
            code, out = run(capsys, "consequence", variant, "a", "--family", *files)
            assert code == 1, (variant, out)
            outs.append(out)
        assert outs[0] == outs[1]
    code, out = run(capsys, "consequence", "delta-star", "a | ~a", "--family", *orders[0])
    assert code == 0 and "over 2 base(s)" in out


def test_equal_base_files_count_once(capsys, tmp_path):
    for name in ("one", "two"):
        (tmp_path / f"{name}.base").write_text("-> a\n", encoding="utf-8")
    code, out = run(capsys, "consequence", "delta", "a", "--format", "lines",
                    "--family", tmp_path / "two.base", tmp_path / "one.base")
    rec = json.loads(out)
    assert code == 0 and rec["family_size"] == 1 and "all 1 base(s)" in rec["reason"]


def test_importing_the_cli_loads_neither_dataclasses_nor_inspect():
    # every query is one process, which pays for every module the import adds
    code = "import sys; before = set(sys.modules); import ptslab.cli; print(*sorted(set(sys.modules) - before))"
    src = Path(__file__).resolve().parent.parent / "src"
    env = dict(os.environ, PYTHONPATH=str(src), PYTHONDONTWRITEBYTECODE="1")
    done = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=env, timeout=60)
    assert done.returncode == 0, done.stderr
    added = set(done.stdout.split())
    assert "ptslab.cli" in added
    assert not added & {"dataclasses", "inspect", "json", "string"}


# The transcript: every `$ ptslab ...` line of tests/data/cli_transcript.txt is
# run in-process, and its stdout and exit code must read as recorded below it.
# `{data}` stands for tests/data and `{tmp}` for a directory holding TMP_FILES.
# After a deliberate change of output, rewrite the file with
# `PYTHONPATH=src python tests/test_cli.py`.

TRANSCRIPT = DATA / "cli_transcript.txt"
TMP_FILES = {
    "bad.base": "p q\n",
    "bad.rules": 'phi: (inf orE "?B" => (plug\n',
    "pool.structs": '(inf cls "a | b" (inf atm "a" (empty)))\n',
    "d1/x.base": "-> a\n",
    "d2/x.base": "",
}


def _rerun_transcript(text: str, tmp: Path) -> str:
    """The transcript with the output of every command in text as it is now."""
    for rel, body in TMP_FILES.items():
        (tmp / rel).parent.mkdir(parents=True, exist_ok=True)
        (tmp / rel).write_text(body, encoding="utf-8")
    out = []
    for line in text.splitlines():
        if line.startswith("#"):
            out.append(line + "\n")
        elif line.startswith("$ ptslab "):
            argv = [word.replace("{data}", str(DATA)).replace("{tmp}", str(tmp))
                    for word in shlex.split(line[len("$ ptslab "):])]
            stdout = io.StringIO()
            with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(io.StringIO()):
                try:
                    code = main(argv)
                except SystemExit as e:
                    code = e.code
            out.append(f"{line}\n{stdout.getvalue()}[exit {code}]\n")
    return "".join(out)


def test_cli_transcript(tmp_path):
    recorded = TRANSCRIPT.read_text(encoding="utf-8")
    assert _rerun_transcript(recorded, tmp_path) == recorded


if __name__ == "__main__":
    with tempfile.TemporaryDirectory() as tmp:
        TRANSCRIPT.write_text(_rerun_transcript(TRANSCRIPT.read_text(encoding="utf-8"), Path(tmp)),
                              encoding="utf-8")
