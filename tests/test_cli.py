import argparse
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
from hypothesis import given, settings
from hypothesis import strategies as st

from ptslab import Atom, cli, models, parse_formula
from ptslab.cli import main, search_counterexample
from ptslab.validity import CONSEQUENCE_VARIANTS

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


def test_consequence_on_a_derivation_longer_than_the_recursion_limit(capsys, tmp_path):
    chain = tmp_path / "chain.base"
    chain.write_text("-> p0\n" + "".join(f"p{i} -> p{i + 1}\n" for i in range(1500)))
    code, out = run(capsys, "consequence", "delta", "p1500", "--family", chain)
    assert code == 0 and "valid" in out


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


def test_an_integer_too_long_to_read_exits_3(capsys, tmp_path):
    big = tmp_path / "big.struct"
    big.write_text(f'(assume "a"\n :label {"9" * 5000})\n', encoding="utf-8")
    assert main(["valid", str(big), str(DATA / "detour.rules"), str(DATA / "abc.base")]) == 3
    assert "2:9: integer of 5000 digits is too long to read" in capsys.readouterr().err


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
    assert not added & {"dataclasses", "inspect", "json", "string", "argparse", "gettext"}


def test_python_dash_m_ptslab_runs_the_cli_without_a_warning():
    src = Path(__file__).resolve().parent.parent / "src"
    env = dict(os.environ, PYTHONPATH=str(src), PYTHONDONTWRITEBYTECODE="1")
    done = subprocess.run([sys.executable, "-m", "ptslab", "derive", str(DATA / "two_rule.base"), "q"],
                          capture_output=True, text=True, env=env, timeout=60)
    assert (done.returncode, done.stdout, done.stderr) == (0, "two_rule derives q\n", "")


def test_a_demo_reads_its_pool_files_once(capsys, tmp_path, monkeypatch):
    pool = tmp_path / "pool.structs"
    pool.write_text('(inf cls "a | b" (inf atm "a" (empty)))\n', encoding="utf-8")
    reads = []
    read_text = Path.read_text
    monkeypatch.setattr(Path, "read_text", lambda self, *a, **k: reads.append(self) or read_text(self, *a, **k))
    code, out = run(capsys, "demo", "em", "--family", "enumerate:atoms=2,rules=2", "--sigma-pool", pool)
    assert code == 0 and out.count("excluded middle on") == 65
    assert reads.count(pool) == 1


# The reader against argparse. _ArgparseOracle and argparse_oracle are the
# argparse parser the CLI had before its command table, kept as an oracle:
# on every argv built from the table, both must exit 3 or give every
# attribute a command reads the same value.


class _ArgparseOracle(argparse.ArgumentParser):
    _intermixing = False

    def parse_known_args(self, args=None, namespace=None):
        """A command takes options between its positionals too: `models BASE CTX --format lines GOAL`."""
        if self._subparsers is not None or self._intermixing:
            return super().parse_known_args(args, namespace)
        self._intermixing = True  # parse_known_intermixed_args calls back in here
        try:
            return self.parse_known_intermixed_args(args, namespace)
        finally:
            self._intermixing = False

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(3, f"{self.prog}: error: {message}\n")


def _oracle_options(sp, *, steps=False, pools=False, family=""):
    if steps:
        sp.add_argument("--max-steps", type=int, default=10, dest="max_steps")
    if pools:
        sp.add_argument("--sigma-pool", nargs="*", dest="sigma_pool", metavar="FILE")
        sp.add_argument("--extensions", nargs="*", dest="extensions", metavar="FILE")
    if family:
        sp.add_argument("--family", nargs=family, required=family == "+", metavar="SPEC")
    sp.add_argument("--format", choices=("text", "lines"), default="text")


def argparse_oracle() -> argparse.ArgumentParser:
    p = _ArgparseOracle(prog="ptslab")
    sub = p.add_subparsers(dest="command", required=True, parser_class=_ArgparseOracle)
    sp = sub.add_parser("derive")
    sp.add_argument("base")
    sp.add_argument("goal")
    _oracle_options(sp)
    sp = sub.add_parser("models")
    sp.add_argument("base")
    sp.add_argument("ctx", nargs="?")
    sp.add_argument("goal")
    _oracle_options(sp)
    sp = sub.add_parser("consequence")
    sp.add_argument("variant", choices=("base",) + CONSEQUENCE_VARIANTS)
    sp.add_argument("goal")
    sp.add_argument("--context")
    _oracle_options(sp, steps=True, pools=True, family="+")
    sp = sub.add_parser("reduce")
    sp.add_argument("rules")
    sp.add_argument("frm", metavar="from")
    sp.add_argument("to")
    _oracle_options(sp, steps=True)
    sp = sub.add_parser("valid")
    sp.add_argument("structure")
    sp.add_argument("rules")
    sp.add_argument("base")
    _oracle_options(sp, steps=True, pools=True)
    sp = sub.add_parser("search")
    sp.add_argument("goal")
    sp.add_argument("--context")
    sp.add_argument("--atoms", required=True)
    sp.add_argument("--max-rules", type=int, default=2, dest="max_rules")
    sp.add_argument("--cap", type=int, default=200_000)
    _oracle_options(sp)
    sp = sub.add_parser("demo")
    sp.add_argument("name", choices=("chain", "detour", "em", "graph"))
    _oracle_options(sp, steps=True, pools=True, family="*")
    return p


def _parsed(parse, argv):
    """The attributes parse(argv) gives, or its exit code."""
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        try:
            got = vars(parse(argv))
        except SystemExit as e:
            return e.code
    if "frm" in got:  # argparse's name for the `from` argument
        got["from"] = got.pop("frm")
    return got


def _agree(argv):
    want, got = _parsed(argparse_oracle().parse_args, argv), _parsed(cli._read, argv)
    assert got == want, argv


_VALUES = {  # sample words for each kind of argument: good ones, and odd ones
    str: (["p", "a | ~a", "x=y", "-1", "-x y", "-"], ["-q"]),
    int: (["3", "0", "-1", " 4 "], ["x", "2.5", "-"]),
    list: (["enumerate:atoms=1,rules=1", "f.base", "-2"], ["-q"]),
}


def _mostly(draw, plain, *odd):
    """plain seven times in eight, else one of odd."""
    return draw(st.sampled_from([plain] * 7 * len(odd) + list(odd)))


def _word(draw, kind):
    good, odd = (kind, ["bogus"]) if isinstance(kind, tuple) else _VALUES[kind]
    return draw(st.sampled_from(good if _mostly(draw, True, False) else odd))


def _spellings(flag, flags):
    """Ways to write a flag: whole, and its prefixes down to the shortest one
    no other flag shares, with one ambiguous prefix when there is one."""
    out = [flag]
    for n in range(len(flag) - 1, 2, -1):
        out.append(flag[:n])
        if sum(f.startswith(flag[:n]) for f in flags) > 1:
            break
    return out


@st.composite
def _argvs(draw):
    """An argv of a command in the table: its arguments, mostly all of them
    and sometimes one short or one over, and its options in any order among
    them, spelled whole, as a prefix or with =, with good and bad values,
    now and then an option it does not read, and sometimes a `--`."""
    name = draw(st.sampled_from(sorted(cli._COMMANDS)))
    read = cli._options(name)
    words = []
    for w in cli._COMMANDS[name][2].split():
        words.append(_word(draw, cli._ARGS.get(w, (str,))[0]))
    words = words[:_mostly(draw, len(words), len(words) - 1, len(words) - 2)]
    words += ["p"] * _mostly(draw, 0, 1)
    chosen = [f for f, need in read.items() if need and _mostly(draw, True, False)]
    chosen += draw(st.lists(st.sampled_from(list(read)), max_size=3))
    chosen += [_mostly(draw, None, "--max-steps", "--atoms", "--sigma-pool", "--bogus")]
    groups = []  # each option's words, and how many words after them it takes as values
    for flag in draw(st.permutations([f for f in chosen if f])):
        kind = cli._ARGS[flag][0] if flag in cli._ARGS else str
        spelled = draw(st.sampled_from(_spellings(flag, [*read, "--help"]))) if flag in read else flag
        n = draw(st.integers(0, 3)) if kind is list else _mostly(draw, 1, 0, 2)
        values = [_word(draw, kind) for _ in range(n)]
        if len(values) == 1 and draw(st.booleans()):
            groups.append(([f"{spelled}={values[0]}"], 0))
        else:
            groups.append(([spelled, *values], len(words) if kind is list else int(not values)))
    # options in any order among the arguments, which keep theirs
    slots = sorted(draw(st.lists(st.integers(0, len(words)), min_size=len(groups), max_size=len(groups))))
    argv, where, read_as_argument, taken = [name], [], [], 0
    for i, word in enumerate(words + [None]):
        while slots and slots[0] == i:
            slots.pop(0)
            group, taken = groups.pop(0)
            argv += group
        where.append(len(argv))
        read_as_argument.append(not taken)
        taken = max(taken - 1, 0)
        argv += [word] if word is not None else []
    # `--` after a word read as an argument: argparse's intermixed parse took
    # a `--` before every argument as no `--` at all
    # (test_a_double_dash_before_every_argument_ends_the_options_too)
    after = [k + 1 for k, yes in enumerate(read_as_argument[:len(words)]) if yes]
    if after and _mostly(draw, False, True):
        argv.insert(where[draw(st.sampled_from(after))], "--")
    return argv


@settings(max_examples=600, deadline=None)
@given(_argvs())
def test_the_reader_reads_as_argparse_did(argv):
    _agree(argv)


@pytest.mark.parametrize("argv", [
    ["models", "B", "C", "--format", "lines", "G"],            # options among the arguments
    ["models", "--format", "lines", "B", "G"],
    ["derive", "B", "q", "--format=lines"],                     # --opt=value
    ["derive", "B", "q", "--fo", "lines"],                      # a unique prefix
    ["derive", "B", "q", "--f=lines"],
    ["consequence", "base", "g", "--f", "x"],                   # an ambiguous one
    ["reduce", "R", "F", "T", "--max-steps", "-1"],             # a negative value
    ["reduce", "R", "F", "T", "--max-steps=-1"],
    ["derive", "B", "-1"],                                      # a negative argument
    ["derive", "B", "-x y"],                                    # an argument with a space
    ["consequence", "base", "g", "--family", "a", "b", "--context", "p"],
    ["consequence", "base", "--family", "a", "--", "g"],        # `--` ends the options
    ["derive", "B", "--", "--format"],
    ["models", "B", "--", "--format", "g"],
    ["consequence", "base", "g", "--family"],                   # + takes at least one value
    ["consequence", "base", "g"],                               # a required option
    ["search", "g", "--context", "p"],
    ["demo", "graph", "--family"],                              # * takes none
    ["demo", "em", "--family", "x", "--family", "y"],           # the last one wins
    ["derive", "B", "q", "--format", "lines", "--format", "text"],
    ["derive", "B"], ["derive"], ["derive", "a", "b", "c"], ["models", "a", "b", "c", "d"],
    ["derive", "B", "q", "--max-steps", "3"],                   # an option the command does not read
    ["derive", "B", "q", "--bogus"], ["derive", "B", "q", "-x"],
    ["reduce", "R", "F", "T", "--max-steps", "x"],              # a bad int
    ["reduce", "R", "F", "T", "--max-steps"],
    ["consequence", "bogus", "g", "--family", "f"],             # bad choices
    ["demo", "bogus"], ["derive", "B", "q", "--format", "json"],
    [], ["bogus"], ["--", "derive", "B", "q"], ["--format", "lines", "derive", "B", "q"],
])
def test_the_reader_reads_the_listed_cases_as_argparse_did(argv):
    _agree(argv)


def test_a_double_dash_before_every_argument_ends_the_options_too():
    # argparse's intermixed parse consumed such a `--` before it read the
    # arguments, so `-q` was read as an option there: exit 3
    assert _parsed(argparse_oracle().parse_args, ["derive", "--", "B", "-q"]) == 3
    assert _parsed(cli._read, ["derive", "--", "B", "-q"]) == {
        "command": "derive", "format": "text", "base": "B", "goal": "-q"}


def test_the_readme_shows_the_help_and_the_options_of_the_table(capsys):
    readme = (Path(__file__).resolve().parent.parent / "README.md").read_text(encoding="utf-8")
    with pytest.raises(SystemExit):
        main(["-h"])
    assert f"```text\n$ ptslab -h\n{capsys.readouterr().out}```\n" in readme
    for name in cli._COMMANDS:
        row = next(line for line in readme.splitlines() if line.startswith(f"| `{name}` ") and "--format" in line)
        assert row.split("|")[2].split() == [f"`{flag}`," for flag in cli._options(name)][:-1] + ["`--format`"]


def test_help_is_printed_from_the_table(capsys):
    # on stdout, exit 0; each command's help names each of its options
    argvs = [["-h"], ["--he"], ["demo", "em", "--help"], *([name, "-h"] for name in cli._COMMANDS)]
    for argv in argvs:
        with pytest.raises(SystemExit) as exc:
            main(argv)
        out = capsys.readouterr()
        assert exc.value.code == 0 and out.out.startswith("usage: ptslab ") and out.err == "", argv
        name = argv[0] if argv[0] in cli._COMMANDS else None
        assert all(f"  {flag} " in out.out for flag in (cli._options(name) if name else cli._COMMANDS)), argv


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
