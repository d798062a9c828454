"""Command-line behaviour: reports, exit codes, determinism."""

import cProfile
import hashlib
import json
import os
import pstats
import re
import subprocess
import sys
from pathlib import Path

import pytest

import nilpc
from nilpc import abelian as ab
from nilpc import cli
from nilpc import deformation as dm
from nilpc import files
from nilpc import presentation as pc
from nilpc import refined as rf
from nilpc import scalars as sc
from nilpc import subgroups as sg
from nilpc.cli import main

from groups_def import c4, f23, graded_draws, heis, heisenberg, \
    mutated_heis, mutated_ut5, nr, unitriangular, wide_adapted, zg, zh, zk
from oracles import chain_conditions, ref_consistency_check, ref_parse_args, \
    ref_restrict_ring


@pytest.fixture
def workdir(tmp_path):
    for name, p in (("ZG", zg()), ("ZH", zh()), ("ZK", zk()),
                    ("HEIS", heis()), ("NR", nr()), ("F23", f23()),
                    ("BAD", mutated_heis())):
        files.save(p, str(tmp_path / f"{name}.json"))
    return tmp_path


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, out


ALL_COMMANDS = ("check", "analyze", "series", "scalars", "adapt", "deform",
                "enumerate", "hom", "inverse-pair", "invariants", "primes")


class TestParser:
    def test_help_names_every_command(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["--help"])
        assert exc.value.code == 0
        out = capsys.readouterr().out
        for name in ALL_COMMANDS:
            assert f"\n  {name} " in out, name

    @pytest.mark.parametrize("name", ALL_COMMANDS)
    def test_command_help(self, capsys, name):
        with pytest.raises(SystemExit) as exc:
            main([name, "--help"])
        assert exc.value.code == 0
        assert capsys.readouterr().out.startswith(f"usage: nilpc {name} ")

    def test_unknown_command(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["bogus", "file.json"])
        assert exc.value.code == 2
        assert "invalid choice: 'bogus'" in capsys.readouterr().err


# argvs both parsers read, with the same values
VALID_ARGVS = (
    ("check", "G.json"),
    ("check", "--", "G.json"),
    ("check", "-"),
    ("check", "-x y.json"),
    ("analyze", "G.json"),
    ("series", "G.json"),
    ("series", "G.json", "--kind", "refined"),
    ("series", "--kind=upper", "G.json"),
    ("series", "G.json", "--k", "upper"),
    ("series", "G.json", "--ki=refined"),
    ("series", "G.json", "--kind", "upper", "--kind", "lower"),
    ("scalars", "G.json", "--series", "upper"),
    ("scalars", "--ser", "upper", "G.json"),
    ("adapt", "G.json"),
    ("deform", "G.json", "--d", "2", "--c", "1"),
    ("deform", "--d=2,3", "--c=1,0;0,1", "G.json"),
    ("deform", "--c", "1", "G.json", "--d", "-1"),
    ("deform", "G.json", "--d=-1,2", "--c", "-1"),
    ("deform", "G.json", "--d=", "--c="),
    ("deform", "G.json", "--d", "2", "--c", "1", "--d", "3"),
    ("enumerate", "G.json"),
    ("hom", "A.json", "B.json", "--map", "m.json"),
    ("hom", "--map", "m.json", "A.json", "B.json", "--verify"),
    ("hom", "A.json", "--ma=m.json", "B.json", "--ver"),
    ("hom", "A.json", "B.json", "--map", "x.json", "--map", "m.json"),
    ("hom", "A.json", "B.json", "--verify", "--map", "m.json", "--verify"),
    ("inverse-pair", "A.json", "B.json", "--forward", "f.json",
     "--backward", "b.json"),
    ("inverse-pair", "--back", "b.json", "A.json", "--for=f.json",
     "B.json"),
    ("invariants", "G.json"),
    ("primes", "--zmod", "30"),
    ("primes", "--zmod=-5"),
    ("primes", "--z", "64"),
)

# argvs both parsers refuse, each with one usage error
INVALID_ARGVS = (
    (),
    ("bogus", "G.json"),
    ("--bogus",),
    ("--help=x",),
    ("check",),
    ("check", "G.json", "--bogus"),
    ("check", "G.json", "-x"),
    ("check", "G.json", "extra.json"),
    ("check", "G.json", "--help=x"),
    ("hom", "A.json", "B.json"),
    ("hom", "A.json", "--map", "m.json"),
    ("hom", "A.json", "B.json", "--map"),
    ("hom", "A.json", "B.json", "--map", "--verify"),
    ("hom", "A.json", "B.json", "--map", "m.json", "--verify=yes"),
    ("inverse-pair", "A.json", "B.json", "--forward", "f.json"),
    ("deform", "G.json", "--d", "2"),
    ("deform", "G.json", "--d", "x", "--c", "1"),
    ("deform", "G.json", "--d", "2", "--c", "1;x"),
    ("deform", "G.json", "--d", "-1,2", "--c", "1"),
    ("series", "G.json", "--kind"),
    ("series", "G.json", "--kind", "middle"),
    ("scalars", "G.json", "--series", "refined"),
    ("primes",),
    ("primes", "--zmod", "x"),
    ("primes", "--zmod", "30", "40"),
)

HELP_ARGVS = (("-h",), ("--help",), ("--he",), ("series", "--h"),
              ("hom", "A.json", "-h")) + tuple(
    (name, "--help") for name in ALL_COMMANDS)


def _exit_code(parse, argv):
    with pytest.raises(SystemExit) as exc:
        parse(list(argv))
    return exc.value.code


class TestParserMatchesArgparse:
    """cli._parse_args against oracles.ref_parse_args, the argparse parser
    it replaced, over a fixed corpus for all eleven commands."""

    def test_corpus_covers_every_command(self):
        assert {argv[0] for argv in VALID_ARGVS} == set(ALL_COMMANDS)

    @pytest.mark.parametrize("argv", VALID_ARGVS, ids=" ".join)
    def test_same_values(self, argv):
        args = vars(cli._parse_args(list(argv)))
        assert args.pop("handler") is cli.COMMANDS[argv[0]][0]
        assert args == vars(ref_parse_args(list(argv)))

    @pytest.mark.parametrize("argv", INVALID_ARGVS, ids=" ".join)
    def test_same_usage_error(self, capsys, argv):
        assert _exit_code(ref_parse_args, argv) == 2
        capsys.readouterr()
        assert _exit_code(cli._parse_args, argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        prog = "nilpc " + argv[0] if argv and argv[0] in cli.COMMANDS \
            else "nilpc"
        assert f"\n{prog}: error: " in captured.err

    @pytest.mark.parametrize("argv", HELP_ARGVS, ids=" ".join)
    def test_same_help_exit(self, capsys, argv):
        assert _exit_code(ref_parse_args, argv) == 0
        assert _exit_code(cli._parse_args, argv) == 0

    def test_parses_without_regular_expressions(self, monkeypatch):
        # argparse compiles fresh patterns in every process that parses,
        # which a cold command paid in milliseconds
        def refuse(*args, **kwargs):
            raise AssertionError("parsing used a regular expression")

        monkeypatch.setattr(re, "compile", refuse)
        monkeypatch.setattr(re, "match", refuse)
        for argv in REPORT_JOBS.values():
            assert cli._parse_args(list(argv)).command == argv[0]


SRC = Path(cli.__file__).resolve().parents[1]


def _python(*args):
    env = dict(os.environ, PYTHONPATH=str(SRC))
    return subprocess.run([sys.executable, *args], capture_output=True,
                          env=env, timeout=60)


class TestEntryPoint:
    def test_importing_the_cli_loads_no_argparse(self):
        out = _python("-c", "import sys, nilpc.cli; "
                      "print('argparse' in sys.modules)")
        assert out.returncode == 0
        assert out.stdout == b"False\n"

    def test_loading_a_file_loads_only_files_and_presentation(self):
        out = _python("-c", "import sys; from nilpc import files; "
                      f"files.load({str(FIXTURES / 'HEIS.json')!r}); "
                      "print(sorted(m for m in sys.modules "
                      "if m.split('.')[0] == 'nilpc'))")
        assert out.returncode == 0, out.stderr
        assert out.stdout == (b"['nilpc', 'nilpc.files', "
                              b"'nilpc.presentation']\n")

    def test_sifting_loads_no_lattice_algebra(self):
        # collecting and sifting by rows, all that the arith and family
        # set-ups ask of subgroups, solve nothing; the first constrained
        # pass loads the solver
        out = _python("-c", "import sys; import nilpc.subgroups as sg; "
                      "from nilpc.presentation import PcPresentation; "
                      f"p = {unitriangular(4)!r}; "
                      "x = tuple(range(1, p.m + 1)); "
                      "assert sg.whole_subgroup(p).coefficients_of(x); "
                      "print('nilpc.intlinalg' in sys.modules); "
                      "sg.center(p); print('nilpc.intlinalg' in sys.modules)")
        assert out.returncode == 0, out.stderr
        assert out.stdout == b"False\nTrue\n"

    def test_importing_the_cli_loads_every_package_module(self):
        # reports and family fork each job from a process that imported
        # only nilpc.cli; a module left out would compile inside every job
        out = _python("-c", "import sys, nilpc.cli; "
                      "print(sorted(m for m in sys.modules "
                      "if m.split('.')[0] == 'nilpc'))")
        modules = ["nilpc"] + sorted(f"nilpc.{p.stem}"
                                     for p in FIXTURES.parent.glob("*.py")
                                     if p.stem != "__init__")
        assert out.returncode == 0, out.stderr
        assert out.stdout == (repr(modules) + "\n").encode()

    def test_importing_the_cli_loads_no_dataclasses(self):
        # the package's records are namedtuples and slotted classes;
        # dataclasses would cost every command its import and the class
        # generation. -S: site may import it on its own
        out = _python("-S", "-c", "import sys, nilpc.cli; "
                      "print('dataclasses' in sys.modules)")
        assert out.returncode == 0, out.stderr
        assert out.stdout == b"False\n"

    def test_importing_the_cli_loads_no_importlib_resources(self):
        # -S: site can import importlib.resources on its own
        out = _python("-S", "-c", "import sys, nilpc.cli; "
                      "print('importlib.resources' in sys.modules)")
        assert out.returncode == 0, out.stderr
        assert out.stdout == b"False\n"

    def test_module_prints_the_bytes_of_main(self, capsys):
        argv = ["check", str(FIXTURES / "ZG.json")]
        code, out = run(capsys, *argv)
        child = _python("-m", "nilpc.cli", *argv)
        assert (child.returncode, code) == (0, 0)
        assert child.stdout == out.encode()

    def test_only_main_writes_a_report(self, workdir, capsys):
        # each handler returns (report, code) and prints nothing; main
        # prints the report under its command, or deform's file as it is
        ident, collapse = workdir / "id.json", workdir / "collapse.json"
        ident.write_text(files.emit_hom_map([[[1, 1]], [[2, 1]], [[3, 1]]]),
                         encoding="utf-8")
        collapse.write_text(files.emit_hom_map([[[1, 1]], [[2, 1]], []]),
                            encoding="utf-8")
        heis_file = str(workdir / "HEIS.json")
        zg_file = str(workdir / "ZG.json")
        argvs = [
            ("check", heis_file), ("check", str(workdir / "BAD.json")),
            ("analyze", zg_file), ("series", zg_file, "--kind", "refined"),
            ("scalars", heis_file), ("adapt", zg_file),
            ("deform", zg_file, "--d", "2", "--c", "1"),
            ("enumerate", zg_file),
            ("hom", heis_file, heis_file, "--map", str(ident), "--verify"),
            ("hom", heis_file, heis_file, "--map", str(collapse)),
            ("inverse-pair", heis_file, heis_file, "--forward", str(ident),
             "--backward", str(ident)),
            ("invariants", zg_file), ("primes", "--zmod", "6")]
        assert {argv[0] for argv in argvs} == set(cli.COMMANDS)
        codes = set()
        for argv in argvs:
            args = cli._parse_args(argv)
            report, code = args.handler(args)
            assert capsys.readouterr().out == "", argv
            if argv[0] == "deform":
                text = report
            else:
                text = json.dumps({"command": argv[0], **report},
                                  indent=2) + "\n"
            assert run(capsys, *argv) == (code, text), argv
            codes.add(code)
        assert codes == {0, 1}

    @pytest.mark.parametrize("argv", [("bogus",), ("check",),
                                      ("deform", "G.json", "--d", "x")])
    def test_usage_error_exits_2_without_a_traceback(self, argv):
        child = _python("-m", "nilpc.cli", *argv)
        assert child.returncode == 2
        assert child.stdout == b""
        assert b"error: " in child.stderr
        assert b"Traceback" not in child.stderr


class TestCheck:
    def test_consistent(self, workdir, capsys):
        code, out = run(capsys, "check", str(workdir / "ZG.json"))
        payload = json.loads(out)
        assert code == 0
        assert payload["consistent"] is True
        assert payload["rank"] == 10

    def test_inconsistent(self, workdir, capsys):
        code, out = run(capsys, "check", str(workdir / "BAD.json"))
        payload = json.loads(out)
        assert code == 1
        assert payload["consistent"] is False
        assert payload["failures"]

    def test_inconsistent_reports_only_the_rejected_layer(self, tmp_path,
                                                          capsys):
        # the reference fails at layers 4, 3 and 1; check lists layer 4
        path = tmp_path / "UT_5.json"
        files.save(mutated_ut5(), str(path))
        code, out = run(capsys, "check", str(path))
        assert code == 1
        want = [f for f in ref_consistency_check(mutated_ut5()).failures
                if f.i == 4]
        assert json.loads(out)["failures"] == [
            {"kind": f.kind, "j": f.j, "i": f.i, "k": f.k,
             "lhs": list(f.lhs), "rhs": list(f.rhs)} for f in want]
        assert [(f.kind, f.j, f.k) for f in want] == [("triple", 5, 7)]

    def test_boolean_rank_exits_2(self, tmp_path, capsys):
        path = tmp_path / "B.json"
        path.write_text('{"name": "B", "rank": true, "periods": [false], '
                        '"powers": {}, "commutators": {}}')
        assert main(["check", str(path)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "rank must be a non-negative integer" in captured.err

    def test_missing_file(self, workdir, capsys):
        code = main(["check", str(workdir / "NOPE.json")])
        assert code == 2

    def test_file_that_is_not_utf8_is_usage_error(self, tmp_path, capsys):
        path = tmp_path / "latin1.json"
        path.write_bytes(b'{"name": "caf\xe9"}')
        assert main(["check", str(path)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (f"error: {path}: not UTF-8 text "
                                "(byte 13: invalid continuation byte)\n")

    @pytest.mark.parametrize("rank", [files.RANK_CAP, files.RANK_CAP + 1])
    def test_rank_cap(self, tmp_path, capsys, monkeypatch, rank):
        path = tmp_path / "free.json"
        path.write_text(json.dumps({
            "name": "free", "rank": rank, "periods": [0] * rank,
            "powers": {}, "commutators": {}}))
        if rank > files.RANK_CAP:
            # refused before any consistency work starts
            monkeypatch.setattr(pc, "consistency_check", None)
        code, out = run(capsys, "check", str(path))
        assert capsys.readouterr().err == ""
        payload = json.loads(out)
        if rank > files.RANK_CAP:
            assert code == 1
            assert payload["error"] == (
                f"free: rank {rank} is above the cap of {files.RANK_CAP}")
        else:
            assert code == 0
            assert payload["consistent"] is True


class TestInvariants:
    def test_equivalent_groups_print_identical_bytes(self, workdir, capsys):
        _, out_g = run(capsys, "invariants", str(workdir / "ZG.json"))
        _, out_h = run(capsys, "invariants", str(workdir / "ZH.json"))
        _, out_k = run(capsys, "invariants", str(workdir / "ZK.json"))
        assert out_g == out_h == out_k
        payload = json.loads(out_g)
        assert payload["hirsch"] == 6
        assert payload["e"] == 5

    def test_deterministic(self, workdir, capsys):
        _, first = run(capsys, "invariants", str(workdir / "HEIS.json"))
        _, second = run(capsys, "invariants", str(workdir / "HEIS.json"))
        assert first == second


class TestDeform:
    def test_emits_zk_equal_file(self, workdir, capsys):
        code, out = run(capsys, "deform", str(workdir / "ZG.json"),
                        "--d", "2", "--c", "1")
        assert code == 0
        p = files.parse(out)
        q = zk()
        assert (p.periods, p.powers, p.commutators) == (
            q.periods, q.powers, q.commutators)

    def test_deterministic(self, workdir, capsys):
        _, first = run(capsys, "deform", str(workdir / "ZG.json"),
                       "--d", "2", "--c", "1")
        _, second = run(capsys, "deform", str(workdir / "ZG.json"),
                        "--d", "2", "--c", "1")
        assert first == second

    def test_bad_multiplier_is_mathematical_failure(self, workdir, capsys):
        code, out = run(capsys, "deform", str(workdir / "ZG.json"),
                        "--d", "5", "--c", "1")
        assert code == 1
        assert "error" in json.loads(out)

    def test_malformed_matrix_is_usage_error(self, workdir, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["deform", str(workdir / "ZG.json"),
                  "--d", "2", "--c", "x"])
        assert exc.value.code == 2


class TestAnalyzeAdaptEnumerate:
    def test_analyze_zg(self, workdir, capsys):
        code, out = run(capsys, "analyze", str(workdir / "ZG.json"))
        payload = json.loads(out)
        assert code == 0
        assert payload["class"] == 2
        assert (payload["n"], payload["p"], payload["e"]) == (1, 1, 5)
        assert payload["regular"] is False

    def test_adapt_nr(self, workdir, capsys):
        code, out = run(capsys, "adapt", str(workdir / "NR.json"))
        payload = json.loads(out)
        assert code == 0
        assert (payload["i0"], payload["i1"], payload["i2"]) == (2, 3, 4)
        assert payload["presentation"]["rank"] == 7

    def test_enumerate_zg(self, workdir, capsys):
        code, out = run(capsys, "enumerate", str(workdir / "ZG.json"))
        payload = json.loads(out)
        assert code == 0
        assert payload["bound"] == 5
        assert payload["count"] == 4

    def test_enumerate_past_the_cap_exits_1(self, workdir, capsys,
                                             monkeypatch):
        monkeypatch.setattr("nilpc.cli.adapt_basis",
                            lambda p: wide_adapted())
        code, out = run(capsys, "enumerate", str(workdir / "ZG.json"))
        assert code == 1
        assert "cap" in json.loads(out)["error"]


class TestSeriesScalars:
    def test_series_lower_heis(self, workdir, capsys):
        code, out = run(capsys, "series", str(workdir / "HEIS.json"),
                        "--kind", "lower")
        payload = json.loads(out)
        assert code == 0
        assert payload["terms"][0] == [[1, 0, 0], [0, 1, 0], [0, 0, 1]]
        assert payload["terms"][-1] == []

    def test_series_refined_zg(self, workdir, capsys):
        code, out = run(capsys, "series", str(workdir / "ZG.json"),
                        "--kind", "refined")
        payload = json.loads(out)
        assert code == 0
        labels = [t["label"] for t in payload["left_chain"]]
        assert labels[0] == "G" and labels[-1] == "1"

    def test_scalars_heis_both_series_agree(self, workdir, capsys):
        _, low = run(capsys, "scalars", str(workdir / "HEIS.json"),
                     "--series", "lower")
        _, up = run(capsys, "scalars", str(workdir / "HEIS.json"),
                    "--series", "upper")
        a, b = json.loads(low), json.loads(up)
        assert a["tables"] == b["tables"]
        assert a["pairing_ring"]["periods"] == [0]

    @pytest.mark.parametrize("series", ["lower", "upper"])
    def test_scalars_prints_the_ring_stage_alone(self, tmp_path, capsys,
                                                 series):
        # scalars builds no chain, but checks that the ring keeps T in
        # U3/U4, the image of K3 = W3 n W4G', on C4, whose refined left
        # chain has a gap, W3G'/W4G', outside its block U3/U4; it prints
        # the pairing ring as the refined ring, which the dense solve of
        # the chains' conditions confirms
        path = tmp_path / "C4.json"
        files.save(c4(), str(path))
        code, out = run(capsys, "scalars", str(path), "--series", series)
        assert code == 0, out
        p = c4()
        b, ring, zc, w, _, k = rf.refined_ring(
            p, cli._central_series(p, "upper") if series == "upper" else None)
        want = ref_restrict_ring(ring.pairing, chain_conditions(b, zc, w, k))
        assert ring.s_basis == tuple(tuple(r) for r in want)
        payload = json.loads(out)
        assert payload["pairing_ring"] == payload["refined_ring"]
        assert payload["refined_ring"]["periods"] == cli._enc(ring.periods)

    def test_refined_series_names_the_gap_outside_its_block(self, tmp_path,
                                                             capsys):
        # C4's left chain gap W_3 G'/W_4 G' does not lie in U_3; it is read
        # as W_3/K_3, which embeds in the block U_3/U_4 modulo T, and the
        # ring acts on it as on Z
        path = tmp_path / "C4.json"
        files.save(c4(), str(path))
        code, out = run(capsys, "series", str(path), "--kind", "refined")
        assert code == 0
        gaps = [a for a in json.loads(out)["actions"]
                if a["kind"] == "pullback-phi2"]
        assert gaps == [{"chain": "left", "top": "W3G'", "bottom": "W4G'",
                         "kind": "pullback-phi2", "section": [0],
                         "matrices": [[[1]]]}]

    @pytest.mark.parametrize("check, condition", [
        ("_intertwines", "commute with the map L2/L3 -> U2/U3"),
        ("_keeps", "keep Z^L2 in L2/L3"),
        ("_keeps", "keep W3 n W4G' in U3/U4"),
    ])
    def test_a_failed_ring_check_is_a_clean_refusal(
            self, workdir, tmp_path, capsys, monkeypatch, check, condition):
        # no group is known to fail a check, so one is made to fail: each
        # command that builds the ring stage exits 1 with the condition.
        # F23 has no T to check (its gap W2G'/W3G' is empty); on C4, of
        # class 4, the seventh _keeps call, after Z^L2..Z^L4 and W1..W3, is
        # the only check of T, the image of K3 in U3/U4
        name, passing = ("C4", 6) if "W4G'" in condition else ("F23", 0)
        path = str(workdir / "F23.json")
        if name == "C4":
            path = str(tmp_path / "C4.json")
            files.save(c4(), path)
        error = (f"{name}: the pairing ring does not {condition}, so the "
                 "refined ring is a proper subring")
        for argv in (("scalars", path), ("scalars", path, "--series", "upper"),
                     ("series", path, "--kind", "refined")):
            answers = iter([True] * passing)
            monkeypatch.setattr(rf, check, lambda *args: next(answers, False))
            code = main(list(argv))
            out, err = capsys.readouterr()
            assert (code, err) == (1, ""), argv
            assert json.loads(out) == {"command": argv[0], "error": error}


class TestComputedOnce:
    """Each canonical subgroup is built once per command and handed on."""

    @staticmethod
    def profile(capsys, *argv):
        """{(module, function): (calls, {calling function: calls})}."""
        prof = cProfile.Profile()
        code = prof.runcall(main, list(argv))
        capsys.readouterr()
        assert code == 0
        out = {}
        for (path, _, fn), (_, calls, _, _, callers) in \
                pstats.Stats(prof).stats.items():
            if "/nilpc/" in path:
                module = path.rsplit("/", 1)[-1][:-3]
                out[module, fn] = (calls, {
                    c[2]: n for c, (_, n, _, _) in callers.items()})
        return out

    @pytest.mark.parametrize("name", ["HEIS", "NR", "F23"])
    def test_scalars_bilinearizes_once(self, workdir, capsys, name):
        stats = self.profile(capsys, "scalars", str(workdir / f"{name}.json"))
        assert stats["bilinear", "bilinearize"][0] == 1

    @pytest.mark.parametrize("command", ["invariants", "adapt"])
    @pytest.mark.parametrize("name", ["HEIS", "NR", "F23"])
    def test_series_and_abelianization_once(self, workdir, capsys, command,
                                            name):
        stats = self.profile(capsys, command, str(workdir / f"{name}.json"))
        for key in (("abelian", "abelianization"),
                    ("subgroups", "lower_central_series")):
            assert stats.get(key, (0,))[0] <= 1, key

    @pytest.mark.parametrize("command", ["invariants", "analyze"])
    @pytest.mark.parametrize("name", ["HEIS", "NR", "F23", "ZG"])
    def test_abelianization_quotient_built_once(self, workdir, capsys,
                                                monkeypatch, command, name):
        # G/G' is built once, as a section read in G: no presentation of
        # it is derived.
        path = str(workdir / f"{name}.json")
        p = files.load(path)
        whole = sg.whole_subgroup(p)
        der = sg.lower_central_series(p)[1]
        built, derived = [], []
        build, derive = ab._unchecked_section, pc._derive_layers

        def section(q, a, b):
            if q == p and a == whole and b == der:
                built.append(b)
            return build(q, a, b)

        def recording(q, *args, **kwargs):
            derived.append(q.name)
            return derive(q, *args, **kwargs)

        monkeypatch.setattr(ab, "_unchecked_section", section)
        monkeypatch.setattr(pc, "_derive_layers", recording)
        self.profile(capsys, command, path)
        assert len(built) == 1, built
        assert derived == [p.name], derived

    @pytest.mark.parametrize("name", ["HEIS", "NR", "F23", "ZG"])
    def test_quotients_and_passes_built_once(self, capsys, monkeypatch,
                                             name):
        # Every report command builds each [A, B] and runs each
        # constrained pass at most once per presentation object.
        commutators, passes, seen = [], [], []
        build_c, build_k = sg._build_constrained, sg._build_commutator

        def commutator(p, a, b):
            seen.append(p)  # held, so no id is reused during the command
            commutators.append((id(p), a.rows, b.rows))
            return build_k(p, a, b)

        def constrained(p, s, conditions):
            seen.append(p)
            passes.append((id(p), s.rows, tuple(
                (tuple(hs), ell.rows) for hs, ell in conditions)))
            return build_c(p, s, conditions)

        monkeypatch.setattr(sg, "_build_constrained", constrained)
        monkeypatch.setattr(sg, "_build_commutator", commutator)
        total = 0
        for cmd in REPORT_COMMANDS[1:]:
            del commutators[:], passes[:], seen[:]
            main([cmd[0], str(FIXTURES / f"{name}.json"), *cmd[1:]])
            capsys.readouterr()
            total += len(commutators) + len(passes)
            assert len(set(commutators)) == len(commutators), cmd
            assert len(set(passes)) == len(passes), cmd
        assert total

    @pytest.mark.parametrize("name", ["HEIS", "NR", "F23", "ZG", "ZH", "ZK"])
    def test_each_group_operation_collected_once(self, capsys, monkeypatch,
                                                 name):
        # Every report command collects each product, power, commutator,
        # conjugate and inverse at most once per presentation object: the
        # subgroup layer reads them through the presentation's table.
        collected, seen = [], []

        def recording(op):
            real = getattr(pc, op)

            def collect(p, *args):
                seen.append(p)  # held, so no id is reused during the command
                collected.append((op, id(p), args))
                return real(p, *args)
            return collect

        for op in ("multiply", "power", "commutator", "conjugate",
                   "inverse"):
            monkeypatch.setattr(pc, op, recording(op))
        total = 0
        for cmd in REPORT_COMMANDS:
            del collected[:], seen[:]
            main([cmd[0], str(FIXTURES / f"{name}.json"), *cmd[1:]])
            capsys.readouterr()
            total += len(collected)
            assert len(set(collected)) == len(collected), cmd
        assert total

    @pytest.mark.parametrize("name,builds", [
        ("HEIS", 20), ("NR", 25), ("F23", 36), ("ZG", 25), ("ZH", 25),
        ("ZK", 25)])
    def test_passes_stay_shared_across_readings_of_g(self, capsys,
                                                     monkeypatch, name,
                                                     builds):
        # A condition on G's rows is keyed as one on the generating set S,
        # so a pass asked for with either is built once: the report
        # commands run 156 constrained passes over the six fixtures, as
        # many as when every condition read all of G's generators.
        passes, build = [], sg._build_constrained

        def constrained(*args):
            passes.append(args)
            return build(*args)

        monkeypatch.setattr(sg, "_build_constrained", constrained)
        for cmd in REPORT_COMMANDS:
            main([cmd[0], str(FIXTURES / f"{name}.json"), *cmd[1:]])
            capsys.readouterr()
        assert len(passes) == builds

    @pytest.mark.parametrize("name", ["HEIS", "NR", "F23", "ZG", "ZH", "ZK"])
    def test_each_section_built_once(self, capsys, monkeypatch, name):
        # Every report command builds each section a/b at most once per
        # presentation object: abelian.section is the one builder, so a
        # section that two constructions share (G/G' in key_subgroups and
        # in adapt, a pairing's layer and a chain's gap) is one object.
        built, seen = [], []
        build = ab._unchecked_section

        def section(p, a, b):
            seen.append(p)  # held, so no id is reused during the command
            built.append((id(p), a.rows, b.rows))
            return build(p, a, b)

        monkeypatch.setattr(ab, "_unchecked_section", section)
        total = 0
        for cmd in REPORT_COMMANDS:
            del built[:], seen[:]
            main([cmd[0], str(FIXTURES / f"{name}.json"), *cmd[1:]])
            capsys.readouterr()
            total += len(built)
            assert len(set(built)) == len(built), cmd
        assert total

    @pytest.mark.parametrize("name", ["HEIS", "NR", "F23", "ZG", "ZH", "ZK"])
    def test_no_presentation_of_a_quotient_is_built(self, capsys,
                                                    monkeypatch, name):
        # Collector tables are derived once, for the loaded presentation:
        # sections and isolators are read in G, and adapt and enumerate
        # print or read the adapted presentation's relations but collect
        # nothing in it, so no other presentation is proven.
        derived = []
        derive = pc._derive_layers

        def recording(p, *args, **kwargs):
            derived.append(p.name)
            return derive(p, *args, **kwargs)

        monkeypatch.setattr(pc, "_derive_layers", recording)
        loaded = files.load(str(FIXTURES / f"{name}.json")).name
        for cmd in REPORT_COMMANDS:
            del derived[:]
            main([cmd[0], str(FIXTURES / f"{name}.json"), *cmd[1:]])
            capsys.readouterr()
            assert derived == [loaded], cmd

    @pytest.mark.parametrize("name", ["HEIS", "NR", "F23"])
    def test_constrained_subgroup_builds_no_quotient(self, workdir, capsys,
                                                     monkeypatch, name):
        # No collector tables are derived while a constrained subgroup is
        # being built.
        calls, inside, depth = [], [], [0]
        build, derive = sg.constrained_subgroup, pc._derive_layers

        def constrained(*args, **kwargs):
            calls.append(1)
            depth[0] += 1
            try:
                return build(*args, **kwargs)
            finally:
                depth[0] -= 1

        def recording(q, *args, **kwargs):
            if depth[0]:
                inside.append(q.name)
            return derive(q, *args, **kwargs)

        monkeypatch.setattr(sg, "constrained_subgroup", constrained)
        monkeypatch.setattr(pc, "_derive_layers", recording)
        self.profile(capsys, "series", str(workdir / f"{name}.json"),
                     "--kind", "refined")
        assert calls
        assert not inside, inside


class TestHoms:
    def test_map_file_with_an_index_two_image(self, workdir, capsys):
        # ZG -> ZK fixing every generator but u5, sent to u5^2
        mapfile = workdir / "square.json"
        words = [[[i, 1]] for i in range(1, 11)]
        words[4] = [[5, 2]]
        mapfile.write_text(files.emit_hom_map(words), encoding="utf-8")
        code, out = run(capsys, "hom", str(workdir / "ZG.json"),
                        str(workdir / "ZK.json"), "--map", str(mapfile),
                        "--verify")
        payload = json.loads(out)
        assert code == 0
        assert payload["certified"] is True
        assert payload["image_index"] == 2
        assert payload["spot_check"] is True

    def test_violated_relation(self, workdir, capsys):
        mapfile = workdir / "collapse.json"
        mapfile.write_text(files.emit_hom_map(
            [[[1, 1]], [[2, 1]], []]), encoding="utf-8")
        code, out = run(capsys, "hom", str(workdir / "HEIS.json"),
                        str(workdir / "HEIS.json"), "--map", str(mapfile))
        payload = json.loads(out)
        assert code == 1
        assert payload["certified"] is False
        assert payload["relation"] == ["commutator", 2, 1]

    def test_inverse_pair(self, workdir, capsys):
        fwd = workdir / "phi.json"
        bwd = workdir / "psi.json"
        phi = [[[i, 1]] for i in range(1, 11)]
        phi[3] = [[4, 3], [5, -1]]
        phi[5], phi[6], phi[7] = [[6, 3]], [[7, 3]], [[8, 3]]
        psi = [[[i, 1]] for i in range(1, 11)]
        psi[3] = [[4, 2]]
        psi[5], psi[6], psi[7] = [[6, 2]], [[7, 2]], [[8, 2]]
        fwd.write_text(files.emit_hom_map(phi), encoding="utf-8")
        bwd.write_text(files.emit_hom_map(psi), encoding="utf-8")
        code, out = run(capsys, "inverse-pair", str(workdir / "ZH.json"),
                        str(workdir / "ZK.json"),
                        "--forward", str(fwd), "--backward", str(bwd))
        payload = json.loads(out)
        assert code == 0
        assert payload["inverse_pair"] is True

    def test_inverse_pair_with_an_uncertified_map_exits_1(self, workdir,
                                                          capsys):
        # u3 -> 1 breaks [u2, u1]: the pair is refused before it is composed
        bad = workdir / "collapse.json"
        bad.write_text(files.emit_hom_map([[[1, 1]], [[2, 1]], []]),
                       encoding="utf-8")
        good = workdir / "id.json"
        good.write_text(files.emit_hom_map([[[1, 1]], [[2, 1]], [[3, 1]]]),
                        encoding="utf-8")
        heis_file = str(workdir / "HEIS.json")
        for fwd, bwd in ((bad, good), (good, bad)):
            code = main(["inverse-pair", heis_file, heis_file,
                         "--forward", str(fwd), "--backward", str(bwd)])
            captured = capsys.readouterr()
            assert (code, captured.err) == (1, "")
            payload = json.loads(captured.out)
            assert payload.pop("reason").startswith(
                "commutator relation [u2, u1] is violated")
            assert payload == {"command": "inverse-pair", "certified": False}

    def test_inverse_pair_loads_each_file_once(self, workdir, capsys,
                                               monkeypatch):
        ident = workdir / "id.json"
        ident.write_text(files.emit_hom_map(
            [[[i, 1]] for i in range(1, 11)]), encoding="utf-8")
        argv = ("inverse-pair", str(workdir / "ZG.json"),
                str(workdir / "ZG.json"), "--forward", str(ident),
                "--backward", str(ident))
        _, before = run(capsys, *argv)
        loaded = []
        load = files.load

        def counting(path):
            loaded.append(path)
            return load(path)

        monkeypatch.setattr(files, "load", counting)
        code, out = run(capsys, *argv)
        assert len(loaded) == 2
        assert code == 0
        assert out == before
        assert json.loads(out)["inverse_pair"] is True

    @pytest.mark.parametrize("letter", [0, 7])
    def test_letter_outside_target_is_usage_error(self, workdir, capsys,
                                                  letter):
        bad = workdir / "bad.json"
        bad.write_text(files.emit_hom_map([[[letter, 1]], [], []]),
                       encoding="utf-8")
        good = workdir / "id.json"
        good.write_text(files.emit_hom_map([[[1, 1]], [[2, 1]], [[3, 1]]]),
                        encoding="utf-8")
        heis_file = str(workdir / "HEIS.json")
        for argv in (["hom", heis_file, heis_file, "--map", str(bad)],
                     ["inverse-pair", heis_file, heis_file,
                      "--forward", str(bad), "--backward", str(good)],
                     ["inverse-pair", heis_file, heis_file,
                      "--forward", str(good), "--backward", str(bad)]):
            assert main(argv) == 2
            captured = capsys.readouterr()
            assert captured.out == ""
            assert f"letter {letter} is not a generator" in captured.err


    def test_map_that_is_not_utf8_is_usage_error(self, workdir, capsys):
        mapfile = workdir / "latin1.json"
        mapfile.write_bytes(b"[[[1, 1]], [], []] \xff")
        heis_file = str(workdir / "HEIS.json")
        assert main(["hom", heis_file, heis_file, "--map",
                     str(mapfile)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith(f"error: {mapfile}: not UTF-8 text")


class TestPrimes:
    def test_zmod_six(self, capsys):
        code, out = run(capsys, "primes", "--zmod", "6")
        payload = json.loads(out)
        assert code == 0
        assert len(payload["factors"]) == 2
        assert sorted(map(tuple, payload["factors"][0])) != sorted(
            map(tuple, payload["factors"][1]))

    def test_deterministic(self, capsys):
        _, first = run(capsys, "primes", "--zmod", "12")
        _, second = run(capsys, "primes", "--zmod", "12")
        assert first == second

    @pytest.mark.parametrize("n, sizes", [(97, [1]),
                                          (210, [30, 42, 70, 105])])
    def test_past_the_old_enumeration_caps(self, capsys, n, sizes):
        # the factors pZ/n, smallest first
        code, out = run(capsys, "primes", "--zmod", str(n))
        assert code == 0
        assert [len(f) for f in json.loads(out)["factors"]] == sizes

    def test_huge_modulus_exits_1_before_factoring(self, capsys,
                                                   monkeypatch):
        def refuse(ring, p):
            raise AssertionError("factoring started")

        monkeypatch.setattr(sc, "_maximal_ideal_gens", refuse)
        code = main(["primes", "--zmod", str(10 ** 30)])
        captured = capsys.readouterr()
        assert code == 1
        assert captured.err == ""
        assert "factoring bound" in json.loads(captured.out)["error"]

    def test_zero_ring_exits_1(self, capsys):
        code, out = run(capsys, "primes", "--zmod", "1")
        assert code == 1
        assert out == ('{\n  "command": "primes",\n  "error": "zero ideal is '
                       'not a product of prime ideals"\n}\n')


HUGE = 10 ** 100
# a period, a power-tail exponent and a commutator-tail exponent of 10^100,
# and a central generator of that period
HUGE_PRESENTATIONS = {
    "period": {"periods": [0, 0, HUGE], "powers": {},
               "commutators": {"2,1": [[3, 1]]}},
    "power tail": {"periods": [2, 0, 0, 0], "powers": {"1": [[4, HUGE]]},
                   "commutators": {"3,2": [[4, 1]]}},
    "commutator tail": {"periods": [0, 0, 0], "powers": {},
                        "commutators": {"2,1": [[3, HUGE]]}},
    "central period": {"periods": [0, 0, HUGE, 0, 0], "powers": {},
                       "commutators": {"2,1": [[4, 1]], "4,1": [[5, 1]]}},
    # periods of 10^1000: the proof powers by the series in the cover
    "two periods": {"periods": [0, 10 ** 1000, 0, 10 ** 1000], "powers": {},
                    "commutators": {"3,2": [[4, 1]]}},
}
# (presentation, command): exit 1 at a cap, as in Z/10^100 in the middle
# section, whose deformation classes are far past enumerate's class cap;
# every other pair exits 0
HUGE_CAPPED = {("period", "enumerate"), ("two periods", "enumerate")}
HUGE_COMMANDS = (
    ("check",), ("analyze",), ("invariants",), ("series", "--kind", "refined"),
    ("scalars",), ("adapt",), ("enumerate",))


class TestHugeExponents:
    """Exponents of 10^100 end in a clean report: exit 0 or 1, JSON on
    stdout, nothing on stderr."""

    @pytest.mark.parametrize("command", HUGE_COMMANDS,
                             ids=[" ".join(c) for c in HUGE_COMMANDS])
    @pytest.mark.parametrize("name", list(HUGE_PRESENTATIONS))
    def test_every_command_ends_cleanly(self, tmp_path, capsys, name,
                                        command):
        raw = HUGE_PRESENTATIONS[name]
        path = tmp_path / "huge.json"
        path.write_text(json.dumps(
            {"name": name, "rank": len(raw["periods"]), **raw}))
        code = main([command[0], str(path), *command[1:]])
        captured = capsys.readouterr()
        assert captured.err == ""
        payload = json.loads(captured.out)
        if (name, command[0]) in HUGE_CAPPED:
            assert code == 1
            assert "cap" in payload["error"]
        else:
            assert code == 0
            assert "error" not in payload

    def test_survey_cap_is_found_without_listing_units(self, tmp_path,
                                                        capsys, monkeypatch):
        # e = 10^1000 has phi(e) >= sqrt(e / 2) units, far past the cap,
        # so enumerate exits at the cap before it lists them with gcd
        raw = HUGE_PRESENTATIONS["two periods"]
        path = tmp_path / "huge.json"
        path.write_text(json.dumps(
            {"name": "two periods", "rank": len(raw["periods"]), **raw}))
        calls = []

        def gcd(*args):
            calls.append(args)
            return real(*args)

        real = dm.gcd
        monkeypatch.setattr(dm, "gcd", gcd)
        assert main(["enumerate", str(path)]) == 1
        assert "cap" in json.loads(capsys.readouterr().out)["error"]
        assert len(calls) < 100

    def test_hom_with_huge_images(self, workdir, capsys):
        # u1 -> u1^N, u2 -> u2, u3 -> u3^N respects [u2, u1] = u3^-1
        mapfile = workdir / "huge.json"
        mapfile.write_text(files.emit_hom_map(
            [[[1, HUGE]], [[2, 1]], [[3, HUGE]]]), encoding="utf-8")
        code = main(["hom", str(workdir / "HEIS.json"),
                     str(workdir / "HEIS.json"), "--map", str(mapfile),
                     "--verify"])
        captured = capsys.readouterr()
        assert captured.err == ""
        payload = json.loads(captured.out)
        assert code == 0
        assert payload["certified"] is True
        assert payload["spot_check"] is True
        assert payload["image_index"] == HUGE ** 2


FIXTURES = Path(nilpc.__file__).resolve().parent / "fixtures"
GOLDEN = Path(__file__).resolve().parents[1] / "perfbench" / "golden.json"
REPORT_COMMANDS = (
    ("check",), ("analyze",), ("series", "--kind", "lower"),
    ("series", "--kind", "upper"), ("series", "--kind", "refined"),
    ("scalars",), ("scalars", "--series", "upper"), ("adapt",),
    ("enumerate",), ("invariants",))


# the family jobs of golden.json, built from their closed forms
FAMILY = {"UT_4": lambda: unitriangular(4), "UT_5": lambda: unitriangular(5),
          "H_3": lambda: heisenberg(3), "H_4": lambda: heisenberg(4),
          "ZG_3": lambda: zg(3), "ZG_7": lambda: zg(7)}
FAMILY_COMMANDS = (("check",), ("invariants",), ("series", "--kind", "refined"))


def _report_jobs():
    """{job id: argv} of every report the benchmark pins in golden.json,
    except its rebased ones, whose presentations it draws itself.  A
    family job names its group in place of a path."""
    jobs = {}
    for name in ("HEIS", "NR", "F23", "ZG", "ZH", "ZK"):
        for cmd in REPORT_COMMANDS:
            jobs[" ".join(cmd + (name,))] = (
                (cmd[0], str(FIXTURES / f"{name}.json")) + cmd[1:])
    jobs["check HEIS_MUTATED"] = (
        "check", str(FIXTURES / "HEIS_MUTATED.json"))
    for n in (30, 60, 64):
        jobs[f"primes --zmod {n}"] = ("primes", "--zmod", str(n))
    for name in FAMILY:
        for cmd in FAMILY_COMMANDS:
            jobs[" ".join(cmd + (name,))] = (cmd[0], name) + cmd[1:]
    return jobs


REPORT_JOBS = _report_jobs()


@pytest.mark.parametrize("job_id", list(REPORT_JOBS))
def test_report_bytes_match_golden(capsys, tmp_path, job_id):
    # A refactor must not move a single byte of a report.
    golden = json.loads(GOLDEN.read_text())
    argv = REPORT_JOBS[job_id]
    if argv[1] in FAMILY:
        path = tmp_path / f"{argv[1]}.json"
        files.save(FAMILY[argv[1]](), str(path))
        argv = (argv[0], str(path)) + argv[2:]
    code, out = run(capsys, *argv)
    assert [code, hashlib.sha256(out.encode()).hexdigest()] == golden[job_id]


def test_report_commands_on_the_trivial_group(capsys, tmp_path):
    # Rank 0 is class 0: the refined series starts at U_1 and G', which
    # the trivial group lacks, so the commands that print it refuse with
    # exit 1 and a message; every other report prints the empty chains.
    path = tmp_path / "ONE.json"
    files.save(pc.PcPresentation("ONE", ()), str(path))
    refused = {("series", "--kind", "refined"), ("scalars",),
               ("scalars", "--series", "upper")}
    for cmd in REPORT_COMMANDS:
        code = main([cmd[0], str(path), *cmd[1:]])
        captured = capsys.readouterr()
        assert captured.err == "", cmd
        payload = json.loads(captured.out)
        if cmd in refused:
            assert (code, payload) == (1, {
                "command": cmd[0],
                "error": "ONE: the trivial group has no refined series"})
        else:
            assert code == 0 and "error" not in payload, cmd


# (command, message) of each input refusal a graded draw may end in, the
# message with the group's name and every index stripped; any other
# nonzero exit fails the sweep, so a new refusal is added here on purpose
GRADED_REFUSALS = {
    # ROADMAP F.2: the survey reads only diagonally normalized tails
    ("enumerate", "power tail of generator # is not diagonally normalized"),
}


def test_report_commands_on_the_graded_draws(capsys, tmp_path):
    # class 4 and 5: each report ends in exit 0, or in exit 1 with a
    # catalogued refusal, and never writes to stderr
    seen = set()
    for i, p in enumerate(graded_draws()):
        path = tmp_path / f"draw{i}.json"
        files.save(p, str(path))
        for cmd in REPORT_COMMANDS:
            code = main([cmd[0], str(path), *cmd[1:]])
            captured = capsys.readouterr()
            assert captured.err == "", (i, cmd)
            payload = json.loads(captured.out)
            if code == 0 and "error" not in payload:
                continue
            assert code == 1, (i, cmd, code)
            message = re.sub(rf"^{re.escape(p.name)}( adapted)?: ", "",
                             payload["error"])
            refusal = (" ".join(cmd), re.sub(r"\d+", "#", message))
            assert refusal in GRADED_REFUSALS, (i, payload["error"])
            seen.add(refusal)
    assert seen == GRADED_REFUSALS
