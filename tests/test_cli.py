"""In-process runs of the command line driver.

Most tests call main(argv) directly and decode the JSON report from
stdout, so exit codes and report contents are pinned without spawning
subprocesses. Two run `python -m spectramono` from the source tree.
"""

import errno
import io
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import genutil
from spectramono.cli import main
from spectramono.constructions import (
    SignMatrix,
    hat,
    paley_tournament,
    skew_adjacency,
    skew_hadamard_from_drt,
)
from spectramono.core import (
    HermitianStructure,
    Selector,
    Tournament,
    apply_selector,
    c_representation,
    constant_structure,
    i_representation,
    transitive_tournament,
)
from spectramono.documents import serialize_document
from spectramono.scalars import GaussianScalar, get_eps, rational, set_eps

UNIT_C = GaussianScalar.exact("3/5", "4/5")


@pytest.fixture(autouse=True)
def _keep_eps():
    # main() may install SPECTRAMONO_EPS globally; undo after each test
    before = get_eps()
    yield
    set_eps(before)


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, json.loads(out)


def write_doc(tmp_path, name, value):
    path = tmp_path / name
    path.write_text(serialize_document(value))
    return str(path)


def minus_identity(h):
    return SignMatrix(
        [
            [h.entries[i][j] - (1 if i == j else 0) for j in range(h.n)]
            for i in range(h.n)
        ]
    )


@pytest.fixture(scope="module")
def paley_hat_path(tmp_path_factory):
    """i-representation of the dominated extension of the order-7 Paley
    tournament, written once for the whole module."""
    g = i_representation(hat(paley_tournament(7)))
    path = tmp_path_factory.mktemp("docs") / "paley_hat.json"
    path.write_text(serialize_document(g))
    return str(path)


class TestCheck:
    def test_monomorphic_k(self, paley_hat_path, capsys):
        code, report = run(
            capsys, "check", "--input", paley_hat_path, "--k", "5"
        )
        assert code == 0
        result = report["result"]
        assert result["monomorphic"] is True
        assert result["common_poly"]["display"] == "x^5-10x^3+21x"
        assert result["subsets_checked"] == 56
        assert result["witness"] is None

    def test_witness_on_failure(self, paley_hat_path, capsys):
        """k = 4 fails and the report carries the first offending pair."""
        code, report = run(
            capsys, "check", "--input", paley_hat_path, "--k", "4"
        )
        assert code == 1
        result = report["result"]
        assert result["monomorphic"] is False
        assert result["witness"] == [[0, 1, 2, 3], [0, 1, 2, 4]]
        a, b = result["witness_polys"]
        assert a["display"] != b["display"]

    def test_all_k_profile(self, paley_hat_path, capsys):
        code, report = run(capsys, "check", "--input", paley_hat_path, "--all-k")
        assert code == 1
        profile = report["all_k"]
        assert sorted(profile, key=int) == [str(k) for k in range(1, 9)]
        assert profile["4"]["monomorphic"] is False
        assert profile["8"]["monomorphic"] is True

    def test_all_k_success_exit(self, tmp_path, capsys):
        path = write_doc(
            tmp_path, "t4.json", i_representation(transitive_tournament(4))
        )
        code, report = run(capsys, "check", "--input", path, "--all-k")
        assert code == 0
        assert all(r["monomorphic"] for r in report["all_k"].values())

    def test_k_required(self, paley_hat_path, capsys):
        code, report = run(capsys, "check", "--input", paley_hat_path)
        assert code == 2
        assert "--k" in report["error"]["message"]


    def test_force_brute_is_not_a_check_option(self, paley_hat_path):
        """check always enumerates, so it has no --force-brute to accept."""
        with pytest.raises(SystemExit) as exc:
            main(["check", "--input", paley_hat_path, "--k", "3", "--force-brute"])
        assert exc.value.code == 2


class TestClassify:
    def test_drt_hat_variant(self, paley_hat_path, capsys):
        code, report = run(
            capsys, "classify", "--input", paley_hat_path, "--k", "5"
        )
        assert code == 0
        assert report["monomorphic"] is True
        assert report["variant"] == "i_rep_drt_hat"
        assert report["details"]["certificate"] == {"n": 7, "t": 1}
        assert report["details"]["tournament"]["kind"] == "tournament"
        assert len(report["witness_selector"]["values"]) == 8

    def test_transitive_c_rep(self, tmp_path, capsys):
        g = c_representation(transitive_tournament(6), UNIT_C)
        path = write_doc(tmp_path, "trans6.json", g)
        code, report = run(capsys, "classify", "--input", path, "--k", "3")
        assert code == 0
        assert report["variant"] == "c_rep_transitive"
        assert report["details"]["label"] == "3/5+4/5i"
        assert report["details"]["order"] == [0, 1, 2, 3, 4, 5]

    def test_not_monomorphic_exit(self, tmp_path, capsys):
        # transitive on 5 vertices with the (1, 4) arc reversed
        t = Tournament.from_matrix(
            [
                [0, 1, 1, 1, 1],
                [0, 0, 1, 1, 0],
                [0, 0, 0, 1, 1],
                [0, 0, 0, 0, 1],
                [0, 1, 0, 0, 0],
            ]
        )
        path = write_doc(tmp_path, "flip.json", c_representation(t, UNIT_C))
        code, report = run(capsys, "classify", "--input", path, "--k", "3")
        assert code == 1
        assert report["variant"] == "not_monomorphic"
        assert report["details"]["witness"] is not None

    def test_out_of_range_without_force(self, paley_hat_path, capsys):
        code, report = run(
            capsys, "classify", "--input", paley_hat_path, "--k", "2"
        )
        assert code == 3
        assert report["error"]["kind"] == "theorem_range"

    def test_force_brute_fallback(self, paley_hat_path, capsys):
        code, report = run(
            capsys,
            "classify",
            "--input",
            paley_hat_path,
            "--k",
            "2",
            "--force-brute",
        )
        assert code == 0
        assert report["variant"] == "brute_force"
        assert report["monomorphic"] is True
        assert report["details"]["subsets_checked"] == 28


class TestConstruct:
    def test_tournament_document(self, capsys):
        code, report = run(capsys, "construct", "paley", "--q", "7")
        assert code == 0
        assert report == json.loads(serialize_document(paley_tournament(7)))

    def test_hat_rep_output_is_loadable(self, tmp_path, capsys):
        """construct output feeds straight back into check."""
        code = main(["construct", "paley", "--q", "7", "--hat", "--rep", "i"])
        out = capsys.readouterr().out
        assert code == 0
        expected = serialize_document(i_representation(hat(paley_tournament(7))))
        assert out == expected
        path = tmp_path / "constructed.json"
        path.write_text(out)
        code, report = run(capsys, "check", "--input", str(path), "--k", "1")
        assert code == 0
        assert report["result"]["monomorphic"] is True

    def test_general_unit_label(self, capsys):
        code, report = run(
            capsys, "construct", "paley", "--q", "3", "--rep", "3/5,4/5"
        )
        assert code == 0
        assert report["kind"] == "hermitian"
        assert report["entries"][0][1] in ("3/5+4/5i", "3/5-4/5i")

    def test_rejects_bad_prime(self, capsys):
        code, report = run(capsys, "construct", "paley", "--q", "5")
        assert code == 2
        assert report["error"]["kind"] == "input"


class TestValidate:
    def test_skew_conference_passes(self, tmp_path, capsys):
        s = minus_identity(skew_hadamard_from_drt(paley_tournament(7)))
        path = write_doc(tmp_path, "conf8.json", s)
        code, report = run(
            capsys, "validate", "--input", path, "--kind", "skew_conference"
        )
        assert code == 0
        assert report["ok"] is True
        assert report["n"] == 8

    def test_failure_reports_locus(self, tmp_path, capsys):
        path = write_doc(tmp_path, "ones.json", SignMatrix([[1, 1], [1, 1]]))
        code, report = run(
            capsys, "validate", "--input", path, "--kind", "hadamard"
        )
        assert code == 1
        assert report["ok"] is False
        assert report["detail"]

    def test_wrong_document_kind(self, tmp_path, capsys):
        path = write_doc(tmp_path, "t.json", paley_tournament(7))
        code, report = run(
            capsys, "validate", "--input", path, "--kind", "hadamard"
        )
        assert code == 2
        assert "sign_matrix" in report["error"]["message"]


class TestSpectra:
    def test_order_eight(self, tmp_path, capsys):
        s = minus_identity(skew_hadamard_from_drt(paley_tournament(7)))
        path = write_doc(tmp_path, "conf8.json", s)
        code, report = run(
            capsys, "spectra", "--input", path, "--max-deletions", "2"
        )
        assert code == 0
        assert report["ok"] is True
        assert report["t"] == 1
        assert report["polys_checked"] == 1 + 8 + 28
        assert report["failure"] is None

    def test_order_four_rejected(self, tmp_path, capsys):
        s = minus_identity(skew_hadamard_from_drt(paley_tournament(3)))
        path = write_doc(tmp_path, "conf4.json", s)
        code, report = run(capsys, "spectra", "--input", path)
        assert code == 2
        assert report["error"]["kind"] == "input"


class TestConvert:
    def test_round_trip(self, tmp_path, capsys):
        t_path = write_doc(tmp_path, "drt.json", paley_tournament(7))
        code = main(["convert", "drt-to-hadamard", "--input", t_path])
        h_text = capsys.readouterr().out
        assert code == 0
        assert json.loads(h_text)["kind"] == "sign_matrix"
        h_path = tmp_path / "had.json"
        h_path.write_text(h_text)
        code = main(["convert", "hadamard-to-drt", "--input", str(h_path)])
        back = capsys.readouterr().out
        assert code == 0
        assert back == serialize_document(paley_tournament(7))

    def test_rejects_non_drt(self, tmp_path, capsys):
        path = write_doc(tmp_path, "trans.json", transitive_tournament(7))
        code, report = run(capsys, "convert", "drt-to-hadamard", "--input", path)
        assert code == 2
        assert report["error"]["kind"] == "input"


class TestC3:
    def test_determinant_route_agrees(self, paley_hat_path, capsys):
        code, report = run(
            capsys,
            "c3",
            "--input",
            paley_hat_path,
            "--pair",
            "1,2",
            "--via-determinants",
        )
        assert code == 0
        assert report["dominating_vertex"] == 0
        assert report["c3"] == 2
        assert report["o3"] == 3
        assert report["determinant_count"] == 2
        assert report["agrees_with_direct"] is True

    def test_pair_must_avoid_dominator(self, paley_hat_path, capsys):
        code, report = run(
            capsys, "c3", "--input", paley_hat_path, "--pair", "0,3"
        )
        assert code == 2
        assert "dominating" in report["error"]["message"]

    def test_bad_pair_syntax(self, paley_hat_path, capsys):
        code, report = run(
            capsys, "c3", "--input", paley_hat_path, "--pair", "1:2"
        )
        assert code == 2

    def test_needs_imaginary_labels(self, tmp_path, capsys):
        g = c_representation(transitive_tournament(6), UNIT_C)
        path = write_doc(tmp_path, "crep.json", g)
        code, report = run(capsys, "c3", "--input", path, "--pair", "1,2")
        assert code == 2
        assert "imaginary" in report["error"]["message"]


class TestErrorsAndEnvironment:
    def test_missing_file(self, capsys):
        code, report = run(
            capsys, "check", "--input", "/no/such/file.json", "--k", "2"
        )
        assert code == 2
        assert "cannot read" in report["error"]["message"]

    def test_kind_mismatch(self, tmp_path, capsys):
        path = write_doc(tmp_path, "t.json", paley_tournament(7))
        code, report = run(capsys, "check", "--input", path, "--k", "2")
        assert code == 2
        assert "hermitian" in report["error"]["message"]

    def test_repeat_runs_identical(self, paley_hat_path, capsys):
        main(["check", "--input", paley_hat_path, "--k", "5"])
        first = capsys.readouterr().out
        main(["check", "--input", paley_hat_path, "--k", "5"])
        second = capsys.readouterr().out
        assert first == second

    def test_env_eps_rejected(self, monkeypatch, capsys):
        monkeypatch.setenv("SPECTRAMONO_EPS", "banana")
        code, report = run(capsys, "construct", "paley", "--q", "3")
        assert code == 2
        assert "SPECTRAMONO_EPS" in report["error"]["message"]

    def test_env_eps_applied(self, monkeypatch, capsys):
        monkeypatch.setenv("SPECTRAMONO_EPS", "0.5")
        code, _ = run(capsys, "construct", "paley", "--q", "3")
        assert code == 0
        assert get_eps() == 0.5

    def test_float_overflow_is_an_input_error(self, tmp_path, capsys):
        big, bar, zero = "1e150,1e150", "1e150,-1e150", "0.0,0.0"
        path = tmp_path / "big.json"
        path.write_text(
            json.dumps(_approx_doc([[zero, big, big], [bar, zero, big], [bar, bar, zero]]))
        )
        code, report = run(capsys, "check", "--input", str(path), "--k", "3")
        assert code == 2
        assert report["error"]["kind"] == "input"
        assert "overflow" in report["error"]["message"]

    def test_python_m_runs_the_cli(self, capsys):
        """`python -m spectramono` from the source tree, with the package
        not installed, prints what main prints in process."""
        argv = ["construct", "paley", "--q", "7", "--hat", "--rep", "i"]
        src = Path(__file__).resolve().parent.parent / "src"
        env = dict(os.environ, PYTHONPATH=str(src))
        done = subprocess.run(
            [sys.executable, "-m", "spectramono", *argv],
            env=env,
            capture_output=True,
            timeout=120,
        )
        assert done.returncode == 0, done.stderr
        assert main(argv) == 0
        assert done.stdout == capsys.readouterr().out.encode()

    def test_one_parser_serves_every_request(self, paley_hat_path, capsys):
        """The parser is built once per process. A usage error, then
        requests alternating between check and classify, print in one
        process what each prints in a fresh one, byte for byte."""
        requests = [
            ["check", "--input", paley_hat_path, "--bogus"],
            ["classify", "--input", paley_hat_path, "--k", "5"],
            ["check", "--input", paley_hat_path, "--k", "4"],
            ["classify", "--input", paley_hat_path, "--k", "3"],
            ["check", "--input", paley_hat_path, "--all-k"],
            ["classify", "--input", paley_hat_path],
            ["check", "--input", paley_hat_path, "--k", "3"],
        ]
        src = Path(__file__).resolve().parent.parent / "src"
        env = dict(os.environ, PYTHONPATH=str(src))
        codes = []
        for argv in requests:
            fresh = subprocess.run(
                [sys.executable, "-m", "spectramono", *argv],
                env=env,
                capture_output=True,
                timeout=120,
            )
            try:
                code = main(argv)
            except SystemExit as exc:
                code = exc.code
            out, err = capsys.readouterr()
            assert code == fresh.returncode
            assert out.encode() == fresh.stdout
            assert err.encode() == fresh.stderr
            codes.append(code)
        assert codes == [2, 0, 1, 0, 1, 2, 0]

    def test_closed_pipe_exits_quietly(self, paley_hat_path, monkeypatch):
        """A reader that closes the pipe early (as `| head -1` does) makes
        the report write fail: main raises nothing, keeps its exit code and
        points stdout at devnull so the flush at exit stays quiet."""

        class ClosedPipe(io.StringIO):
            def write(self, text):
                raise BrokenPipeError(errno.EPIPE, "Broken pipe")

        cases = (
            (["check", "--input", paley_hat_path, "--k", "5"], 0),
            (["check", "--input", paley_hat_path, "--all-k"], 1),
            (["check", "--input", "/no/such/file.json", "--k", "2"], 2),
        )
        for argv, expected in cases:
            monkeypatch.setattr(sys, "stdout", ClosedPipe())
            assert main(argv) == expected
            assert sys.stdout.name == os.devnull
            sys.stdout.close()


# A selector-twisted, relabelled c-representation of the transitive
# 5-tournament with label 3/5+4/5i, written as floats.
APPROX_ROWS = [
    ["0.0,0.0", "0.9692307692307692,0.24615384615384617", "0.8,-0.6",
     "-1.0,0.0", "-0.4235294117647059,-0.9058823529411765"],
    ["0.9692307692307692,-0.24615384615384617", "0.0,0.0",
     "-0.24615384615384617,-0.9692307692307692",
     "-0.7784615384615384,-0.6276923076923077",
     "0.23891402714932128,-0.9710407239819004"],
    ["0.8,0.6", "-0.24615384615384617,0.9692307692307692", "0.0,0.0",
     "0.0,-1.0", "0.9058823529411765,-0.4235294117647059"],
    ["-1.0,0.0", "-0.7784615384615384,0.6276923076923077", "0.0,1.0",
     "0.0,0.0", "-0.47058823529411764,0.8823529411764706"],
    ["-0.4235294117647059,0.9058823529411765",
     "0.23891402714932128,0.9710407239819004",
     "0.9058823529411765,0.4235294117647059",
     "-0.47058823529411764,-0.8823529411764706", "0.0,0.0"],
]


def _approx_doc(rows):
    return {
        "entries": rows,
        "format_version": "1",
        "kind": "hermitian",
        "mode": "approx",
        "n": len(rows),
    }


class TestApproxDocument:
    """Approx-mode reports are pinned byte for byte: float coefficients
    (a negative zero among them), the fragile flag, the canonical form and
    the witness selector all come from float arithmetic."""

    @pytest.fixture
    def path(self, tmp_path):
        path = tmp_path / "approx.json"
        path.write_text(json.dumps(_approx_doc(APPROX_ROWS)))
        return str(path)

    def _out(self, capsys, *argv):
        code = main(list(argv))
        return code, capsys.readouterr().out

    def test_check_k3(self, path, capsys):
        expected = {
            "command": "check",
            "mode": "approx",
            "n": 5,
            "result": {
                "common_poly": {
                    "coefficients": ["-1.2000000000000002", "-3.0", "-0.0", "1.0"],
                    "display": "1.0x^3-3.0x-1.2000000000000002",
                },
                "fragile": True,
                "k": 3,
                "monomorphic": True,
                "subsets_checked": 10,
                "witness": None,
                "witness_polys": None,
            },
        }
        code, out = self._out(capsys, "check", "--input", path, "--k", "3")
        assert code == 0
        assert out == json.dumps(expected, indent=2, sort_keys=True) + "\n"

    def test_classify_k3(self, path, capsys):
        g, b = "0.6,0.8", "0.6,-0.8"
        canonical = [
            ["0.0,0.0", g, g, g, g],
            [b, "0.0,0.0", b, g, g],
            [b, g, "0.0,0.0", g, g],
            [b, b, b, "0.0,0.0", g],
            [b, b, b, b, "0.0,0.0"],
        ]
        expected = {
            "canonical": _approx_doc(canonical),
            "command": "classify",
            "details": {"label": "0.6,0.8", "order": [0, 2, 1, 3, 4]},
            "k": 3,
            "mode": "approx",
            "monomorphic": True,
            "n": 5,
            "variant": "c_rep_transitive",
            "witness_selector": {
                "scale_sq": 1.0,
                "values": [
                    "1.0,0.0",
                    "0.7784615384615385,0.6276923076923078",
                    "0.0,1.0",
                    "-0.6,-0.8",
                    "-0.9788235294117646,0.20470588235294107",
                ],
            },
        }
        code, out = self._out(capsys, "classify", "--input", path, "--k", "3")
        assert code == 0
        assert out == json.dumps(expected, indent=2, sort_keys=True) + "\n"


GOLDEN = Path(__file__).parent / "golden"


# Pythagorean units: twisting by them keeps every label of modulus 1 while
# giving the labels denominators
PYTHAGOREAN_TWIST = Selector(
    [
        GaussianScalar.exact("3/5", "4/5"),
        GaussianScalar.exact("5/13", "-12/13"),
        GaussianScalar.exact("8/17", "15/17"),
        GaussianScalar.exact("-3/5", "4/5"),
        GaussianScalar.exact(1),
        GaussianScalar.exact(0, 1),
    ]
)


def _twisted_rational_c_rep():
    """The rational c-representation (label 3/5+4/5i) of a transitive
    tournament on 6 vertices, relabelled and twisted by Pythagorean units."""
    g = c_representation(transitive_tournament(6), UNIT_C)
    return apply_selector(genutil.permuted(g, (3, 0, 5, 1, 4, 2)), PYTHAGOREAN_TWIST)


def _phase_outside_pair():
    """The same c-representation with the label of (2,4) replaced by another
    unit, scaled by 1/4 and twisted: its phase at (2,4) leaves the pair."""
    rows = [list(row) for row in c_representation(transitive_tournament(6), UNIT_C).labels]
    rows[2][4] = GaussianScalar.exact("5/13", "12/13")
    rows[4][2] = rows[2][4].conj()
    twist = Selector(PYTHAGOREAN_TWIST.values, rational("1/4"))
    return apply_selector(HermitianStructure(rows), twist)


def _scrambled_twisted_hat_paley11():
    """The i-representation of hat(Paley-11), relabelled and twisted by
    Pythagorean units of modulus 5/4: every label gets a denominator, and
    the report carries a canonical structure and a tournament document."""
    g = i_representation(hat(paley_tournament(11)))
    perm = (7, 2, 11, 0, 9, 4, 1, 10, 5, 8, 3, 6)
    pool = PYTHAGOREAN_TWIST.values
    twist = Selector([pool[(3 * x) % len(pool)] for x in range(12)], rational("25/16"))
    return apply_selector(genutil.permuted(g, perm), twist)


def _approx_twisted_c_rep_hat_paley7():
    """An approx copy of the c-representation (label 3/5+4/5i) of
    hat(Paley-7), twisted by unit values: every coefficient of its report
    is a float, so the bytes pin the rounding of the approx recurrence."""
    pool = genutil.UNIT_POOL
    twist = Selector([pool[(5 * x + 4) % len(pool)] for x in range(8)])
    g = c_representation(hat(paley_tournament(7)), UNIT_C)
    return genutil.approx_copy(apply_selector(g, twist))


def _twisted_scaled_c_rep_zero_label():
    """The c-representation (label 3/5+4/5i) of a transitive tournament on
    8 vertices, twisted by Pythagorean units with scale 9/4, with the pair
    (0, 7) set to 0: every k sweeps many gauge-equivalent slices, none of
    them equal, before the first subset that holds the zero."""
    pool = PYTHAGOREAN_TWIST.values
    twist = Selector([pool[(5 * x + 1) % len(pool)] for x in range(8)], rational("9/4"))
    g = apply_selector(c_representation(transitive_tournament(8), UNIT_C), twist)
    rows = [list(row) for row in g.labels]
    rows[0][7] = rows[7][0] = GaussianScalar.exact(0)
    return HermitianStructure(rows)


def _jittered(seed, n):
    return genutil.jittered_c_representations(count=1, seed=seed, n=n)[0][1]


class TestGoldenBytes:
    """Reports pinned byte for byte. Spectra at orders 8 and 12 and
    check --all-k on the i-representations of hat(Paley-7) and hat(Paley-11)
    hold the bytes the per-subset recurrence printed before the Jacobi route
    existed. The classify and c3 reports, on labels with denominators, hold
    the bytes of the Fraction arithmetic that came before the cleared
    Gaussian-integer label matrix. The approx reports hold the float
    rounding of the recurrence that formed every entry of each power. The
    all-k report on a scaled, twisted c-representation with a zero label
    holds the bytes of the enumeration that keyed its memo on raw slices
    only."""

    def _out(self, tmp_path, capsys, name, value, *argv):
        path = write_doc(tmp_path, name + ".in.json", value)
        code = main([argv[0], "--input", path, *argv[1:]])
        return code, capsys.readouterr().out

    @pytest.mark.parametrize("q", [7, 11])
    def test_spectra(self, q, tmp_path, capsys):
        name = f"spectra_order{q + 1}"
        s = skew_adjacency(hat(paley_tournament(q)))
        code, out = self._out(tmp_path, capsys, name, s, "spectra")
        assert code == 0
        assert out == (GOLDEN / f"{name}.json").read_text()

    @pytest.mark.parametrize("q", [7, 11])
    def test_all_k(self, q, tmp_path, capsys):
        name = f"all_k_hat_paley{q}"
        g = i_representation(hat(paley_tournament(q)))
        code, out = self._out(tmp_path, capsys, name, g, "check", "--all-k")
        assert code == 1
        assert out == (GOLDEN / f"{name}.json").read_text()

    @pytest.mark.parametrize(
        "name, build, argv, exit_code",
        [
            ("classify_k3_twisted_rational", _twisted_rational_c_rep, ("classify", "--k", "3"), 0),
            ("classify_k3_phase_outside_pair", _phase_outside_pair, ("classify", "--k", "3"), 1),
            (
                "c3_hat_paley7_third",
                lambda: apply_selector(
                    i_representation(hat(paley_tournament(7))),
                    Selector.constant(8, GaussianScalar.exact("1/3")),
                ),
                ("c3", "--pair", "1,2", "--via-determinants"),
                0,
            ),
            (
                "classify_k9_scrambled_twisted_hat_paley11",
                _scrambled_twisted_hat_paley11,
                ("classify", "--k", "9"),
                0,
            ),
            (
                "all_k_approx_twisted_c_rep_hat_paley7",
                _approx_twisted_c_rep_hat_paley7,
                ("check", "--all-k"),
                1,
            ),
            (
                "classify_k3_approx_jittered",
                lambda: _jittered(6, 6),
                ("classify", "--k", "3"),
                1,
            ),
            (
                "check_k5_approx_jittered",
                lambda: _jittered(10, 7),
                ("check", "--k", "5"),
                1,
            ),
            (
                "all_k_twisted_scaled_zero_label",
                _twisted_scaled_c_rep_zero_label,
                ("check", "--all-k"),
                1,
            ),
        ],
    )
    def test_report(self, name, build, argv, exit_code, tmp_path, capsys):
        code, out = self._out(tmp_path, capsys, name, build(), *argv)
        assert code == exit_code
        assert out == (GOLDEN / f"{name}.json").read_text()


class TestJitteredApproxReduction:
    """Approx labels within the tolerance can pass each test of the
    canonical reduction while the selector built from them misses the input
    by a little more than eps. The CLI reports a verdict or an input error
    for them, never a crash."""

    def test_exit_codes(self, tmp_path, capsys):
        for index, (_, g) in enumerate(genutil.jittered_c_representations()):
            path = write_doc(tmp_path, f"j{index}.json", g)
            for command in ("classify", "check"):
                code, report = run(capsys, command, "--input", path, "--k", "3")
                assert code in (0, 1, 2, 3), report
                if code == 2:
                    assert report["error"]["kind"] == "input"


def test_approx_precision_loss_exits_as_input(tmp_path, capsys):
    """check --k 12 on float copies of twisted constant structures either
    reports a verdict or exits 2 with an input error, never a traceback."""
    value = GaussianScalar.exact("3/4")
    refused = 0
    for s in range(20):
        selector = genutil.random_selector(genutil.rng(s), 12)
        g = genutil.approx_copy(apply_selector(constant_structure(12, value), selector))
        path = write_doc(tmp_path, f"c{s}.json", g)
        code, report = run(capsys, "check", "--input", path, "--k", "12")
        assert code in (0, 2), report
        if code == 2:
            assert report["error"]["kind"] == "input"
            assert "lost precision" in report["error"]["message"]
            refused += 1
    assert refused > 0
