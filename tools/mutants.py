"""Apply a catalogue of named mutants one at a time and run the tests.

Each catalogue entry names a file, a text in it, the text that replaces it
and, for a mutant that cannot change any result, the reason it is
equivalent. The tool copies src/, tests/, tools/, bench/ and pyproject.toml
to a temporary directory once, then for each entry writes the mutated file
alone into that copy, runs pytest with -x there and restores the file. Run
from anywhere:

    python3 tools/mutants.py                  # every entry, all of Tier-1
    python3 tools/mutants.py NAME ...         # the named entries
    python3 tools/mutants.py NAME -- ARGS     # pytest ARGS instead of Tier-1

The test that checks this catalogue against the tree is deselected in the
mutated copy, where the applied entry's old text is gone by design; the
tool makes the same check on the real tree before any test runs.
It prints one line per entry: killed or survived, the entry's name, the
seconds it took and the first failing test, or the reason an equivalent
mutant survives. An entry whose old text is not in its file exactly once is
an error, checked for every entry before any test runs, so a change to a
mutated line must update the catalogue. The exit code is 0 when every entry
that is not marked equivalent is killed, 1 when one survives and 2 on a
catalogue or usage error. Only the standard library is used.
"""

import os
import shutil
import signal
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from typing import NamedTuple, Optional

ROOT = Path(__file__).resolve().parent.parent
COPIED = ("src", "tests", "tools", "bench", "pyproject.toml")
TIMEOUT_S = 900
LIVE_CATALOGUE_TEST = "tests/test_tools.py::test_mutant_catalogue_names_live_lines"


class Mutant(NamedTuple):
    name: str
    path: str
    old: str
    new: str
    equivalent: Optional[str] = None


_CHARPOLY = "src/spectramono/charpoly.py"
_MONOMORPHY = "src/spectramono/monomorphy.py"
_CLASSIFY = "src/spectramono/classify.py"
_CONSTRUCTIONS = "src/spectramono/constructions.py"

CATALOGUE = (
    Mutant(
        "jacobi_minors_at_k_minus_1_points",
        _CHARPOLY,
        "zip(points[:k], values)\n    ]\n    for index, t in enumerate(deletions):\n"
        "        if _complementary_minors(adj, n, t, k) == expected:",
        "zip(points[: k - 1], values)\n    ]\n    for index, t in enumerate(deletions):\n"
        "        if _complementary_minors(adj, n, t, k - 1) == expected:",
    ),
    Mutant(
        "adjugates_at_count_minus_1_points",
        _CHARPOLY,
        "range(1, count + 1)]",
        "range(1, count)]",
    ),
    Mutant(
        "adjugate_points_from_bound_plus_one",
        _CHARPOLY,
        "bound + 1 + j",
        "bound + j",
        equivalent="bound, the largest row sum of |re| + |im|, already bounds every "
        "eigenvalue, so P_A is positive from bound + 1 on",
    ),
    Mutant(
        "jacobi_tail_skips_a_subset",
        _MONOMORPHY,
        "[::-1][checked:]",
        "[::-1][checked + 1 :]",
    ),
    Mutant(
        "jacobi_tail_only_at_n_minus_k_2",
        _MONOMORPHY,
        "k >= 4 and n - k <= 3\n",
        "k >= 4 and n - k <= 2\n",
    ),
    Mutant(
        "class_key_without_zero_lead_guard",
        _MONOMORPHY,
        "    if (0, 0) in lead:\n        return None\n",
        "",
    ),
    Mutant(
        "class_key_without_norms",
        _MONOMORPHY,
        "tuple([re * re + im * im for re, im in lead] + _phase_products(m, s, rest))",
        "tuple(_phase_products(m, s, rest))",
    ),
    Mutant(
        "class_memo_keeps_keyless_slices",
        _MONOMORPHY,
        "if gauge is not None and len(classes) < _MEMO_BOUND:",
        "if len(classes) < _MEMO_BOUND:",
    ),
    Mutant(
        "check_action_disabled",
        "src/spectramono/core.py",
        "    rows, den = _acted(g, pairs, scale_sq)\n",
        "    return\n",
    ),
    Mutant(
        "negative_disagreement_unchecked",
        _CLASSIFY,
        "if report.monomorphic and not degenerate:",
        "if False:",
    ),
    Mutant(
        "deletion_cross_check_disabled",
        _CHARPOLY,
        "        if coefficients == descending:\n",
        "        if False:\n",
    ),
    Mutant(
        "compare_polys_always_equal",
        "src/spectramono/scalars.py",
        "        if diff > tol:\n",
        "        if False:\n",
    ),
    Mutant(
        "reduction_orientation_flipped",
        _CLASSIFY,
        "if not real and gamma[1] < 0:",
        "if not real and gamma[1] > 0:",
    ),
    Mutant(
        "drt_certificate_skips_the_last_vertex",
        _CONSTRUCTIONS,
        "    for u, v in combinations(range(n), 2):\n",
        "    for u, v in combinations(range(n - 1), 2):\n",
    ),
    Mutant(
        "pairs_match_ignores_imaginary_parts",
        "src/spectramono/scalars.py",
        "return negligible(a[0] - b[0], ref, mode) and negligible(a[1] - b[1], ref, mode)",
        "return negligible(a[0] - b[0], ref, mode)",
    ),
    Mutant(
        "in_mask_keeps_i",
        "src/spectramono/core.py",
        "& ~self.rows[i] & ~(1 << i)",
        "& ~self.rows[i]",
    ),
    Mutant(
        "hadamard_gram_of_columns",
        _CONSTRUCTIONS,
        'else (e, "H H^T", n)',
        'else (tuple(zip(*e)), "H H^T", n)',
    ),
    Mutant(
        "skew_scan_only_for_skew_hadamard",
        _CONSTRUCTIONS,
        'if kind.startswith("skew"):',
        'if kind == "skew_hadamard":',
    ),
    Mutant(
        "c3_counts_the_dominator",
        "src/spectramono/cli.py",
        "    o3 -= 1\n",
        "",
    ),
)


def problems(catalogue=CATALOGUE):
    """One message for each entry whose old text is not in its file
    exactly once, and for each repeated name."""
    found = []
    names = [m.name for m in catalogue]
    for name in sorted({n for n in names if names.count(n) > 1}):
        found.append(f"{name}: the name is used more than once")
    for m in catalogue:
        path = ROOT / m.path
        if not path.is_file():
            found.append(f"{m.name}: no file {m.path}")
            continue
        count = path.read_text().count(m.old)
        if count != 1:
            found.append(f"{m.name}: old text found {count} times in {m.path}, not once")
    return found


def first_failure(output):
    """The test named on the first FAILED or ERROR line of pytest's short
    summary, or None."""
    for line in output.splitlines():
        for tag in ("FAILED ", "ERROR "):
            if line.startswith(tag):
                return line[len(tag) :].split(" - ")[0].strip()
    return None


def run_pytest(tree, args):
    """(exit code or None on timeout, output) of pytest -x in tree."""
    env = dict(os.environ, PYTHONDONTWRITEBYTECODE="1")
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(tree / "src"), env.get("PYTHONPATH")]))
    argv = [sys.executable, "-m", "pytest", "-x", "-q", "-p", "no:cacheprovider"]
    argv += ["--deselect", LIVE_CATALOGUE_TEST, *args]
    proc = subprocess.Popen(
        argv,
        cwd=tree,
        env=env,
        stdout=subprocess.PIPE,
        stderr=subprocess.STDOUT,
        text=True,
        start_new_session=True,
    )
    try:
        output, _ = proc.communicate(timeout=TIMEOUT_S)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        output, _ = proc.communicate()
        return None, output
    return proc.returncode, output


def run(mutant, tree, args):
    """(killed, line to print) for one entry, applied alone to tree."""
    path = tree / mutant.path
    original = path.read_text()
    path.write_text(original.replace(mutant.old, mutant.new, 1))
    start = time.perf_counter()
    try:
        code, output = run_pytest(tree, args)
    finally:
        path.write_text(original)
    seconds = time.perf_counter() - start
    if code in (0, 1, 2, None):
        killed = code != 0
    else:
        # an internal or usage error, or no tests collected, decides nothing
        print(f"{mutant.name}: pytest exited {code}\n{output}", file=sys.stderr)
        raise SystemExit(2)
    if not killed:
        note = f"(equivalent: {mutant.equivalent})" if mutant.equivalent else "(no test failed)"
    elif code is None:
        note = f"(timed out after {TIMEOUT_S} s)"
    else:
        note = first_failure(output) or "(pytest stopped with no test named)"
    verdict = "killed" if killed else "survived"
    return killed, f"{verdict:9} {mutant.name:40} {seconds:6.1f} s  {note}"


def main(argv):
    split = argv.index("--") if "--" in argv else len(argv)
    names, args = argv[:split], argv[split + 1 :]
    by_name = {m.name: m for m in CATALOGUE}
    unknown = [n for n in names if n not in by_name]
    if unknown:
        print(f"unknown mutants: {', '.join(unknown)}", file=sys.stderr)
        return 2
    chosen = [by_name[n] for n in names] if names else list(CATALOGUE)
    found = problems(chosen)
    if found:
        print("\n".join(found), file=sys.stderr)
        return 2
    survivors = 0
    with tempfile.TemporaryDirectory(prefix="mutants-") as tmp:
        tree = Path(tmp)
        for part in COPIED:
            source = ROOT / part
            if source.is_dir():
                ignore = shutil.ignore_patterns("__pycache__", ".work", ".pytest_cache")
                shutil.copytree(source, tree / part, ignore=ignore)
            else:
                shutil.copy2(source, tree / part)
        for mutant in chosen:
            killed, line = run(mutant, tree, args)
            print(line, flush=True)
            survivors += not killed and mutant.equivalent is None
    equivalent = sum(m.equivalent is not None for m in chosen)
    print(f"{len(chosen)} mutants, {equivalent} marked equivalent, {survivors} others survived")
    return 1 if survivors else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
