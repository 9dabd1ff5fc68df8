import json
import os
import re
import subprocess
import sys
from contextlib import contextmanager
from pathlib import Path

import pytest

from lct3 import Ideal
from lct3.cli import build_parser, input_digest, main

COORD = {"points": [["1", "0", "0"], ["0", "1", "0"], ["0", "0", "1"]]}
COLLINEAR = {"points": [["1", "0", "0"], ["0", "1", "0"], ["1", "1", "0"]]}
CONIC6 = {
    "points": [
        ["1", "0", "0"],
        ["1", "1", "1"],
        ["1", "-1", "1"],
        ["1", "2", "4"],
        ["1", "-2", "4"],
        ["1", "3", "9"],
    ]
}
FOUR_MIXED = {
    "points": [["1", "0", "0"], ["0", "1", "0"], ["1", "1", "0"], ["0", "0", "1"]]
}
ELEVEN_ON_CUBIC = {
    "points": [
        ["0", "1", "0"],
        ["0", "1", "1"],
        ["0", "-1", "1"],
        ["1", "1", "1"],
        ["1", "-1", "1"],
        ["-1", "1", "1"],
        ["-1", "-1", "1"],
        ["3", "5", "1"],
        ["3", "-5", "1"],
        ["1/4", "7/8", "1"],
        ["5", "11", "1"],
    ]
}


def write(tmp_path, doc, name="arr.json"):
    path = tmp_path / name
    path.write_text(json.dumps(doc))
    return str(path)


def run(capsys, argv):
    code = main(argv)
    captured = capsys.readouterr()
    doc = json.loads(captured.out) if captured.out.strip() else None
    return code, doc, captured.err


def test_classify_coordinate_points(tmp_path, capsys):
    code, doc, _ = run(capsys, ["classify", write(tmp_path, COORD)])
    assert code == 0
    c = doc["classification"]
    assert c["variant"] == "CaseA"
    assert c["d"] == 2
    assert c["ggds"] == [2]
    assert c["generator_degrees"] == [2]


def test_classify_eight_general(tmp_path, capsys):
    path = write(tmp_path, {"generator": {"general": 8, "seed": 42}})
    code, doc, _ = run(capsys, ["classify", path])
    assert code == 0
    c = doc["classification"]
    assert c["variant"] == "CaseC"
    assert (c["d"], c["e"]) == (3, 4)
    assert c["zd_degree"] == 9
    assert c["w_degree"] == 1
    assert doc["input"]["generator"] == {"general": 8, "seed": 42}


def test_classify_eleven_on_cubic(tmp_path, capsys):
    code, doc, _ = run(capsys, ["classify", write(tmp_path, ELEVEN_ON_CUBIC)])
    assert code == 0
    c = doc["classification"]
    assert c["variant"] == "Unsupported"
    assert c["reason"] == "3 geometric generating degrees"
    assert c["ggds"] == [3, 4, 5]


def test_mi_at_lct(tmp_path, capsys):
    code, doc, _ = run(
        capsys, ["mi", write(tmp_path, COORD), "--lambda", "3/2"]
    )
    assert code == 0
    assert doc["generators"] == ["x", "y", "z"]
    assert doc["branch"] == "A[0,2)"


def test_mi_unit(tmp_path, capsys):
    code, doc, _ = run(capsys, ["mi", write(tmp_path, COORD), "--lambda", "1"])
    assert code == 0
    assert doc["generators"] == ["1"]


def test_mi_conic_straddle(tmp_path, capsys):
    code, doc, _ = run(capsys, ["mi", write(tmp_path, CONIC6), "--lambda", "4/3"])
    assert code == 0
    assert doc["generators"] == ["x", "y", "z"]
    code, doc, _ = run(capsys, ["mi", write(tmp_path, CONIC6), "--lambda", "13/10"])
    assert code == 0
    assert doc["generators"] == ["1"]


def test_mi_unsupported_exits_3(tmp_path, capsys):
    code, doc, err = run(capsys, ["mi", write(tmp_path, FOUR_MIXED), "--lambda", "1"])
    assert code == 3
    assert doc is None
    assert "different dimensions" in err


def test_general_set_with_a_collinear_triple_is_unsupported(tmp_path, capsys):
    # general_points(5, 1495) has three points on a line (test_points)
    reason = "intermediate envelope is a singular curve"
    path = write(tmp_path, {"generator": {"general": 5, "seed": 1495}})
    code, doc, err = run(capsys, ["mi", path, "--lambda", "1"])
    assert (code, doc) == (3, None)
    assert err == f"lct3: unsupported arrangement: {reason}\n"
    code, doc, _ = run(capsys, ["classify", path])
    assert code == 0
    assert doc["classification"]["variant"] == "Unsupported"
    assert doc["classification"]["reason"] == reason


def test_lct_values(tmp_path, capsys):
    for doc_in, expected in [(COORD, "3/2"), (COLLINEAR, "5/3"), (CONIC6, "4/3")]:
        code, doc, _ = run(capsys, ["lct", write(tmp_path, doc_in)])
        assert code == 0
        assert doc["lct"] == expected


def test_lct_six_general(tmp_path, capsys):
    path = write(tmp_path, {"generator": {"general": 6, "seed": 6}})
    code, doc, _ = run(capsys, ["lct", path])
    assert code == 0
    assert doc["lct"] == "1"


def test_jumps(tmp_path, capsys):
    code, doc, _ = run(
        capsys, ["jumps", write(tmp_path, COORD), "--lambda-max", "2"]
    )
    assert code == 0
    assert doc["lct"] == "3/2"
    assert [j["lambda"] for j in doc["jumps"]] == ["3/2", "2"]
    assert doc["jumps"][0]["generators"] == ["x", "y", "z"]


def test_verify_ok(tmp_path, capsys):
    code, doc, _ = run(capsys, ["verify", write(tmp_path, COORD)])
    assert code == 0
    assert doc["ok"] is True
    assert {c["name"] for c in doc["checks"]} >= {
        "monomial-oracle",
        "valuation-oracle",
        "monotonicity",
        "power-containment",
    }


def test_verify_unsupported_exits_3(tmp_path, capsys):
    code, doc, _ = run(capsys, ["verify", write(tmp_path, FOUR_MIXED)])
    assert code == 3
    assert doc["ok"] is False
    assert doc["checks"][0]["name"] == "classification"


def test_output_is_byte_deterministic(tmp_path, capsys):
    path = write(tmp_path, CONIC6)
    main(["classify", path])
    first = capsys.readouterr().out
    main(["classify", path])
    second = capsys.readouterr().out
    assert first == second


def test_digest_round_trip(tmp_path, capsys):
    path = write(tmp_path, {"generator": {"general": 5, "seed": 5}})
    _, doc, _ = run(capsys, ["lct", path])
    echoed = doc["input"]["points"]
    assert input_digest(echoed) == doc["input"]["digest"]
    # feeding the echoed points back reproduces the digest
    path2 = write(tmp_path, {"points": echoed}, "echo.json")
    _, doc2, _ = run(capsys, ["lct", path2])
    assert doc2["input"]["digest"] == doc["input"]["digest"]
    assert doc2["lct"] == doc["lct"]


def test_seed_flag_overrides(tmp_path, capsys):
    path = write(tmp_path, {"generator": {"general": 5}})
    code, doc, _ = run(capsys, ["--seed", "9", "lct", path])
    assert code == 0
    assert doc["input"]["generator"]["seed"] == 9


def test_parse_errors_exit_2(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    code, _, err = run(capsys, ["classify", str(bad)])
    assert code == 2
    assert "line 1" in err

    code, _, err = run(
        capsys,
        ["classify", write(tmp_path, {"points": [["1", "0", "0"], ["2", "0", "0"]]})],
    )
    assert code == 2
    assert "repeated point" in err

    code, _, err = run(
        capsys, ["classify", write(tmp_path, {"points": [[0.5, 1, 0]]})]
    )
    assert code == 2
    assert "points[0][0]" in err

    code, _, err = run(capsys, ["mi", write(tmp_path, COORD), "--lambda", "-1"])
    assert code == 2

    code, _, err = run(capsys, ["mi", write(tmp_path, COORD), "--lambda", "three"])
    assert code == 2

    # a JSON boolean is not an integer, though Python's bool is an int
    for doc, message in [
        ({"generator": {"general": True, "seed": False}}, "expected an integer in 1.."),
        ({"generator": {"general": 3, "seed": False}}, "an integer seed is required"),
        ({"points": [[True, "0", "0"]]}, "points[0][0]: expected a rational string"),
    ]:
        code, _, err = run(capsys, ["classify", write(tmp_path, doc)])
        assert code == 2 and message in err, doc


def test_no_command_builds_the_fraction_basis(tmp_path, capsys, monkeypatch):
    # every document prints the integer basis, in each case kind
    def refuse(I):
        raise AssertionError("a command asked for the monic Fraction basis")

    monkeypatch.setattr(Ideal, "groebner", refuse)
    eight_general = {"generator": {"general": 8, "seed": 42}}
    for variant, doc in [("CaseA", COORD), ("CaseB", COLLINEAR), ("CaseC", eight_general)]:
        path = write(tmp_path, doc)
        for argv in (["classify"], ["mi", "--lambda", "5/2"], ["lct"], ["jumps"]):
            code, out, _ = run(capsys, [argv[0], path] + argv[1:])
            assert code == 0 and out["classification"]["variant"] == variant, argv
        code, out, _ = run(capsys, ["verify", path])
        assert code == 0 and out["ok"], variant


def calls_in_one_process(capsys, argvs, fresh):
    """(exit code, stdout) of each call in turn; with fresh, each call
    builds its own parser."""
    out = []
    for argv in argvs:
        if fresh:
            build_parser.cache_clear()
        try:
            code = main(argv)
        except SystemExit as exc:  # argparse rejected the arguments
            code = exc.code
        out.append((code, capsys.readouterr().out))
    return out


def test_one_parser_serves_every_call(tmp_path, capsys):
    # the parser is built on the first call and shared by the later ones,
    # and no option of one call reaches the next
    path = write(tmp_path, CONIC6)
    argvs = [
        ["mi", path],  # --lambda missing
        ["--pretty", "mi", path, "--lambda", "1/2"],
        ["classify", path],
        ["jumps", path],
    ]
    build_parser.cache_clear()
    shared = calls_in_one_process(capsys, argvs, fresh=False)
    assert build_parser.cache_info().misses == 1
    assert [code for code, _ in shared] == [2, 0, 0, 0]
    assert shared[2][1].count("\n") == 1  # not indented
    assert json.loads(shared[3][1])["lambda_max"] == "3"
    assert shared == calls_in_one_process(capsys, argvs, fresh=True)


def test_pretty_flag(tmp_path, capsys):
    code, _, _ = run(capsys, ["--pretty", "lct", write(tmp_path, COORD)])
    assert code == 0


def test_generator_requires_seed(tmp_path, capsys):
    path = write(tmp_path, {"generator": {"general": 5}})
    code, _, err = run(capsys, ["lct", path])
    assert code == 2
    assert "seed" in err


def test_classify_analyses_one_chart_of_one_envelope(
    tmp_path, capsys, monkeypatch, cold_caches
):
    # each fact once: classify and the CLI document read one stored report,
    # and for general points the chart z = 1 decides it alone
    from lct3 import envelopes, zerodim

    reports, charts = [], []
    report_fn, chart_fn = envelopes.zero_dim_report, zerodim._chart_reduced
    monkeypatch.setattr(
        envelopes, "zero_dim_report", lambda I: reports.append(I) or report_fn(I)
    )
    monkeypatch.setattr(
        zerodim, "_chart_reduced", lambda J: charts.append(J) or chart_fn(J)
    )
    path = write(tmp_path, {"generator": {"general": 8, "seed": 42}})
    code, doc, _ = run(capsys, ["classify", path])
    assert code == 0
    assert doc["classification"]["zd_degree"] == 9
    assert len(reports) == 1
    assert len(charts) == 1


def test_out_of_range_exponents_exit_2(tmp_path, capsys):
    # each is refused before any ideal is built, with a message, not a traceback
    path = write(tmp_path, COORD)
    for argv in (
        ["mi", path, "--lambda", "11"],
        ["mi", path, "--lambda=-1/2"],
        ["jumps", path, "--lambda-max", "11"],
        ["verify", path, "--grid", "1/2,11"],
        ["verify", path, "--grid", "-1"],
    ):
        code, doc, err = run(capsys, argv)
        assert code == 2, argv
        assert doc is None
        assert err.startswith("lct3: --") and ("[0, 10]" in err or "(0, 10]" in err)
        assert "Traceback" not in err
    code, doc, _ = run(capsys, ["mi", path, "--lambda", "10"])
    assert code == 0 and doc["branch"] == "skoda-recursion"


def test_unsupported_message_is_one_line(tmp_path, capsys):
    reason = "intermediate envelope has components of different dimensions"
    path = write(tmp_path, FOUR_MIXED)
    for argv in (
        ["mi", path, "--lambda", "1"],
        ["lct", path],
        ["jumps", path, "--lambda-max", "2"],
    ):
        code, doc, err = run(capsys, argv)
        assert code == 3
        assert doc is None
        assert err == f"lct3: unsupported arrangement: {reason}\n"


def test_explicit_points_are_capped(tmp_path, capsys):
    # explicit input has the generator's cap: 16 points exit 2 before any
    # computation, 15 are classified
    conic = [["1", str(t), str(t * t)] for t in range(16)]
    code, doc, err = run(capsys, ["classify", write(tmp_path, {"points": conic})])
    assert code == 2
    assert doc is None
    assert err == "lct3: field 'points': at most 15 points\n"
    code, doc, _ = run(capsys, ["classify", write(tmp_path, {"points": conic[:15]})])
    assert code == 0
    assert doc["classification"]["variant"] == "CaseB"


def test_unsampleable_generator_exits_2(tmp_path, capsys, monkeypatch):
    # every resample fails the generality check: one line on stderr, no
    # traceback
    from lct3 import points

    monkeypatch.setattr(points, "is_rank_general", lambda Z: False)
    path = write(tmp_path, {"generator": {"general": 5, "seed": 3}})
    code, doc, err = run(capsys, ["classify", path])
    assert code == 2
    assert doc is None
    assert err == (
        "lct3: generator: could not sample a general 5-point set (seed 3); "
        "try another seed\n"
    )


# eight points with 6-digit coordinates: a Case C set whose printed bases
# hold integers of more than 700 digits
SIX_DIGITS = {
    "points": [
        ["240891", "696853", "988598"],
        ["941235", "900875", "166172"],
        ["367459", "223646", "619501"],
        ["897926", "571325", "595185"],
        ["783244", "498055", "927036"],
        ["320153", "198418", "611554"],
        ["129724", "976363", "508744"],
        ["553789", "736944", "899308"],
    ]
}


@contextmanager
def digit_limit(limit):
    saved = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(limit)
    try:
        yield
    finally:
        sys.set_int_max_str_digits(saved)


def test_output_integers_of_any_length(tmp_path, capsys):
    # the interpreter's digit limit guards input only: under a limit of
    # 640 digits the document is printed whole, and the limit is kept
    path = write(tmp_path, SIX_DIGITS)
    with digit_limit(0):
        assert main(["classify", path]) == 0
        unlimited = capsys.readouterr().out
    assert max(map(len, re.findall(r"\d+", unlimited))) > 640
    with digit_limit(640):
        code = main(["classify", path])
        assert sys.get_int_max_str_digits() == 640
    captured = capsys.readouterr()
    assert code == 0
    assert captured.out == unlimited
    assert captured.err == ""


def test_oversized_input_numbers_exit_2(tmp_path, capsys):
    # in exponent notation, too: the exponent is refused before any number
    # is built, so even 10**(10**30 - 1) costs nothing
    with digit_limit(4300):
        for huge in (
            "1" * 5000,
            "1e5000",
            "1e-5000",
            "2.5E+9999",
            "1e" + "9" * 30,
            "1" * 300 + "e4100",  # digits and exponent pass the limit together
        ):
            for argv in (
                ["mi", write(tmp_path, COORD), "--lambda", huge],
                ["jumps", write(tmp_path, COORD), "--lambda-max", huge],
                ["verify", write(tmp_path, COORD), "--grid", f"1,{huge}"],
                ["classify", write(tmp_path, {"points": [[huge, "1", "0"]]})],
            ):
                code, doc, err = run(capsys, argv)
                assert code == 2 and doc is None
                assert err.startswith("lct3: ") and "exceeds the limit" in err.lower()
        huge = "1" * 5000
        # a bare JSON integer is refused while the file is parsed
        bare = tmp_path / "bare.json"
        bare.write_text('{"points": [[' + huge + ", 1, 0]]}")
        code, doc, err = run(capsys, ["classify", str(bare)])
        assert (code, doc) == (2, None)
        assert err.startswith("lct3: invalid JSON: ")
        assert sys.get_int_max_str_digits() == 4300


def test_normalized_points_are_echoed_whole(tmp_path, capsys):
    # dividing by the first coordinate makes the echoed coordinate longer
    # than any input number
    a, b = "1" + "3" * 3000, "1/" + "7" * 3000
    path = write(tmp_path, {"points": [[a, b, "1"], ["0", "1", "0"], ["0", "0", "1"]]})
    with digit_limit(4300):
        code, doc, _ = run(capsys, ["classify", path])
    assert code == 0
    assert len(doc["input"]["points"][0][1]) > 4300


def test_repeated_point_is_named_whole(tmp_path, capsys):
    # the normalized coordinate has more digits than the limit allows to print
    a, b = "1" + "3" * 3000, "1/" + "7" * 3000
    path = write(tmp_path, {"points": [[a, b, "1"], [a, b, "1"]]})
    with digit_limit(4300):
        code, doc, err = run(capsys, ["classify", path])
        assert sys.get_int_max_str_digits() == 4300
    assert (code, doc) == (2, None)
    assert err.startswith("lct3: repeated point [1:")
    assert len(err) > 4300 and "Exceeds the limit" not in err


def test_exponent_notation_within_the_digit_limit(tmp_path, capsys):
    with digit_limit(4300):
        code, doc, _ = run(capsys, ["mi", write(tmp_path, CONIC6), "--lambda", "0.125E1"])
        assert code == 0 and doc["lambda"] == "5/4"
        points = {"points": [["1e4299", "0", "0"], ["0", "1e-4299", "0"], ["0", "0", "1"]]}
        code, doc, _ = run(capsys, ["classify", write(tmp_path, points)])
        assert code == 0


@pytest.mark.parametrize(
    "doc, argv, read",
    [
        # the document (about 300 KB) outgrows the pipe's buffer, so the
        # reader closes it while the writer still has most of it to write
        ({"generator": {"general": 6, "seed": 1}}, ["mi", "--lambda", "4"], 100),
        # a short document waits in stdout's buffer until it is flushed
        (COORD, ["classify"], 0),
    ],
    ids=["while-printing", "at-the-flush"],
)
def test_closed_stdout_exits_1_without_a_traceback(tmp_path, doc, argv, read):
    src = str(Path(__file__).resolve().parent.parent / "src")
    # stdout buffered, as by default
    env = {k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"}
    env["PYTHONPATH"] = src
    command, *flags = argv
    proc = subprocess.Popen(
        [sys.executable, "-m", "lct3", command, write(tmp_path, doc), *flags],
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        env=env,
        cwd=tmp_path,
    )
    try:
        assert len(proc.stdout.read(read)) == read
        proc.stdout.close()
        err = proc.stderr.read().decode()
        assert proc.wait(timeout=60) == 1
    finally:
        proc.kill()
        proc.wait()
    assert "Traceback" not in err and "Error" not in err


def test_module_entry_point_runs_the_cli(tmp_path):
    src = str(Path(__file__).resolve().parent.parent / "src")
    env = {**os.environ, "PYTHONPATH": src}
    done = subprocess.run(
        [sys.executable, "-m", "lct3", "classify", "-"],
        input=json.dumps(COORD),
        capture_output=True,
        text=True,
        env=env,
        cwd=tmp_path,
        timeout=60,
    )
    assert done.returncode == 0, done.stderr
    assert json.loads(done.stdout)["classification"]["variant"] == "CaseA"
