"""CLI contract tests: CSV shapes, exit codes, determinism, formatting."""

import csv
import gc
import io
import math
import sys

import pytest

import luroth.cli
import luroth.simulation
from luroth.cli import main
from luroth.trimming import c_k


def run_cli(argv, capsys):
    code = main(argv)
    out = capsys.readouterr().out
    rows = list(csv.reader(io.StringIO(out)))
    return code, rows


class TestRho:
    def test_exact_single_row(self, capsys):
        code, rows = run_cli(["rho", "--kmax", "2", "--mode", "exact"], capsys)
        assert code == 0
        assert rows[0] == ["k", "method", "value", "error_bound"]
        assert len(rows) == 2
        k, method, value, bound = rows[1]
        assert (k, method) == ("2", "exact-formula")
        assert abs(float(value) - 0.7101318663035471) < 1e-15
        assert float(bound) <= 2.0**-128

    def test_all_modes_consistent(self, capsys):
        code, rows = run_cli(
            ["rho", "--kmax", "3", "--mode", "all", "--samples", "100000"], capsys)
        assert code == 0
        assert len(rows) == 1 + 3 * 2
        by_key = {(r[0], r[1]): (float(r[2]), float(r[3])) for r in rows[1:]}
        for k in ("2", "3"):
            exact, eb = by_key[(k, "exact-formula")]
            series, sb = by_key[(k, "series")]
            mc, se = by_key[(k, "monte-carlo")]
            assert abs(exact - series) <= eb + sb
            assert abs(exact - mc) <= 4 * se

    def test_usage_errors(self, capsys):
        assert main(["rho", "--kmax", "1"]) == 2
        capsys.readouterr()
        with pytest.raises(SystemExit) as exc:
            main(["rho", "--mode", "bogus"])
        assert exc.value.code == 2

    def test_series_at_tight_tol(self, capsys):
        code, rows = run_cli(["rho", "--mode", "series", "--kmax", "40",
                              "--tol", "1e-12"], capsys)
        assert code == 0
        assert len(rows) == 40
        assert all(float(r[3]) <= 1e-12 + 2.0**-44 for r in rows[1:])

    def test_float_format_roundtrips(self, capsys):
        _, rows = run_cli(["rho", "--kmax", "2", "--mode", "exact"], capsys)
        for text in rows[1][2:]:
            assert text == f"{float(text):.17g}"


class TestExpand:
    def test_example_half(self, capsys):
        code, rows = run_cli(["expand", "1/2", "--count", "3"], capsys)
        assert code == 0
        assert rows[0] == ["index", "digit"]
        assert [r[1] for r in rows[1:4]] == ["2", "1", "1"]
        assert rows[4] == ["remainder", "1"]

    def test_fixed_point_one(self, capsys):
        code, rows = run_cli(["expand", "1", "--count", "2"], capsys)
        assert code == 0
        assert [r[1] for r in rows[1:3]] == ["1", "1"]

    def test_decimal_input(self, capsys):
        # decimal strings are parsed as exact rationals (0.3 = 3/10)
        code, rows = run_cli(["expand", "0.3", "--count", "2"], capsys)
        assert code == 0
        assert rows[1] == ["1", "3"]

    def test_rejections(self, capsys):
        for bad in (["expand", "3/2"], ["expand", "0"], ["expand", "x/y"],
                    ["expand", "1/0"], ["expand", "1/2", "--count", "0"]):
            assert main(bad) == 2
            capsys.readouterr()


class TestReconstruct:
    def test_example(self, capsys):
        code, rows = run_cli(["reconstruct", "2,1"], capsys)
        assert code == 0
        assert rows[1] == ["exact", "5/12"]
        assert abs(float(rows[2][1]) - 5.0 / 12.0) < 1e-16

    def test_rejections(self, capsys):
        for bad in ("2,x", "", "0,3", "-1"):
            assert main(["reconstruct", bad]) == 2
            capsys.readouterr()


class TestJ2:
    def test_small_table(self, capsys):
        code, rows = run_cli(["j2", "--nmax", "10"], capsys)
        assert code == 0
        assert rows[0] == ["N", "partial_sum"]
        assert len(rows) == 1 + 8
        assert [r[0] for r in rows[1:]] == [str(n) for n in range(3, 11)]
        vals = [float(r[1]) for r in rows[1:]]
        assert abs(vals[0] - 0.598) < 1e-3
        assert all(b > a for a, b in zip(vals, vals[1:]))

    def test_rejects_tiny(self, capsys):
        assert main(["j2", "--nmax", "2"]) == 2
        capsys.readouterr()


class TestTrim:
    def test_shape_and_targets(self, capsys):
        code, rows = run_cli(["trim", "--kmax", "100", "--seeds", "2"], capsys)
        assert code == 0
        assert rows[0] == ["seed", "k", "statistic", "c_k"]
        assert len(rows) == 1 + 2 * 2  # seeds x checkpoints {10, 100}
        for r in rows[1:]:
            assert math.isfinite(float(r[2]))
            assert abs(float(r[3]) - c_k(int(r[1]))) < 1e-15
        assert [r[1] for r in rows[1:3]] == ["10", "100"]

    def test_seed_base_offsets(self, capsys):
        _, rows = run_cli(["trim", "--kmax", "10", "--seeds", "2",
                           "--seed", "7"], capsys)
        assert sorted({r[0] for r in rows[1:]}) == ["7", "8"]


class TestMaxdist:
    def test_columns_and_references(self, capsys):
        code, rows = run_cli(["maxdist", "--k", "50", "--c", "1",
                              "--samples", "10000"], capsys)
        assert code == 0
        assert rows[0] == ["c", "empirical", "exact_finite_k", "limit_exp"]
        c, emp, exact, lim = map(float, rows[1])
        assert c == 1.0
        assert abs(exact - (1.0 - 1.0 / 50.0) ** 50) < 1e-15
        assert abs(lim - math.exp(-1.0)) < 1e-15
        assert abs(emp - exact) < 0.02

    def test_default_c_grid(self, capsys):
        _, rows = run_cli(["maxdist", "--k", "20", "--samples", "10000"], capsys)
        assert [r[0] for r in rows[1:]] == ["0.5", "1", "2"]

    def test_tiny_c_exact_zero(self, capsys):
        # threshold floor(c*k) can be 0: the CDF is exactly zero there
        _, rows = run_cli(["maxdist", "--k", "3", "--c", "0.1",
                           "--samples", "10000"], capsys)
        assert float(rows[1][2]) == 0.0


class TestCf:
    def test_rho_table(self, capsys):
        code, rows = run_cli(["cf", "--k", "2", "--samples", "10000"], capsys)
        assert code == 0
        assert rows[0] == ["k", "rho_hat", "se"]
        assert 0.7 < float(rows[1][1]) < 0.9

    def test_trimmed_reports_both_constants(self, capsys):
        code, rows = run_cli(["cf", "--k", "8", "--statistic", "trimmed",
                              "--samples", "10000"], capsys)
        assert code == 0
        assert rows[0] == ["k", "median", "se", "dist_log2", "dist_inv_log2"]
        med, d1, d2 = float(rows[1][1]), float(rows[1][3]), float(rows[1][4])
        assert abs(d1 - abs(med - math.log(2.0))) < 1e-12
        assert abs(d2 - abs(med - 1.0 / math.log(2.0))) < 1e-12

    def test_no_depth_cap(self, capsys):
        code, rows = run_cli(["cf", "--k", "41", "--samples", "10000"], capsys)
        assert code == 0
        assert [r[0] for r in rows] == ["k", "41"]

    def test_rows_keep_k_order(self, capsys):
        for statistic in ("rho", "trimmed"):
            _, rows = run_cli(["cf", "--k", "16", "--k", "2", "--statistic", statistic,
                               "--samples", "10000"], capsys)
            _, alone = run_cli(["cf", "--k", "2", "--statistic", statistic,
                                "--samples", "10000"], capsys)
            assert [r[0] for r in rows[1:]] == ["16", "2"]
            assert rows[2] == alone[1]

    def test_rejections(self, capsys):
        assert main(["cf", "--k", "0"]) == 2
        capsys.readouterr()
        assert main(["cf", "--samples", "100"]) == 2
        capsys.readouterr()
        assert main(["cf", "--k", "1", "--statistic", "trimmed",
                     "--samples", "10000"]) == 2
        capsys.readouterr()


class TestInvalidFlags:
    # each is a usage error caught before any output: exit 2, empty stdout
    CASES = [
        ["cf", "--statistic", "trimmed", "--k", "8", "--k", "1",
         "--samples", "10000"],
        ["rho", "--mode", "mc", "--kmax", "3", "--samples", "1000",
         "--seed", "-1"],
        ["rho", "--mode", "mc", "--kmax", "3", "--samples", "1000",
         "--seed", str(1 << 64)],
        ["trim", "--kmax", "100", "--seeds", "2", "--seed", str((1 << 64) - 1)],
        ["maxdist", "--k", "10", "--samples", "1000", "--seed", str(1 << 64)],
        ["cf", "--k", "2", "--samples", "10000", "--seed", "-3"],
        ["maxdist", "--k", "10", "--c", "1", "--c", "inf", "--samples", "1000"],
        ["maxdist", "--k", "10", "--c", "nan", "--samples", "1000"],
        ["maxdist", "--k", "1000", "--c", "1e306", "--samples", "1000"],
        ["rho", "--mode", "series", "--kmax", "3", "--tol", "inf"],
        ["rho", "--mode", "series", "--kmax", "3", "--tol", "2"],
        ["rho", "--mode", "series", "--kmax", "3", "--tol", "1e-16"],
    ]

    @pytest.mark.parametrize("argv", CASES, ids=lambda a: " ".join(a))
    def test_exit_2_with_empty_stdout(self, argv, capsys):
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("usage error:")

    def test_last_seed_at_the_top_of_the_range(self, capsys):
        code, rows = run_cli(["trim", "--kmax", "10", "--seeds", "1",
                              "--seed", str((1 << 64) - 1)], capsys)
        assert code == 0
        assert rows[1][0] == str((1 << 64) - 1)


class TestPinnedSampledTables:
    # the bytes these tables had when each row drew its own pass; the one-pass
    # tables must keep them, so a change of block layout or draw order shows
    RHO = (
        "k,method,value,error_bound\n"
        "2,monte-carlo,0.70699999999999996,0.010177204920802176\n"
        "3,monte-carlo,0.79649999999999999,0.0090024371700112415\n"
        "4,monte-carlo,0.84799999999999998,0.0080279511707533457\n"
        "5,monte-carlo,0.87849999999999995,0.0073054003997043183\n"
        "6,monte-carlo,0.90000000000000002,0.0067082039324993679\n"
    )
    MAXDIST = (
        "c,empirical,exact_finite_k,limit_exp\n"
        "0.5,0.125,0.12988579352203863,0.1353352832366127\n"
        "1,0.35799999999999998,0.36416968008711709,0.36787944117144233\n"
        "2,0.60050000000000003,0.60500606713753668,0.60653065971263342\n"
    )

    def test_rho_mc(self, capsys):
        assert main(["rho", "--mode", "mc", "--kmax", "6", "--samples", "2000",
                     "--seed", "3"]) == 0
        assert capsys.readouterr().out == self.RHO

    # the CF tables as the per-block dicts and concatenation left them
    CF_RHO = (
        "k,rho_hat,se\n"
        "2,0.8003885658776303,0.0015107445049237971\n"
        "8,0.93332952386394485,0.0009428273196273022\n"
        "16,0.96251482121683973,0.00071792881394997139\n"
    )
    CF_TRIMMED = (
        "k,median,se,dist_log2,dist_inv_log2\n"
        "2,0.72134752044448169,0.0093325488786084789,0.028200339884536407,"
        "0.72134752044448169\n"
        "8,1.0820212806667227,0.006755040468458001,0.38887410010677737,"
        "0.36067376022224074\n"
        "16,1.1496476107083928,0.0047576030235770821,0.45650043014844754,"
        "0.29304743018057056\n"
    )

    def test_maxdist(self, capsys):
        assert main(["maxdist", "--k", "50", "--c", "0.5", "--c", "1",
                     "--c", "2", "--samples", "2000", "--seed", "3"]) == 0
        assert capsys.readouterr().out == self.MAXDIST

    @pytest.mark.parametrize("statistic", ["rho", "trimmed"])
    def test_cf(self, statistic, capsys):
        assert main(["cf", "--statistic", statistic, "--k", "2", "--k", "8", "--k", "16",
                     "--samples", "70001", "--seed", "3"]) == 0
        want = self.CF_RHO if statistic == "rho" else self.CF_TRIMMED
        assert capsys.readouterr().out == want


class TestPinnedExactTables:
    # the bytes of the exact route when it rounded through Fraction; at 8 bits
    # the 2^-24 rounding grid of the value and the bound show in 17 digits
    DEFAULT = (
        "k,method,value,error_bound\n"
        "2,exact-formula,0.71013186630354708,2.2420775429197073e-44\n"
        "3,exact-formula,0.80176410784474494,2.2420775429197073e-44\n"
        "4,exact-formula,0.84546364395861562,2.2420775429197073e-44\n"
        "5,exact-formula,0.86963259309909779,2.2420775429197073e-44\n"
        "6,exact-formula,0.88545083611194741,2.2420775429197073e-44\n"
    )
    EIGHT_BITS = (
        "k,method,value,error_bound\n"
        "2,exact-formula,0.71013188362121582,2.9802322387695312e-08\n"
        "3,exact-formula,0.80176413059234619,2.9802322387695312e-08\n"
        "4,exact-formula,0.84546363353729248,2.9802322387695312e-08\n"
        "5,exact-formula,0.86963260173797607,2.9802322387695312e-08\n"
        "6,exact-formula,0.88545083999633789,2.9802322387695312e-08\n"
    )

    @pytest.mark.parametrize("extra, want", [([], DEFAULT),
                                             (["--precision-bits", "8"], EIGHT_BITS)])
    def test_rho_exact(self, extra, want, capsys):
        assert main(["rho", "--mode", "exact", "--kmax", "6"] + extra) == 0
        assert capsys.readouterr().out == want


class TestPinnedRowFormats:
    # the bytes these tables had when every cell was formatted on its own;
    # each table now has one row format, and the bytes must not move
    @pytest.mark.parametrize("argv, want", [
        (["j2", "--nmax", "12"],
         "N,partial_sum\n"
         "3,0.59839796016019697\n"
         "4,0.89419079188154316\n"
         "5,1.0758402761786305\n"
         "6,1.2011151186712388\n"
         "7,1.293969741904222\n"
         "8,1.366255430467104\n"
         "9,1.4245624600731051\n"
         "10,1.4728742331247349\n"
         "11,1.513753978575014\n"
         "12,1.5489334855037484\n"),
        (["expand", "5/7", "--count", "6"],
         "index,digit\n"
         "1,1\n"
         "2,2\n"
         "3,1\n"
         "4,7\n"
         "5,1\n"
         "6,1\n"
         "remainder,1\n"),
        (["reconstruct", "2,1,3"],
         "field,value\n"
         "exact,7/16\n"
         "approx,0.4375\n"),
        (["rho", "--mode", "series", "--kmax", "4"],
         "k,method,value,error_bound\n"
         "2,series,0.71013157011713879,9.1693529397812641e-07\n"
         "3,series,0.80176382352837428,8.762675138255491e-07\n"
         "4,series,0.84546335823867724,8.7840527035634907e-07\n"),
        (["trim", "--kmax", "100", "--seeds", "2"],
         "seed,k,statistic,c_k\n"
         "0,10,1.1725951011387796,1.2579999846183172\n"
         "0,100,0.94459049813957263,1.2429757029375137\n"
         "1,10,1.8240368239936573,1.2579999846183172\n"
         "1,100,0.90550399476828003,1.2429757029375137\n"),
    ], ids=["j2", "expand", "reconstruct", "rho-series", "trim"])
    def test_stdout(self, argv, want, capsys):
        assert main(argv) == 0
        assert capsys.readouterr().out == want


class TestCoreCount:
    # the sampled tables at 1, 2 and 3 usable cores; 70001 trials make three
    # blocks and a short fourth, trim has five seeds, and maxdist at k = 1000
    # makes two blocks of 4194 trials and a short third
    @pytest.mark.parametrize("argv", [
        ["trim", "--kmax", "100000", "--seeds", "5", "--seed", "3"],
        ["cf", "--statistic", "rho", "--samples", "70001", "--seed", "2"],
        ["cf", "--statistic", "trimmed", "--samples", "70001", "--seed", "2"],
        ["rho", "--mode", "mc", "--kmax", "8", "--samples", "70001", "--seed", "2"],
        ["maxdist", "--k", "1000", "--samples", "12500", "--seed", "2"],
    ])
    def test_stdout_does_not_depend_on_cores(self, argv, monkeypatch, capsys):
        outs = []
        for cores in (1, 2, 3):
            asked = []
            monkeypatch.setattr(luroth.simulation, "_usable_cores",
                                lambda: asked.append(cores) or cores)
            assert main(argv) == 0
            assert asked
            outs.append(capsys.readouterr().out)
        assert outs[0] == outs[1] == outs[2]


class TestOutputFile:
    def test_out_flag_writes_file(self, tmp_path, capsys):
        target = tmp_path / "rho.csv"
        code = main(["rho", "--kmax", "2", "--mode", "exact",
                     "--out", str(target)])
        assert code == 0
        assert capsys.readouterr().out == ""
        rows = list(csv.reader(target.read_text().splitlines()))
        assert rows[0] == ["k", "method", "value", "error_bound"]

    def test_rerun_byte_identical(self, tmp_path):
        a = tmp_path / "a.csv"
        b = tmp_path / "b.csv"
        for path in (a, b):
            assert main(["maxdist", "--k", "30", "--samples", "10000",
                         "--out", str(path)]) == 0
        assert a.read_bytes() == b.read_bytes()

    @pytest.mark.parametrize("argv", [
        ["rho", "--kmax", "2", "--out", "{tmp}/nonexistent/x.csv"],
        ["figures", "--out", "{tmp}/regular-file"],
    ], ids=["missing-directory", "out-is-a-file"])
    def test_unwritable_out_exits_1(self, argv, tmp_path, capsys):
        (tmp_path / "regular-file").write_text("")
        code = main([a.format(tmp=tmp_path) for a in argv])
        captured = capsys.readouterr()
        assert code == 1
        assert captured.out == ""
        assert captured.err.startswith("error:")
        assert "Traceback" not in captured.err


class TestFigures:
    def test_emits_both_tables(self, tmp_path):
        out = tmp_path / "figs"
        assert main(["figures", "--out", str(out)]) == 0
        fig1 = list(csv.reader((out / "fig1.csv").read_text().splitlines()))
        fig2 = list(csv.reader((out / "fig2.csv").read_text().splitlines()))
        assert len(fig1) == 1 + 39  # k = 2..40
        assert len(fig2) == 1 + 998  # N = 3..1000
        assert fig1[0] == ["k", "method", "value", "error_bound"]
        assert fig2[0] == ["N", "partial_sum"]

    def test_unknown_subcommand_is_usage_error(self):
        with pytest.raises(SystemExit) as exc:
            main(["frobnicate"])
        assert exc.value.code == 2


def assert_plain_csv(text):
    """text is what csv writes for its own fields, with none quoted."""
    rows = list(csv.reader(io.StringIO(text, newline="")))
    again = io.StringIO()
    csv.writer(again, lineterminator="\n").writerows(rows)
    assert again.getvalue() == text
    for row in rows:
        assert len(row) == len(rows[0])
        for field in row:
            assert not set(field) & set(',"\r\n')


class TestCsvFormat:
    # every subcommand at a small size, in every mode
    @pytest.mark.parametrize("argv", [
        ["rho", "--kmax", "4", "--mode", "exact"],
        ["rho", "--kmax", "4", "--mode", "series"],
        ["rho", "--kmax", "4", "--mode", "mc", "--samples", "1000"],
        ["rho", "--kmax", "4", "--mode", "all", "--samples", "1000"],
        ["expand", "5/7", "--count", "6"],
        ["reconstruct", "2,1,3"],
        ["j2", "--nmax", "50"],
        ["trim", "--kmax", "100", "--seeds", "2"],
        ["maxdist", "--k", "30", "--samples", "1000"],
        ["cf", "--statistic", "rho", "--k", "2", "--k", "4", "--samples", "10000"],
        ["cf", "--statistic", "trimmed", "--k", "2", "--k", "4", "--samples", "10000"],
    ], ids=" ".join)
    def test_stdout_and_out_file(self, argv, tmp_path, capsys):
        assert main(argv) == 0
        text = capsys.readouterr().out
        assert_plain_csv(text)
        target = tmp_path / "table.csv"
        assert main(argv + ["--out", str(target)]) == 0
        assert capsys.readouterr().out == ""
        assert target.read_bytes() == text.encode()

    def test_figures_files(self, tmp_path, capsys):
        # fig1 is the default exact rho table at kmax 40, fig2 the j2 table at 1000
        assert main(["figures", "--out", str(tmp_path)]) == 0
        for name, argv in (("fig1.csv", ["rho", "--kmax", "40"]),
                           ("fig2.csv", ["j2", "--nmax", "1000"])):
            data = (tmp_path / name).read_bytes()
            assert_plain_csv(data.decode())
            assert main(argv) == 0
            assert capsys.readouterr().out.encode() == data


class TestWriteCount:
    def test_j2_table_goes_out_in_chunks(self, monkeypatch):
        # each write reaches the file descriptor when stdout is unbuffered
        # (PYTHONUNBUFFERED=1), so the table must not go out row by row
        class CountingStdout:
            def __init__(self):
                self.parts = []

            def write(self, text):
                self.parts.append(text)
                return len(text)

            def flush(self):
                pass

        stub = CountingStdout()
        monkeypatch.setattr(sys, "stdout", stub)
        assert main(["j2", "--nmax", "20000"]) == 0
        assert len(stub.parts) <= 1 + math.ceil(19998 / luroth.cli._CHUNK_ROWS)
        lines = "".join(stub.parts).split("\n")
        assert lines[0] == "N,partial_sum"
        assert lines[-2].startswith("20000,") and lines[-1] == ""
        assert len(lines) == 1 + 19998 + 1


class TestGcState:
    @pytest.mark.parametrize("argv", [["j2", "--nmax", "10"], ["j2", "--nmax", "2"],
                                      ["frobnicate"]], ids=["ok", "usage-error", "parser-exit"])
    def test_main_leaves_no_object_frozen(self, argv, capsys):
        # main freezes the objects the imports made only for its own run
        assert gc.get_freeze_count() == 0
        try:
            main(argv)
        except SystemExit:
            pass
        capsys.readouterr()
        assert gc.get_freeze_count() == 0
