"""CLI contract tests: CSV shapes, exit codes, determinism, formatting."""

import csv
import gc
import hashlib
import io
import json
import math
import os
import subprocess
import sys
import time
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

import luroth.contfrac
import luroth.extrema
import luroth.precision
from luroth import cli
from luroth.cli import main
from luroth.expansion import max_cdf_exact
from luroth.trimming import _J2_BLOCK, c_k, j2_partial_sums


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
        for argv in (["rho", "--kmax", "1"], ["rho", "--mode", "bogus"]):
            assert main(argv) == 2
            captured = capsys.readouterr()
            assert captured.out == ""
            assert captured.err.startswith("usage error:")

    def test_failed_certificate_exits_1(self, monkeypatch, capsys):
        # rho_3 computed from zeta values read as 0 lies far above 1
        real = luroth.extrema._zeta_row

        def zeros(bits, jmax):
            nums, ulps, s = real(bits, jmax)
            return (0,) * len(nums), (1,) * len(ulps), s

        monkeypatch.setattr(luroth.extrema, "_zeta_row", zeros)
        assert main(["rho", "--kmax", "3", "--mode", "exact"]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error:")

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

    def test_no_partial_table(self, capsys):
        # the digits print, but the remainder's denominator has more decimal
        # digits than Python's int-to-str limit: no row may go out before it
        argv = ["expand", "7" + "3" * 4200 + "e-7000", "--count", "4200"]
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("usage error:")

    @pytest.mark.parametrize("value", ["1e-999999999", "0e999999999"])
    def test_huge_exponent_refused_at_once(self, value, capsys):
        # Fraction would build 10^999999999 before any other check
        start = time.perf_counter()
        assert main(["expand", value]) == 2
        assert time.perf_counter() - start < 1.0
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("usage error:")


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
        # the user's flag, not j2_partial_sums' bound on nmax - 1
        assert main(["j2", "--nmax", "2"]) == 2
        assert capsys.readouterr().err == "usage error: --nmax must be >= 3\n"

    def test_bytes_at_the_benchmark_size(self, capsys):
        # the bytes of the table when each row was "%d,%.17g" % row
        assert main(["j2", "--nmax", "20000"]) == 0
        digest = hashlib.sha256(capsys.readouterr().out.encode()).hexdigest()
        assert digest == "8d3786bd643d5892e468fcf785d5a62f7eab994b040cf5299633802b6908e7ea"

    @pytest.mark.parametrize("nmax", [_J2_BLOCK + 2, 2 * _J2_BLOCK + 2])
    def test_rows_at_block_ends(self, capsys, nmax):
        # nmax - 2 rows: one block of terms and rows, then exactly two
        assert main(["j2", "--nmax", str(nmax)]) == 0
        values = j2_partial_sums(nmax - 1)[0].tolist()
        want = "".join(map("%d,%.17g\n".__mod__, enumerate(values, start=3)))
        assert capsys.readouterr().out == "N,partial_sum\n" + want

    def test_peak_memory_per_row(self, tmp_path):
        # The partial sums stay, 8 bytes a row; the terms and the series'
        # temporaries go block by block.  The rows' text is held twice
        # (blocks and their join, 25.3 bytes a row each), next to one block's
        # temporaries, so the peak is about 59 bytes a row.  One pass over all
        # the terms peaked at 83 bytes a row, one str per row, as "%" made
        # them, at 115, and one grid over all the rows at 242
        tracemalloc.start()
        try:
            assert main(["j2", "--nmax", "200000", "--out", str(tmp_path / "j2.csv")]) == 0
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak / 199998 < 70


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

    def test_exact_column_within_its_error_bound(self, capsys):
        # against the correctly rounded (1 - 1/m)^k: the bound (7|x| + 2) 2^-53
        # relative of cmd_maxdist, for x = k log1p(-1/m), plus 2^-53 for
        # rounding the reference; c runs from 0.02 to 10^4
        cs = [0.02, 0.05, 0.1, 0.3, 0.5, 0.7, 1, 1.5, 2, 3.3, 10, 77, 1e3, 1e4]
        for k in (1, 2, 3, 7, 50, 999, 1000, 4999):
            argv = ["maxdist", "--k", str(k), "--samples", "100"]
            _, rows = run_cli(argv + [a for c in cs for a in ("--c", repr(c))], capsys)
            for c, row in zip(cs, rows[1:]):
                m = math.ceil(c * k)
                got = float(row[2])
                if m <= 1:
                    assert got == 0.0
                    continue
                want = float(max_cdf_exact(k, m - 1))
                x = k * math.log1p(-1.0 / m)
                assert abs(got - want) <= (7 * abs(x) + 3) * 2.0**-53 * want, (k, c)

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

    def test_overflow_bin_median_exits_1_without_csv(self, monkeypatch, capsys):
        # an overflow bin at 40 for S_k - M_k: its median is near 51 at k = 16,
        # so the middle order statistic is in the bin, and no median is printed
        monkeypatch.setattr(luroth.contfrac, "_overflow_bin", lambda k: 40)
        assert main(["cf", "--statistic", "trimmed", "--k", "2", "--k", "16",
                     "--samples", "10000"]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "k = 16" in captured.err

    def test_overflow_bin_interval_exits_1_without_csv(self, monkeypatch, capsys):
        # an overflow bin at 179: at k = 40 the median of S_k - M_k is 178 but
        # the upper end of its 95 % interval is 180, so no row is printed
        monkeypatch.setattr(luroth.contfrac, "_overflow_bin", lambda k: 179)
        assert main(["cf", "--statistic", "trimmed", "--k", "2", "--k", "40",
                     "--samples", "10000"]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "k = 40: the median's 95 % interval" in captured.err

    def test_rejections(self, capsys):
        # --k 0 is refused by mc_cf_rho_table, before any row is written
        assert main(["cf", "--k", "0"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "usage error: need at least one k, and every k must be >= 1\n"
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
        ["maxdist", "--k", "1" + "0" * 400, "--samples", "1000"],
        ["rho", "--mode", "series", "--kmax", "3", "--tol", "inf"],
        ["rho", "--mode", "series", "--kmax", "3", "--tol", "2"],
        ["rho", "--mode", "series", "--kmax", "3", "--tol", "1e-16"],
        # checked by the library call alone
        ["expand", "1/2", "--count", "0"],
        ["expand", "3/2"],
        ["reconstruct", "0,3"],
        ["trim", "--kmax", "1"],
        ["trim", "--kmax", "1000000000001"],
        ["maxdist", "--k", "0"],
        ["maxdist", "--samples", "99"],
        ["cf", "--samples", "9999"],
        ["cf", "--k", "0", "--k", "5", "--samples", "10000"],
        # a digit of 5001 decimal digits exceeds Python's int-to-str limit
        ["expand", "1e-5000", "--count", "1"],
        # beyond 2^32 trials: more blocks than the worker pool sets aside slots for
        ["rho", "--mode", "mc", "--kmax", "2", "--samples", "1" + "0" * 20],
        ["maxdist", "--samples", "1" + "0" * 20],
        ["cf", "--samples", "1" + "0" * 20],
        ["cf", "--statistic", "trimmed", "--samples", "1" + "0" * 20],
        # checked by the CLI alone: no library call sees these values
        ["rho", "--mode", "exact", "--kmax", "3", "--samples", "5"],
        ["rho", "--mode", "series", "--kmax", "3", "--precision-bits", "4"],
        ["trim", "--kmax", "10", "--seeds", "0"],
        ["j2", "--nmax", "2"],
        ["rho", "--mode", "exact", "--kmax", "3", "--seed", "-1"],
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
    # the bytes of the sampled tables on PCG64DXSM streams, so a change of
    # generator, block layout or draw order shows.  MAXDIST holds the bytes of
    # the row maxima drawn from one word each, the least of k uniforms by its
    # inverse CDF, and of the exact column in floats, k log1p(-1/m) under exp
    RHO = (
        "k,method,value,error_bound\n"
        "2,monte-carlo,0.70550000000000002,0.010192392996740265\n"
        "3,monte-carlo,0.8095,0.0087809381617228125\n"
        "4,monte-carlo,0.84250000000000003,0.0081453591081056698\n"
        "5,monte-carlo,0.86699999999999999,0.0075931218876032804\n"
        "6,monte-carlo,0.88749999999999996,0.0070655413805312912\n"
    )
    MAXDIST = (
        "c,empirical,exact_finite_k,limit_exp\n"
        "0.5,0.13600000000000001,0.12988579352203861,0.1353352832366127\n"
        "1,0.36099999999999999,0.36416968008711709,0.36787944117144233\n"
        "2,0.60450000000000004,0.60500606713753657,0.60653065971263342\n"
    )

    def test_rho_mc(self, capsys):
        assert main(["rho", "--mode", "mc", "--kmax", "6", "--samples", "2000",
                     "--seed", "3"]) == 0
        assert capsys.readouterr().out == self.RHO

    def test_rho_mc_full_block_at_every_depth(self, capsys):
        # the benchmark's shape: one whole block of 2^15 trials, counted at 40 depths
        assert main(["rho", "--mode", "mc", "--kmax", "40", "--samples", "32768",
                     "--seed", "3"]) == 0
        digest = hashlib.sha256(capsys.readouterr().out.encode()).hexdigest()
        assert digest == "0c2e1aa1777a76e79f0071b8ffbdc4d725f61aae2e02903d66b65804d0c85d56"

    # the CF tables on PCG64DXSM streams
    CF_RHO = (
        "k,rho_hat,se\n"
        "2,0.80200282853102101,0.0015061399247356508\n"
        "8,0.93395808631305266,0.0009386882807394031\n"
        "16,0.96245767917601177,0.0007184544800601701\n"
    )
    CF_TRIMMED = (
        "k,median,se,dist_log2,dist_inv_log2\n"
        "2,0.72134752044448169,0.18401722460318412,0.028200339884536407,"
        "0.72134752044448169\n"
        "8,1.0820212806667227,0.015334768716932009,0.38887410010677737,"
        "0.36067376022224074\n"
        "16,1.1496476107083928,0.011501076537699008,0.45650043014844754,"
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

    def test_cf_rho_repeated_and_unordered_k(self, capsys):
        # rows in the order asked for, a repeat printed twice
        assert main(["cf", "--k", "8", "--k", "2", "--k", "8", "--statistic", "rho",
                     "--samples", "10000", "--seed", "3"]) == 0
        digest = hashlib.sha256(capsys.readouterr().out.encode()).hexdigest()
        assert digest == "f0683cc5f099cfdb9c3e29282e1dfcafe05c94ab80cfcd287a67b39da5f5662a"


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

    def test_rho_exact_across_buckets(self, capsys):
        # k = 2..130 reads the 256-, 320- and 384-bit zeta rows (192 + k bits);
        # the SHA-256 of the table as the per-argument zeta loop printed it
        assert main(["rho", "--mode", "exact", "--kmax", "130"]) == 0
        digest = hashlib.sha256(capsys.readouterr().out.encode()).hexdigest()
        assert digest == "058babfb9377625fee0ecbe53069f22a796b451244563f9e8b776e3b83c26ffc"

    @pytest.mark.parametrize("bits, want", [
        (8, "95f11bd132fc0bc98af58e8446f8cf98db478e82b377e49b83465976080f8879"),
        (100, "24fb8e8f8f7c01820e0c0d2cc965e6482717215cdec7c2af4b6b9b774657522b"),
        (128, "fda0dca502ca090741a81c9a50b4edd86b5b3be099076fb4fcfdad1bba7cf268"),
        (256, "30d1178b3de6d5def6916678767b49e4050c786cbf318e4f9d11be17e88b4bf2"),
    ], ids=["8-bits", "100-bits", "128-bits", "256-bits"])
    def test_rho_exact_sweeps_each_bucket_once(self, bits, want, capsys):
        # k asks for bits + k + 64 bits; each 64-bit bucket is swept once, also
        # where its k straddle a multiple of 64, and its row runs to its last
        # k, bucket - bits - 64 (bucket - 164 at 100 bits).  The SHA-256 of
        # the table is the one printed when a bucket could be swept twice
        cache = luroth.precision._zeta_sweep
        cache.cache_clear()
        argv = ["rho", "--mode", "exact", "--kmax", "300", "--precision-bits", str(bits)]
        assert main(argv) == 0
        digest = hashlib.sha256(capsys.readouterr().out.encode()).hexdigest()
        buckets = {(bits + k + 127) // 64 * 64 for k in range(2, 301)}
        assert cache.cache_info().misses == len(buckets)
        for bucket in buckets:
            cache(bucket, bucket - bits - 64)
        assert cache.cache_info().misses == len(buckets)
        assert digest == want


class TestPinnedRowFormats:
    # the bytes these tables had when every cell was formatted on its own;
    # each table now has one row format, and the bytes must not move (the trim
    # bytes are those of luroth_sum_max on the PCG64DXSM streams)
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
         "0,10,1.0857362047581294,1.2579999846183172\n"
         "0,100,0.97064816705376777,1.2429757029375137\n"
         "1,10,0.86858896380650352,1.2579999846183172\n"
         "1,100,0.47120951286502821,1.2429757029375137\n"),
        # the stretch 10^8..2*10^8 has about 98000 tail digits: two 2^16-word chunks
        (["trim", "--kmax", "200000000", "--seeds", "2", "--seed", "7"],
         "seed,k,statistic,c_k\n"
         "7,10,0.91201841199682865,1.2579999846183172\n"
         "7,100,1.2160245493291051,1.2429757029375137\n"
         "7,1000,0.70717618136579508,1.218766714481897\n"
         "7,10000,1.0302225126088465,1.1951799627956328\n"
         "7,100000,0.96443775596255121,1.1755156508296338\n"
         "7,1000000,0.93484080416808579,1.1594590947457559\n"
         "7,10000000,0.87092942640313531,1.14624298248495\n"
         "7,100000000,0.96162234426735493,1.1352115971392038\n"
         "7,200000000,0.92249578340022076,1.1322407907466772\n"
         "8,10,0.43429448190325176,1.2579999846183172\n"
         "8,100,1.1704236287292635,1.2429757029375137\n"
         "8,1000,1.3157675153395521,1.218766714481897\n"
         "8,10000,0.92594840750387564,1.1951799627956328\n"
         "8,100000,1.0617527262895043,1.1755156508296338\n"
         "8,1000000,0.86151669531595021,1.1594590947457559\n"
         "8,10000000,0.87970646824874499,1.14624298248495\n"
         "8,100000000,0.93899559958872314,1.1352115971392038\n"
         "8,200000000,0.90543063604783236,1.1322407907466772\n"),
    ], ids=["j2", "expand", "reconstruct", "rho-series", "trim", "trim-chunks"])
    def test_stdout(self, argv, want, capsys):
        assert main(argv) == 0
        assert capsys.readouterr().out == want


class TestCoreCount:
    # the sampled tables at 1, 2 and 3 usable cores; 70001 trials make two
    # full blocks and a short third, and trim has five seeds
    @pytest.mark.parametrize("argv", [
        ["trim", "--kmax", "100000", "--seeds", "5", "--seed", "3"],
        ["cf", "--statistic", "rho", "--samples", "70001", "--seed", "2"],
        ["cf", "--statistic", "trimmed", "--samples", "70001", "--seed", "2"],
        ["rho", "--mode", "mc", "--kmax", "8", "--samples", "70001", "--seed", "2"],
        ["maxdist", "--k", "1000", "--samples", "70001", "--seed", "2"],
    ])
    def test_stdout_does_not_depend_on_cores(self, argv, cores, capsys):
        outs = []
        for n in (1, 2, 3):
            asked = cores(n)
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

    def test_unknown_subcommand_is_usage_error(self, capsys):
        assert main(["frobnicate"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("usage error:")


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
    def test_j2_table_goes_out_in_one_write(self, monkeypatch):
        # each write reaches the file descriptor when stdout is unbuffered
        # (PYTHONUNBUFFERED=1); the table is formatted whole, then written once
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
        assert len(stub.parts) == 1
        lines = stub.parts[0].split("\n")
        assert lines[0] == "N,partial_sum"
        assert lines[-2].startswith("20000,") and lines[-1] == ""
        assert len(lines) == 1 + 19998 + 1


class TestColumnRows:
    # cli._rows_d_17g against "%d,%.17g\n" % row, byte for byte, over its
    # whole domain 1e-4 <= x < 2^50
    @staticmethod
    def check(x, start=3):
        got = cli._rows_d_17g(start, x)
        want = "".join(map("%d,%.17g\n".__mod__, enumerate(x.tolist(), start=start)))
        # a mismatch names its first rows; pytest's diff of megabytes would not end
        same = got == want
        assert same, [(g, w) for g, w in zip(got.split("\n"), want.split("\n")) if g != w][:3]

    def test_log_uniform_over_the_domain(self):
        # 200000 rows: seven blocks of rows, and indices of 1 to 6 digits
        x = np.exp(np.random.default_rng(40).uniform(np.log(1e-4), np.log(2.0**50), 200000))
        self.check(np.clip(x, 1e-4, np.nextafter(2.0**50, 0)))

    def test_odd_multiples_of_powers_of_two(self):
        # k 2^-j for odd k < 2^53 and j <= 60; where j = 17 - X the exact
        # value lies half way between two 17-digit decimals
        rng = np.random.default_rng(41)
        j = np.repeat(np.arange(61), 400)
        x = np.exp(rng.uniform(np.log(1e-4), np.log(2.0**50), j.size))
        k = np.floor(np.ldexp(x, j) / 2) * 2 + 1
        x = np.ldexp(k, -j)
        keep = (k < 2.0**53) & (x >= 1e-4) & (x < 2.0**50)
        x, j = x[keep], j[keep]
        assert np.count_nonzero(j == 17 - np.floor(np.log10(x))) > 200
        self.check(x)

    def test_powers_of_ten_and_their_neighbours(self):
        # X steps at 10^X, where floor(log10 x) in floats is one too high
        # just below it
        p = 10.0 ** np.arange(-4, 16)
        x = np.concatenate([p, np.nextafter(p, 0)[1:], np.nextafter(p, np.inf)])
        self.check(x)
        self.check(x, start=0)

    def test_decades_in_runs_of_rows(self):
        # a sorted column holds each decade in one run of rows, which is copied
        # as a slice; a run broken by one row of the decade below or above is not
        runs = [np.linspace(1, 9.99, 40) * 10.0**X for X in range(-3, 14, 2)]
        self.check(np.concatenate(runs))
        for scale in (0.1, 10.0):
            self.check(np.concatenate([np.insert(r, 20, r[5] * scale) for r in runs]))

    def test_domain_ends(self):
        self.check(np.array([1e-4, np.nextafter(2.0**50, 0)]))
        for bad in (np.nextafter(1e-4, 0), 2.0**50, 0.0, -1.0, np.inf, np.nan):
            with pytest.raises(RuntimeError):
                cli._rows_d_17g(3, np.array([1.0, bad]))


class TestRuntimeFailure:
    def test_memory_error_exits_1(self, cores, capsys):
        # 2^62 seeds: the result list of the worker pool cannot be allocated.
        # Two cores only: on one, the serial loop would start 2^62 paths
        cores(2)
        assert main(["trim", "--kmax", "10", "--seeds", str(1 << 62)]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error:")


def run_module(*argv):
    """``python -B -m luroth.cli ARGV`` as a child, so main reads sys.argv."""
    env = dict(os.environ, PYTHONPATH=str(Path(__file__).resolve().parent.parent / "src"))
    return subprocess.run([sys.executable, "-B", "-m", "luroth.cli", *argv],
                          env=env, capture_output=True, text=True, timeout=60)


class TestEntryPoint:
    def test_module_run_prints_the_table_main_returns(self, capsys):
        assert main(["rho", "--kmax", "3"]) == 0
        expected = capsys.readouterr().out
        done = run_module("rho", "--kmax", "3")
        assert done.returncode == 0
        assert done.stdout == expected

    def test_module_run_reads_sys_argv(self):
        done = run_module("expand", "5/7", "--count", "6")
        assert done.returncode == 0
        assert done.stdout == "index,digit\n1,1\n2,2\n3,1\n4,7\n5,1\n6,1\nremainder,1\n"
        done = run_module("rho", "--mode", "bogus")
        assert done.returncode == 2
        assert done.stdout == ""
        assert done.stderr.startswith("usage error:")


class TestNoImportDuringMain:
    # a first call can import more of numpy: np.unique's imports numpy.ma,
    # about 10 ms.  main runs on the modules that importing luroth.cli made
    SCRIPT = """
import io, json, sys
import luroth.cli
added = []
for argv in json.loads(sys.argv[1]):
    before = set(sys.modules)
    sys.stdout, out = io.StringIO(), sys.stdout
    code = luroth.cli.main(argv)
    sys.stdout = out
    added.append([argv, code, sorted(set(sys.modules) - before)])
print(json.dumps(added))
"""

    def test_main_imports_no_module(self, tmp_path):
        argvs = [["j2", "--nmax", "50"], ["figures", "--out", str(tmp_path)],
                 ["rho", "--kmax", "3"], ["rho", "--mode", "series"],
                 ["cf", "--samples", "10000"],
                 ["cf", "--statistic", "trimmed", "--samples", "10000"],
                 ["trim", "--kmax", "1000", "--seeds", "2"],
                 ["maxdist", "--samples", "1000"]]
        env = dict(os.environ, PYTHONPATH=str(Path(__file__).resolve().parent.parent / "src"))
        done = subprocess.run([sys.executable, "-B", "-c", self.SCRIPT, json.dumps(argvs)],
                              env=env, capture_output=True, text=True, timeout=60)
        assert done.returncode == 0, done.stderr
        assert json.loads(done.stdout) == [[argv, 0, []] for argv in argvs]


class TestArgv:
    # the namespace each argv of the README and of perfbench/invocations.py
    # parsed to under argparse, so the handlers see the same attributes
    PARSED = [
        (["rho", "--mode", "mc", "--kmax", "40", "--samples", "32768", "--seed", "7"],
         {"command": "rho", "kmax": 40, "mode": "mc", "precision_bits": 128, "tol": 1e-06,
          "samples": 32768, "seed": 7, "out": None}),
        (["maxdist", "--k", "1000", "--c", "0.5", "--c", "1", "--c", "2", "--samples", "12500",
          "--seed", "7"],
         {"command": "maxdist", "k": 1000, "c": [0.5, 1.0, 2.0], "samples": 12500, "seed": 7,
          "out": None}),
        (["rho", "--mode", "exact", "--kmax", "120"],
         {"command": "rho", "kmax": 120, "mode": "exact", "precision_bits": 128, "tol": 1e-06,
          "samples": 1000000, "seed": 0, "out": None}),
        (["rho", "--mode", "series", "--kmax", "40", "--tol", "4e-05"],
         {"command": "rho", "kmax": 40, "mode": "series", "precision_bits": 128, "tol": 4e-05,
          "samples": 1000000, "seed": 0, "out": None}),
        (["j2", "--nmax", "20000"], {"command": "j2", "nmax": 20000, "out": None}),
        (["figures", "--out", "OUT"], {"command": "figures", "out": "OUT"}),
        (["trim", "--kmax", "1000000", "--seeds", "16", "--seed", "112"],
         {"command": "trim", "kmax": 1000000, "seeds": 16, "seed": 112, "out": None}),
        (["cf", "--k", "2", "--k", "8", "--k", "16", "--k", "32", "--statistic", "rho",
          "--samples", "500000", "--seed", "7"],
         {"command": "cf", "k": [2, 8, 16, 32], "statistic": "rho", "samples": 500000,
          "seed": 7, "out": None}),
        (["cf", "--k", "2", "--k", "8", "--statistic", "trimmed", "--samples", "10000",
          "--seed", "7"],
         {"command": "cf", "k": [2, 8], "statistic": "trimmed", "samples": 10000, "seed": 7,
          "out": None}),
        (["rho", "--kmax", "40", "--mode", "exact"],
         {"command": "rho", "kmax": 40, "mode": "exact", "precision_bits": 128, "tol": 1e-06,
          "samples": 1000000, "seed": 0, "out": None}),
        (["rho", "--kmax", "10", "--mode", "all", "--samples", "200000"],
         {"command": "rho", "kmax": 10, "mode": "all", "precision_bits": 128, "tol": 1e-06,
          "samples": 200000, "seed": 0, "out": None}),
        (["expand", "5/7", "--count", "6"],
         {"command": "expand", "value": "5/7", "count": 6, "out": None}),
        (["reconstruct", "2,1"], {"command": "reconstruct", "digits": "2,1", "out": None}),
        (["j2", "--nmax", "1000"], {"command": "j2", "nmax": 1000, "out": None}),
        (["trim", "--kmax", "1000000", "--seeds", "32"],
         {"command": "trim", "kmax": 1000000, "seeds": 32, "seed": 0, "out": None}),
        (["maxdist", "--k", "1000", "--c", "0.5", "--c", "1", "--c", "2", "--samples",
          "1000000"],
         {"command": "maxdist", "k": 1000, "c": [0.5, 1.0, 2.0], "samples": 1000000, "seed": 0,
          "out": None}),
        (["cf", "--k", "2", "--k", "8", "--k", "16", "--k", "32", "--samples", "100000"],
         {"command": "cf", "k": [2, 8, 16, 32], "statistic": "rho", "samples": 100000,
          "seed": 0, "out": None}),
        (["cf", "--k", "8", "--statistic", "trimmed", "--samples", "100000"],
         {"command": "cf", "k": [8], "statistic": "trimmed", "samples": 100000, "seed": 0,
          "out": None}),
        (["figures", "--out", "figs/"], {"command": "figures", "out": "figs/"}),
    ]
    DEFAULTS = [
        (["rho"], {"command": "rho", "kmax": 40, "mode": "exact", "precision_bits": 128,
                   "tol": 1e-06, "samples": 1000000, "seed": 0, "out": None}),
        (["expand", "X"], {"command": "expand", "value": "X", "count": 10, "out": None}),
        (["reconstruct", "X"], {"command": "reconstruct", "digits": "X", "out": None}),
        (["j2"], {"command": "j2", "nmax": 1000, "out": None}),
        (["trim"], {"command": "trim", "kmax": 1000000, "seeds": 32, "seed": 0, "out": None}),
        (["maxdist"], {"command": "maxdist", "k": 1000, "c": None, "samples": 1000000,
                       "seed": 0, "out": None}),
        (["cf"], {"command": "cf", "k": None, "statistic": "rho", "samples": 1000000,
                  "seed": 0, "out": None}),
        (["figures"], {"command": "figures", "out": "."}),
    ]

    @staticmethod
    def parse(argv):
        handler, args = cli._parse(argv)
        assert handler is getattr(cli, "cmd_" + argv[0])
        return vars(args)

    @pytest.mark.parametrize("argv, want", PARSED + DEFAULTS, ids=lambda a: " ".join(a)
                             if isinstance(a, list) else "")
    def test_namespace_as_argparse_gave_it(self, argv, want):
        got = self.parse(argv)
        assert got == want
        assert [type(v) for v in got.values()] == [type(v) for v in want.values()]

    @pytest.mark.parametrize("argv, want", PARSED, ids=lambda a: " ".join(a)
                             if isinstance(a, list) else "")
    def test_joined_value_parses_alike(self, argv, want):
        joined, tokens = [], iter(argv)
        for arg in tokens:
            joined.append(arg + "=" + next(tokens) if arg.startswith("--") else arg)
        assert self.parse(joined) == want

    def test_repeatable_flags_keep_order_and_others_keep_the_last(self):
        assert self.parse(["cf", "--k", "16", "--k=2", "--k", "8"])["k"] == [16, 2, 8]
        got = self.parse(["maxdist", "--c", "2", "--c", "0.5", "--c", "2"])
        assert got["c"] == [2.0, 0.5, 2.0]
        got = self.parse(["rho", "--kmax", "5", "--mode", "mc", "--kmax=7", "--mode", "series"])
        assert (got["kmax"], got["mode"]) == (7, "series")
        assert self.parse(["expand", "--count", "3", "1/2"])["value"] == "1/2"

    def test_a_value_may_begin_with_dashes_only_after_an_equals_sign(self):
        with pytest.raises(ValueError, match="--out needs a value"):
            cli._parse(["reconstruct", "2,1", "--out", "--x"])
        assert self.parse(["reconstruct", "2,1", "--out=--x"])["out"] == "--x"

    def test_negative_seed_reaches_the_domain_check(self, capsys):
        assert self.parse(["rho", "--seed", "-1"])["seed"] == -1
        assert main(["rho", "--mode", "mc", "--samples", "1000", "--seed", "-1"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "usage error: every seed used must lie in [0, 2^64)\n"

    @pytest.mark.parametrize("argv", [
        [],
        ["--kmax", "3"],
        ["frobnicate"],
        ["rho", "--bogus", "1"],
        ["maxdist", "--samp", "100"],  # no prefix abbreviations
        ["rho", "--precision_bits", "64"],
        ["rho", "--kmax"],
        ["rho", "--kmax", "--mode", "exact"],
        ["rho", "--kmax", "x"],
        ["rho", "--kmax=3.5"],
        ["rho", "--tol", "small"],
        ["rho", "--mode", "bogus"],
        ["cf", "--statistic=median"],
        ["cf", "--k", "two"],
        ["expand"],
        ["expand", "1/2", "1/3"],
        ["j2", "5"],
        ["figures", "figs"],
    ], ids=lambda a: " ".join(a) or "empty")
    def test_bad_argv_exits_2_with_empty_stdout(self, argv, capsys):
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("usage error:")

    @pytest.mark.parametrize("argv", [["-h"], ["--help"], ["rho", "-h"],
                                      ["cf", "--k", "2", "--help"]])
    def test_help_lists_every_command_and_flag(self, argv, capsys):
        assert main(argv) == 0
        captured = capsys.readouterr()
        assert captured.err == ""
        assert captured.out.startswith("usage: luroth COMMAND")
        lines = captured.out.splitlines()
        for name, (_, _, _, flags) in cli._COMMANDS.items():
            line = next(line for line in lines if line.startswith("    luroth %s " % name))
            assert all("[--%s " % flag in line for flag in flags)


class TestGcState:
    @pytest.mark.parametrize("argv", [["j2", "--nmax", "10"], ["j2", "--nmax", "2"],
                                      ["frobnicate"]], ids=["ok", "usage-error", "parser-exit"])
    def test_main_leaves_no_object_frozen(self, argv, capsys):
        # main freezes the objects the imports made only for its own run
        assert gc.get_freeze_count() == 0
        main(argv)
        capsys.readouterr()
        assert gc.get_freeze_count() == 0
