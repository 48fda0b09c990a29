"""Integration tests: every experiment reproduces the paper's *shape*
at a reduced scale, and the CLI drives them."""

import math

import pytest

from repro.cli import DELEGATES, main as cli_main
from repro.experiments.ablations import (
    run_gc_period_ablation,
    run_hash_ablation,
    run_mee_sensitivity,
    run_switchless_ablation,
)
from repro.experiments.common import ExperimentTable, Series, orders_of_magnitude
from repro.experiments.fig12_specjvm import PAPER_TABLE1, run_fig12, run_table1
from repro.experiments.fig3_proxy_creation import run_fig3
from repro.experiments.fig4_rmi import run_fig4a, run_fig4b
from repro.experiments.fig5_gc import run_fig5a, run_fig5b
from repro.experiments.fig6_synthetic import run_fig6
from repro.experiments.fig7_paldb import run_fig7, run_fig10
from repro.experiments.fig9_graphchi import run_fig9, run_fig11
from repro.errors import ConfigurationError


class TestCommonTable:
    def test_series_and_lookup(self):
        table = ExperimentTable("t", "x", "y")
        series = table.new_series("a")
        series.add(1, 10.0)
        series.add(2, 20.0)
        assert table.get("a").y_at(2) == 20.0
        assert series.mean() == 15.0

    def test_missing_series_rejected(self):
        with pytest.raises(ConfigurationError):
            ExperimentTable("t", "x", "y").get("nope")

    def test_missing_point_rejected(self):
        series = Series("s", [(1, 1.0)])
        with pytest.raises(ConfigurationError):
            series.y_at(99)

    def test_mean_ratio(self):
        table = ExperimentTable("t", "x", "y")
        top = table.new_series("top")
        bottom = table.new_series("bottom")
        for x in (1, 2):
            top.add(x, 4.0 * x)
            bottom.add(x, 2.0 * x)
        assert table.mean_ratio("top", "bottom") == pytest.approx(2.0)

    def test_format_renders_all_series(self):
        table = ExperimentTable("Title", "x", "y")
        table.new_series("a").add(1, 0.5)
        text = table.format()
        assert "Title" in text and "a" in text and "0.5" in text

    def test_orders_of_magnitude(self):
        assert orders_of_magnitude(1000) == pytest.approx(3.0)
        with pytest.raises(ConfigurationError):
            orders_of_magnitude(0)


class TestFig3Shape:
    def test_proxy_orders_of_magnitude(self):
        table = run_fig3(counts=(2_000, 4_000))
        out_in = table.mean_ratio("proxy-out->in", "concrete-out")
        in_out = table.mean_ratio("proxy-in->out", "concrete-in")
        assert 3.0 <= math.log10(out_in) <= 4.7
        assert 3.0 <= math.log10(in_out) <= 4.5
        assert in_out < out_in

    def test_latency_scales_linearly(self):
        table = run_fig3(counts=(2_000, 4_000))
        series = table.get("proxy-out->in")
        assert series.y_at(4_000) == pytest.approx(2 * series.y_at(2_000), rel=0.05)


class TestFig4Shape:
    def test_rmi_orders_and_serialization_overhead(self):
        table = run_fig4a(counts=(2_000,), payload_size=300)
        assert math.log10(table.mean_ratio("proxy-out->in", "concrete-out")) >= 3.0
        assert table.mean_ratio("proxy-in->out+s", "proxy-in->out") > 1.0

    def test_fig4b_asymmetry(self):
        table = run_fig4b(list_sizes=(30_000,), invocations=300)
        in_ratio = table.get("proxy-in->out+s").y_at(30_000) / table.get(
            "proxy-in->out"
        ).y_at(30_000)
        out_ratio = table.get("proxy-out->in+s").y_at(30_000) / table.get(
            "proxy-out->in"
        ).y_at(30_000)
        assert 5.0 <= in_ratio <= 25.0
        assert 1.8 <= out_ratio <= 8.0
        assert in_ratio > out_ratio


class TestFig5Shape:
    def test_enclave_gc_order_of_magnitude(self):
        table = run_fig5a(counts=(60_000,))
        ratio = table.mean_ratio("concrete-in: GC in", "concrete-out: GC out")
        assert 7.0 <= ratio <= 13.0

    def test_consistency_timeline(self):
        table = run_fig5b(duration_s=10.0, create_phase_s=5.0, batch=200)
        proxies = table.get("proxy-objs-out").ys()
        mirrors = table.get("mirror-objs-in").ys()
        assert proxies == mirrors
        assert max(proxies) > proxies[-1]


class TestFig6Shape:
    def test_monotone_improvement(self):
        table = run_fig6(percentages=(0, 50, 100), n_classes=12)
        for name in ("cpu intensive", "io intensive"):
            ys = table.get(name).ys()
            assert ys[0] > ys[1] > ys[2]
            assert ys[0] / ys[2] >= 3.0


class TestFig7Shape:
    def test_partitioning_gains(self):
        table = run_fig7(key_counts=(6_000,))
        assert 1.8 <= table.mean_ratio("NoPart", "Part(RTWU)") <= 3.5
        assert 0.9 <= table.mean_ratio("NoPart", "Part(RUWT)") <= 1.35
        assert table.get("NoSGX").mean() < table.get("Part(RTWU)").mean()

    def test_fig10_adds_scone(self):
        table = run_fig10(key_counts=(6_000,))
        assert table.get("SCONE+JVM").mean() > table.get("NoPart").mean()


class TestFig9Shape:
    def test_partitioned_sharding_back_to_native(self):
        results = run_fig9(graphs=((4_000, 16_000),), shard_counts=(2,), iterations=3)
        table = results[(4_000, 16_000)]
        assert table.mean_ratio("NoPart-NI", "Part-NI") > 1.05
        assert table.mean_ratio("Part-NI:sharding", "NoSGX-NI:sharding") < 1.2

    def test_fig11_scone_ordering(self):
        table = run_fig11(n_vertices=4_000, n_edges=16_000, shard_counts=(2,), iterations=3)
        assert table.get("SCONE+JVM").mean() > table.get("NoPart-NI").mean()
        assert table.get("NoPart-NI").mean() > table.get("Part-NI").mean()


class TestFig12AndTable1:
    def test_table1_bands(self):
        ratios = run_table1()
        for kernel, paper in PAPER_TABLE1.items():
            assert paper / 1.5 <= ratios[kernel] <= paper * 1.5, kernel
        assert ratios["monte_carlo"] < 1.0

    def test_fig12_sgx_always_costs(self):
        table = run_fig12(kernels=("fft", "monte_carlo"))
        assert table.get("SGX-NI").y_at(0) > table.get("NoSGX-NI").y_at(0)


class TestAblations:
    def test_switchless_gain(self):
        table = run_switchless_ablation(invocation_counts=(1_000,))
        assert table.mean_ratio("hardware transitions", "switchless") > 10

    def test_hash_strategies_close(self):
        table = run_hash_ablation(n_objects=1_000)
        identity = table.get("identity-hash").mean()
        md5 = table.get("md5-hash").mean()
        assert identity < md5 < identity * 1.05

    def test_mee_sensitivity_monotone(self):
        table = run_mee_sensitivity(multipliers=(2.0, 8.0), n_classes=8)
        ys = table.get("enclave slowdown").ys()
        assert ys[0] < ys[1]

    def test_gc_period_tradeoff(self):
        table = run_gc_period_ablation(periods_s=(0.5, 2.0), batches=6, batch_size=100)
        retention = table.get("peak stale mirrors").ys()
        scans = table.get("helper scans").ys()
        assert retention[0] <= retention[1]
        assert scans[0] >= scans[1]


class TestCli:
    def test_list(self, capsys):
        assert cli_main(["list"]) == 0
        out = capsys.readouterr().out
        assert "fig3" in out and "table1" in out

    def test_fig5a_small(self, capsys):
        assert cli_main(["fig5a", "--scale", "small"]) == 0
        assert "GC time" in capsys.readouterr().out

    def test_unknown_experiment_rejected(self):
        with pytest.raises(SystemExit):
            cli_main(["fig99"])

    @pytest.mark.parametrize(
        "argv, code",
        [pytest.param([name, "--help"], 0, id=name) for name in sorted(DELEGATES)]
        # No `perf` subcommand: layerbench/ measures wall-clock speed.
        + [pytest.param(["perf"], 2, id="perf")],
    )
    def test_dispatch(self, argv, code, capsys):
        with pytest.raises(SystemExit) as exc:
            cli_main(argv)
        assert exc.value.code == code
        if code == 2:
            assert "invalid choice: 'perf'" in capsys.readouterr().err
