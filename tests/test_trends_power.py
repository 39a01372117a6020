"""Unit tests for the trend model and the power model."""

import pytest

from repro.devices import DRAM, BatteryBank, MagneticDisk
from repro.power import PowerModel
from repro.power.energy import SETTLE_INTERVAL_S
from repro.sim import Engine, SimClock
from repro.trends import TrendLine, crossover_year, default_trends_1993
from repro.trends.model import SmallConfigCostModel

MB = 1024 * 1024


class TestTrendLine:
    def test_compounding(self):
        line = TrendLine("x", 1993, 100.0, 0.40)
        assert line.value(1993) == 100.0
        assert line.value(1994) == pytest.approx(140.0)
        assert line.value(1995) == pytest.approx(196.0)

    def test_series(self):
        line = TrendLine("x", 1993, 1.0, 0.25)
        series = [line.value(y) for y in range(1993, 1996)]
        assert series == pytest.approx([1.0, 1.25, 1.5625])

    def test_crossover_math(self):
        slow = TrendLine("slow", 1993, 10.0, 0.25)
        fast = TrendLine("fast", 1993, 1.0, 0.40)
        year = crossover_year(fast, slow)
        assert fast.value(year) == pytest.approx(slow.value(year), rel=1e-6)

    def test_parallel_lines_never_cross(self):
        a = TrendLine("a", 1993, 1.0, 0.40)
        b = TrendLine("b", 1993, 2.0, 0.40)
        with pytest.raises(ValueError):
            crossover_year(a, b)


class TestPaperTrends:
    def test_density_crossover_mid_decade(self):
        trends = default_trends_1993()
        year = trends.dram_disk_density_crossover()
        assert 1994 < year < 1997  # paper: "shortly exceed"

    def test_dram_cost_gap_closes(self):
        trends = default_trends_1993()
        gap_1993 = (1 / trends.disk_mb_per_dollar.value(1993)) / (
            1 / trends.dram_mb_per_dollar.value(1993)
        )
        year = trends.dram_disk_cost_crossover()
        assert gap_1993 < 0.15  # DRAM ~10x costlier in 1993
        assert year > 2000  # comparable, but not soon at 40/25 rates

    def test_40mb_parity_matches_paper_1996(self):
        model = SmallConfigCostModel()
        assert 1995.5 < model.parity_year() < 1997.5

    def test_parity_earlier_for_smaller_configs(self):
        model = SmallConfigCostModel()
        year = model.parity_year()  # a 40 MB store's
        assert model.flash_cost(20.0, year) < model.disk_cost(20.0, year)
        assert model.flash_cost(100.0, year) > model.disk_cost(100.0, year)

    def test_cost_tables_monotone_decreasing(self):
        trends = default_trends_1993()
        table = trends.cost_table()
        for a, b in zip(table, table[1:]):
            assert b["dram_dollars_per_mb"] < a["dram_dollars_per_mb"]
            assert b["disk_dollars_per_mb"] < a["disk_dollars_per_mb"]


def _bank():
    return BatteryBank(1_000_000.0, 0.0)


class TestPowerModel:
    def test_settle_charges_battery(self):
        dram = DRAM(4 * MB)
        battery = BatteryBank(1000.0, 0.0)
        model = PowerModel([dram], battery)
        dram.write(0, b"x" * 4096, SimClock())
        drawn = model.settle(10.0)
        assert drawn > 0
        assert battery.remaining_joules() == pytest.approx(1000.0 - drawn)

    def test_settle_idempotent(self):
        dram = DRAM(4 * MB)
        model = PowerModel([dram], _bank())
        model.settle(5.0)
        assert model.settle(5.0) == 0.0

    def test_idle_disk_cheaper_than_spinning(self):
        disk_idle = MagneticDisk(8 * MB)
        disk_spin = MagneticDisk(8 * MB)
        disk_spin.spin_down_timeout_s = 1e9
        disk_idle.read(0, 512, SimClock())
        disk_spin.read(0, 512, SimClock())
        m1 = PowerModel([disk_idle], _bank())
        m2 = PowerModel([disk_spin], _bank())
        assert m1.settle(600.0) < m2.settle(600.0)

    def test_timer_settles_periodically(self):
        engine = Engine()
        dram = DRAM(4 * MB)
        battery = BatteryBank(1_000_000.0, 0.0)
        model = PowerModel([dram], battery)
        engine.schedule_every(
            SETTLE_INTERVAL_S, lambda: model.settle(engine.clock.now), name="power-settle"
        )
        engine.run_until(10.0)
        assert battery.remaining_joules() < 1_000_000.0

    def test_breakdown_splits_active_idle(self):
        dram = DRAM(4 * MB)
        model = PowerModel([dram], _bank())
        dram.write(0, b"x" * 4096, SimClock())
        model.settle(100.0)
        snap = model.snapshot(100.0)
        assert dram.stats.energy_joules > 0
        assert dram.idle_energy_joules > 0
        assert snap["energy_joules"] == pytest.approx(
            dram.stats.energy_joules + dram.idle_energy_joules
        )
        assert snap["average_power_watts"] == pytest.approx(snap["energy_joules"] / 100.0)
