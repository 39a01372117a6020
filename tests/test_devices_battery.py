"""Unit tests for the battery model and power-loss propagation."""

import pytest

from repro.devices import Battery, BatteryBank, BatteryState, DRAM
from repro.sim import SimClock


class TestBattery:
    def test_drain_within_capacity(self):
        b = Battery("b", 100.0)
        assert b.drain(60.0) == 0.0
        assert b.remaining_joules == pytest.approx(40.0)

    def test_drain_beyond_capacity_reports_unmet(self):
        b = Battery("b", 100.0)
        assert b.drain(150.0) == pytest.approx(50.0)
        assert b.exhausted

    def test_failed_battery_supplies_nothing(self):
        b = Battery("b", 100.0)
        b.fail()
        assert b.drain(10.0) == 10.0

    def test_negative_drain_rejected(self):
        with pytest.raises(ValueError):
            Battery("b", 10.0).drain(-1.0)

    def test_fraction_remaining(self):
        b = Battery("b", 100.0)
        b.drain(25.0)
        assert b.fraction_remaining() == pytest.approx(0.75)


class TestBatteryBank:
    def test_primary_then_backup(self):
        bank = BatteryBank(100.0, 50.0)
        bank.draw(120.0)
        assert bank.state is BatteryState.ON_BACKUP
        assert bank.backup.remaining_joules == pytest.approx(30.0)

    def test_death_after_both_exhausted(self):
        bank = BatteryBank(10.0, 5.0)
        unmet = bank.draw(20.0, now=3.0)
        assert unmet == pytest.approx(5.0)
        assert bank.state is BatteryState.DEAD
        assert bank.death_time == 3.0

    def test_power_loss_callback_fires_once(self):
        bank = BatteryBank(1.0, 1.0)
        calls = []
        bank.on_power_loss(lambda: calls.append(1))
        bank.draw(10.0)
        bank.draw(10.0)
        assert calls == [1]

    def test_dram_loses_contents_on_bank_death(self):
        bank = BatteryBank(1.0, 0.0)
        dram = DRAM(1024)
        bank.on_power_loss(dram.power_loss)
        dram.write(0, b"data", SimClock())
        bank.draw(5.0)
        assert not dram.powered
        dram.power_restore()
        assert dram.read(0, 4, SimClock(1.0))[0] == bytes(4)

    def test_survival_time_days_for_idle_dram(self):
        # 16 MB of NEC DRAM self-refreshing at 1.5 mW/MB = 24 mW.
        # A modest 40 kJ primary pack must hold it for days (paper 3.1).
        bank = BatteryBank(40_000.0, 2_000.0)
        load_watts = 16 * 0.0015
        days = bank.survival_time(load_watts) / 86400
        assert days > 10

    def test_backup_hours_not_days(self):
        bank = BatteryBank(0.0, 500.0)  # only the lithium backup
        load_watts = 16 * 0.0015
        hours = bank.survival_time(load_watts) / 3600
        assert 1 < hours < 24 * 3

    def test_swap_primary_under_backup(self):
        bank = BatteryBank(10.0, 100.0)
        bank.draw(15.0)  # primary dead, backup carrying
        assert bank.state is BatteryState.ON_BACKUP
        bank.swap_primary(200.0)
        assert bank.state is BatteryState.ON_PRIMARY
        assert bank.primary.remaining_joules == 200.0

    def test_abrupt_primary_failure(self):
        bank = BatteryBank(100.0, 50.0)
        bank.fail_primary()
        assert bank.state is BatteryState.ON_BACKUP
        assert bank.remaining_joules() == pytest.approx(50.0)

    def test_fail_all_kills_immediately(self):
        bank = BatteryBank(100.0, 50.0)
        died = []
        bank.on_power_loss(lambda: died.append(True))
        bank.fail_all(now=9.0)
        assert bank.state is BatteryState.DEAD
        assert died and bank.death_time == 9.0
