import pytest

from perfbench import calibration


def test_factor_averages_the_samples_around_a_unit():
    cal = calibration.Calibrator()
    for start, ms in ((0.0, 4.0), (1.0, 8.0), (2.0, 2.0)):
        cal.record(start, ms)
    ref = calibration.REF_KERNEL_MS
    assert cal.factor(1.0, 1.5) == pytest.approx(ref / 5.0)   # samples at 1.0 and 2.0
    assert cal.factor(0.5, 0.9) == pytest.approx(ref / 6.0)   # samples at 0.0 and 1.0
    assert cal.factor(2.5, 3.0) == pytest.approx(ref / 2.0)   # only the one before
    assert cal.run_factor() == pytest.approx(ref / 4.0)
    assert cal.run_factor(since=1.0) == pytest.approx(ref / 5.0)
    with pytest.raises(ValueError):
        calibration.Calibrator().factor(0.0, 1.0)


def test_sample_times_the_kernel():
    cal = calibration.Calibrator(repeats=1)
    cal.sample()
    assert len(cal.kernel_ms) == 1 and cal.kernel_ms[0] > 0 and cal.spent_s > 0
