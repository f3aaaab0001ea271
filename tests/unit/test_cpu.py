"""Unit tests for simulated CPUs: queueing, preemption, accounting."""

import pytest

from repro.core.cpu import REAL_JOB, SIM_JOB, CpuPool, SimulatedCpu
from repro.core.kernel import Simulator


def sim_job(cpu, duration, done, tag=""):
    """Submit ``duration`` of modeled work to ``cpu`` (a CPU or a pool)."""
    cpu.submit_sim(duration, lambda: done.append(tag))


def real_job(cpu, duration, done, tag=""):
    """Submit real code measured at ``duration`` to ``cpu``."""
    cpu.submit_real(lambda: duration, (), lambda: done.append(tag))


class TestSimulatedCpu:
    def test_sim_job_occupies_cpu_for_duration(self):
        sim = Simulator()
        cpu = SimulatedCpu(sim)
        done = []
        sim_job(cpu, 0.5, done, "a")
        assert cpu.busy
        sim.run()
        assert done == ["a"]
        assert sim.now == pytest.approx(0.5)

    def test_jobs_queue_fifo(self):
        sim = Simulator()
        cpu = SimulatedCpu(sim)
        done = []
        sim_job(cpu, 0.2, done, "a")
        sim_job(cpu, 0.3, done, "b")
        sim.run()
        assert done == ["a", "b"]
        assert sim.now == pytest.approx(0.5)

    def test_real_job_duration_from_execute(self):
        sim = Simulator()
        cpu = SimulatedCpu(sim)
        done = []
        real_job(cpu, 0.25, done, "r")
        sim.run()
        assert done == ["r"]
        assert sim.now == pytest.approx(0.25)

    def test_real_preempts_running_sim_job(self):
        sim = Simulator()
        cpu = SimulatedCpu(sim)
        done = []
        sim_job(cpu, 1.0, done, "slow")
        sim.call(0.4, real_job, cpu, 0.2, done, "urgent")
        sim.run()
        # urgent runs at 0.4..0.6; slow resumes with 0.6 remaining.
        assert done == ["urgent", "slow"]
        assert sim.now == pytest.approx(1.2)

    def test_preempted_job_is_served_in_full_across_two_preemptions(self):
        sim = Simulator()
        cpu = SimulatedCpu(sim)
        done = []
        sim_job(cpu, 1.0, done, "victim")
        sim.call(0.1, real_job, cpu, 0.1, done, "r1")
        sim.call(0.5, real_job, cpu, 0.25, done, "r2")
        sim.run()
        assert done == ["r1", "r2", "victim"]
        assert sim.now == pytest.approx(1.35)
        assert cpu.busy_time[SIM_JOB] == pytest.approx(1.0)
        assert cpu.jobs_completed == {SIM_JOB: 1, REAL_JOB: 2}

    def test_real_does_not_preempt_real(self):
        sim = Simulator()
        cpu = SimulatedCpu(sim)
        done = []
        real_job(cpu, 0.5, done, "r1")
        sim.call(0.1, real_job, cpu, 0.1, done, "r2")
        sim.run()
        assert done == ["r1", "r2"]
        assert sim.now == pytest.approx(0.6)

    def test_busy_time_accounting_by_kind(self):
        sim = Simulator()
        cpu = SimulatedCpu(sim)
        done = []
        sim_job(cpu, 0.3, done)
        real_job(cpu, 0.2, done)
        sim.run()
        assert cpu.busy_time[SIM_JOB] == pytest.approx(0.3)
        assert cpu.busy_time[REAL_JOB] == pytest.approx(0.2)

    def test_utilization_includes_running_slice(self):
        sim = Simulator()
        cpu = SimulatedCpu(sim)
        sim_job(cpu, 1.0, [])
        sim.run(until=0.5)
        usage = cpu.utilization(0.5)
        assert usage["total"] == pytest.approx(1.0)

    def test_negative_durations_rejected(self):
        cpu = SimulatedCpu(Simulator())
        with pytest.raises(ValueError):
            cpu.submit_sim(-1.0)
        with pytest.raises(ValueError):
            cpu.submit_real(lambda: -1.0)


class TestCpuPool:
    def test_pool_spreads_jobs_across_idle_cpus(self):
        sim = Simulator()
        pool = CpuPool(sim, 3)
        done = []
        for tag in "abc":
            sim_job(pool, 1.0, done, tag)
        sim.run()
        assert sorted(done) == ["a", "b", "c"]
        assert sim.now == pytest.approx(1.0)  # parallel, not serial

    def test_pool_queues_when_all_busy(self):
        sim = Simulator()
        pool = CpuPool(sim, 2)
        done = []
        for tag in "abcd":
            sim_job(pool, 1.0, done, tag)
        sim.run()
        assert sim.now == pytest.approx(2.0)

    def test_real_job_placed_on_sim_running_cpu_when_no_idle(self):
        sim = Simulator()
        pool = CpuPool(sim, 2)
        done = []
        sim_job(pool, 1.0, done, "s1")
        real_job(pool, 1.0, done, "r1")

        def later():
            real_job(pool, 0.1, done, "r2")
            # must land on the CPU running modeled work, not behind r1
            assert [cpu.current_kind for cpu in pool.cpus] == [REAL_JOB] * 2
            assert pool.cpus[0].queue_length() == 1  # s1, preempted

        sim.schedule(0.2, later)
        sim.run()
        assert done.index("r2") < done.index("s1")

    def test_pool_utilization_averages(self):
        sim = Simulator()
        pool = CpuPool(sim, 2)
        sim_job(pool, 1.0, [])
        sim.run()
        usage = pool.utilization(1.0)
        assert usage["total"] == pytest.approx(0.5)

    def test_pool_requires_cpu(self):
        with pytest.raises(ValueError):
            CpuPool(Simulator(), 0)
