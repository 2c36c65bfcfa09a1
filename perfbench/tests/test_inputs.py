"""The same seed regenerates byte-identical inputs."""

import os

import pytest

from workloads import WORKLOADS


def _files(directory):
    return {name: open(os.path.join(directory, name), "rb").read() for name in sorted(os.listdir(directory))}


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_same_seed_same_bytes(name, tmp_path):
    workload = WORKLOADS[name]()
    first, second = workload.generate(11), workload.generate(11)
    assert first.to_bytes() == second.to_bytes()
    a, b = tmp_path / "a", tmp_path / "b"
    a.mkdir()
    b.mkdir()
    first.write_files(str(a))
    second.write_files(str(b))
    assert _files(str(a)) == _files(str(b))


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_other_seed_other_inputs(name):
    workload = WORKLOADS[name]()
    assert workload.generate(11).to_bytes() != workload.generate(12).to_bytes()


def test_multitone_kind_shares():
    inputs = WORKLOADS["multitone_rails"]().generate(3)
    kinds = [inputs.op(i)["kind"] for i in range(100)]
    assert (kinds.count("inside"), kinds.count("rails"), kinds.count("slew")) == (70, 20, 10)
