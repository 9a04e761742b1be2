"""Tests for the VNH/VMAC allocator."""

import pytest

from repro.core.vnh_allocator import VnhAllocationError, VnhAllocator
from repro.net.addresses import IPv4Address, IPv4Prefix

POOL = IPv4Prefix("10.0.0.128/25")


def test_allocations_are_unique_and_in_pool():
    allocator = VnhAllocator(POOL)
    seen_vnhs, seen_vmacs = set(), set()
    for _ in range(50):
        vnh, vmac = allocator.allocate()
        assert POOL.contains(vnh)
        assert vnh not in seen_vnhs
        assert vmac not in seen_vmacs
        seen_vnhs.add(vnh)
        seen_vmacs.add(vmac)
    assert allocator.allocated_count == 50


def test_network_and_broadcast_addresses_skipped():
    allocator = VnhAllocator(POOL)
    vnhs = {allocator.allocate()[0] for _ in range(20)}
    assert POOL.network not in vnhs
    assert POOL.last_address not in vnhs


def test_reserved_addresses_skipped():
    reserved = {IPv4Address("10.0.0.129"), IPv4Address("10.0.0.130")}
    allocator = VnhAllocator(POOL, reserved=reserved)
    vnhs = {allocator.allocate()[0] for _ in range(10)}
    assert vnhs.isdisjoint(reserved)


def test_vmacs_are_locally_administered():
    allocator = VnhAllocator(POOL)
    _vnh, vmac = allocator.allocate()
    # First octet: locally-administered bit set, group (multicast) bit clear.
    assert (vmac.value >> 40) & 0x03 == 0x02


def test_deterministic_sequence():
    a = [VnhAllocator(POOL).allocate() for _ in range(1)]
    first = VnhAllocator(POOL)
    second = VnhAllocator(POOL)
    assert [first.allocate() for _ in range(10)] == [second.allocate() for _ in range(10)]


def test_release_and_reuse():
    allocator = VnhAllocator(POOL)
    vnh, vmac = allocator.allocate()
    assert allocator.release(vnh) is True
    assert allocator.release(vnh) is False
    assert allocator.allocate() == (vnh, vmac)


def test_pool_exhaustion_raises():
    tiny = VnhAllocator(IPv4Prefix("10.0.0.0/30"))
    tiny.allocate()
    tiny.allocate()
    with pytest.raises(VnhAllocationError):
        tiny.allocate()
