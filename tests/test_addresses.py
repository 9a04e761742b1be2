"""Tests for MAC/IPv4 address and prefix types."""

import copy
import json
import multiprocessing
import pickle

import pytest

from repro import cli
from repro.bgp.messages import OpenMessage
from repro.net.addresses import (
    BROADCAST_MAC,
    AddressError,
    IPv4Address,
    IPv4Prefix,
    MacAddress,
)
from repro.net.packets import ArpOp, ArpPacket
from repro.routes.prefix_gen import PrefixGenerator
from repro.scenarios.campaign import CampaignResult


class TestMacAddress:
    def test_parse_and_format(self):
        mac = MacAddress("00:1a:2b:3c:4d:5e")
        assert str(mac) == "00:1a:2b:3c:4d:5e"

    def test_dash_separator_accepted(self):
        assert MacAddress("00-1a-2b-3c-4d-5e") == MacAddress("00:1a:2b:3c:4d:5e")

    def test_from_int_roundtrip(self):
        mac = MacAddress(0x0000DEADBEEF)
        assert MacAddress(str(mac)) == mac

    def test_invalid_string_rejected(self):
        with pytest.raises(AddressError):
            MacAddress("not-a-mac")

    def test_out_of_range_int_rejected(self):
        with pytest.raises(AddressError):
            MacAddress(1 << 48)

    def test_broadcast_detection(self):
        assert BROADCAST_MAC.is_broadcast
        assert not MacAddress(1).is_broadcast

    def test_equality_and_hash(self):
        assert MacAddress(5) == MacAddress(5)
        assert hash(MacAddress(5)) == hash(MacAddress(5))
        assert MacAddress(5) != MacAddress(6)

    def test_ordering(self):
        assert MacAddress(1) < MacAddress(2)

    def test_copy_constructor(self):
        original = MacAddress(42)
        assert MacAddress(original) == original

    def test_prefix_rejected_although_it_is_an_int(self):
        with pytest.raises(AddressError):
            MacAddress(IPv4Prefix("0.0.0.1/32"))


class TestIPv4Address:
    def test_parse_and_format(self):
        address = IPv4Address("192.168.1.200")
        assert str(address) == "192.168.1.200"
        assert address.value == (192 << 24) | (168 << 16) | (1 << 8) | 200

    def test_invalid_octet_rejected(self):
        with pytest.raises(AddressError):
            IPv4Address("300.1.1.1")

    def test_wrong_part_count_rejected(self):
        with pytest.raises(AddressError):
            IPv4Address("10.0.0")

    def test_leading_zero_rejected(self):
        with pytest.raises(AddressError):
            IPv4Address("10.0.01.1")

    def test_out_of_range_int_rejected(self):
        with pytest.raises(AddressError):
            IPv4Address(1 << 32)

    def test_non_ascii_digit_rejected(self):
        # str.isdigit() admits ARABIC-INDIC DIGIT FOUR; int() would read 4.
        with pytest.raises(AddressError):
            IPv4Address("1.2.3.\u0664")

    def test_prefix_rejected_although_it_is_an_int(self):
        with pytest.raises(AddressError):
            IPv4Address(IPv4Prefix("0.0.0.1/32"))

    def test_ordering_and_hash(self):
        assert IPv4Address("1.0.0.1") < IPv4Address("1.0.0.2")
        assert hash(IPv4Address("1.0.0.1")) == hash(IPv4Address("1.0.0.1"))


class TestIPv4Prefix:
    def test_parse_slash_notation(self):
        prefix = IPv4Prefix("10.1.2.3/24")
        assert str(prefix) == "10.1.2.0/24"
        assert prefix.length == 24

    def test_network_is_masked(self):
        assert IPv4Prefix("192.168.1.77/26").network == IPv4Address("192.168.1.64")

    def test_missing_length_rejected(self):
        with pytest.raises(AddressError):
            IPv4Prefix("10.0.0.0")

    def test_invalid_length_rejected(self):
        with pytest.raises(AddressError):
            IPv4Prefix("10.0.0.0/33")

    @pytest.mark.parametrize("length_text", ["\u00b2", "\u0663"])
    def test_non_ascii_digit_length_rejected(self, length_text):
        # SUPERSCRIPT TWO is a str.isdigit() digit int() cannot read;
        # ARABIC-INDIC DIGIT THREE is one it reads as 3.
        with pytest.raises(AddressError):
            IPv4Prefix("10.0.0.0/" + length_text)

    def test_contains_address(self):
        prefix = IPv4Prefix("10.0.0.0/8")
        assert prefix.contains(IPv4Address("10.200.3.4"))
        assert not prefix.contains(IPv4Address("11.0.0.1"))

    def test_contains_more_specific_prefix(self):
        assert IPv4Prefix("10.0.0.0/8").contains(IPv4Prefix("10.1.0.0/16"))
        assert not IPv4Prefix("10.1.0.0/16").contains(IPv4Prefix("10.0.0.0/8"))

    def test_contains_string_forms(self):
        prefix = IPv4Prefix("10.0.0.0/8")
        assert prefix.contains("10.1.2.3")
        assert prefix.contains("10.2.0.0/16")

    def test_num_addresses_and_bounds(self):
        prefix = IPv4Prefix("10.0.0.0/30")
        assert prefix.num_addresses == 4
        assert prefix.network == IPv4Address("10.0.0.0")
        assert prefix.last_address == IPv4Address("10.0.0.3")

    def test_default_route(self):
        default = IPv4Prefix("0.0.0.0/0")
        assert default.contains(IPv4Address("200.1.2.3"))
        assert default.num_addresses == 1 << 32

    def test_mask_for(self):
        assert IPv4Prefix.mask_for(0) == 0
        assert IPv4Prefix.mask_for(32) == 0xFFFFFFFF
        assert IPv4Prefix.mask_for(24) == 0xFFFFFF00

    def test_equality_hash_ordering(self):
        assert IPv4Prefix("10.0.0.0/24") == IPv4Prefix("10.0.0.1/24")
        assert hash(IPv4Prefix("10.0.0.0/24")) == hash(IPv4Prefix("10.0.0.5/24"))
        assert IPv4Prefix("10.0.0.0/24") < IPv4Prefix("10.0.1.0/24")

    def test_as_tuple(self):
        prefix = IPv4Prefix("10.0.0.0/24")
        assert prefix.as_tuple() == (prefix.network.value, 24)

    def test_netmask(self):
        prefix = IPv4Prefix("10.0.0.0/25")
        assert IPv4Prefix.mask_for(prefix.length) == IPv4Address("255.255.255.128").value

    def test_default_route_is_truthy(self):
        default = IPv4Prefix("0.0.0.0/0")
        assert default == 0
        assert bool(default)

    def test_formats_as_text_not_as_a_number(self):
        prefix = IPv4Prefix("10.1.0.0/16")
        assert f"{prefix}" == "%s" % prefix == "10.1.0.0/16"
        assert f"{prefix:>12}" == " 10.1.0.0/16"
        assert repr(prefix) == "IPv4Prefix('10.1.0.0/16')"
        assert json.dumps(str(prefix)) == '"10.1.0.0/16"'

    def test_pickle_copy_and_process_round_trips(self):
        # int.__getnewargs__ would rebuild through __new__(cls, code), which
        # reads a lone int as a network that lacks its length.
        prefixes = [IPv4Prefix(t) for t in ("0.0.0.0/0", "10.1.0.0/16", "255.255.255.255/32")]
        clones = [
            pickle.loads(pickle.dumps(prefixes)),
            [copy.copy(prefix) for prefix in prefixes],
            copy.deepcopy({"key": prefixes})["key"],
        ]
        with multiprocessing.get_context("spawn").Pool(1) as pool:
            # Arguments are pickled to the worker, results back.
            clones.append(pool.map(IPv4Prefix, prefixes))
        for cloned in clones:
            assert [type(clone) for clone in cloned] == [IPv4Prefix] * 3
            assert cloned == prefixes
            assert [str(clone) for clone in cloned] == [str(p) for p in prefixes]


class TestPrefixIsItsCode:
    """A prefix is the int ``(network << 6) | length``: one identity for
    the campaign path (prefixes) and the bulk path (plain codes)."""

    def test_is_an_int_equal_to_its_code(self):
        prefix = IPv4Prefix("10.0.0.0/8")
        assert isinstance(prefix, int)
        assert prefix == (0x0A000000 << 6) | 8
        assert {prefix: 1}[int(prefix)] == 1
        assert int(prefix) in {prefix}

    def test_from_code_round_trip(self):
        prefix = IPv4Prefix("203.0.113.0/24")
        clone = IPv4Prefix.from_code(int(prefix))
        assert type(clone) is IPv4Prefix
        assert clone == prefix and str(clone) == "203.0.113.0/24"

    def test_edge_lengths(self):
        for text in ("0.0.0.0/0", "255.255.255.255/32", "128.0.0.0/1"):
            prefix = IPv4Prefix(text)
            clone = IPv4Prefix.from_code(int(prefix))
            assert clone == prefix
            assert clone.as_tuple() == (prefix.network.value, prefix.length)
            assert str(clone) == text

    def test_host_bits_masked_by_the_constructor(self):
        raw = IPv4Address("10.1.2.3").value
        prefix = IPv4Prefix(raw, 16)
        assert prefix.as_tuple() == (IPv4Address("10.1.0.0").value, 16)
        assert prefix == IPv4Prefix("10.1.2.3/16")
        assert prefix == (IPv4Address("10.1.0.0").value << 6) | 16

    def test_generated_table_round_trips(self):
        generator = PrefixGenerator(3)
        prefixes = generator.generate(500)
        codes = list(PrefixGenerator(3).stream_codes(500))
        assert codes == prefixes
        assert all(type(code) is int for code in codes)
        assert [IPv4Prefix.from_code(code) for code in codes] == prefixes
        assert [IPv4Prefix(str(prefix)) for prefix in prefixes] == prefixes

    def test_bounds(self):
        assert IPv4Prefix(0, 0) == 0
        top = IPv4Prefix((1 << 32) - 1, 32)
        assert top == (0xFFFFFFFF << IPv4Prefix.LENGTH_BITS) | 32
        with pytest.raises(AddressError):
            IPv4Prefix(0, 33)

    @pytest.mark.parametrize(
        "code",
        [
            -1,
            33,  # 0.0.0.0/33
            (1 << 38) | 32,  # network beyond 32 bits
            (IPv4Address("10.1.2.3").value << 6) | 16,  # host bits set
        ],
    )
    def test_from_code_rejects_what_is_not_a_code(self, code):
        with pytest.raises(AddressError):
            IPv4Prefix.from_code(code)

    def test_codes_sort_exactly_like_network_length_tuples(self):
        """The determinism keystone: every sorted()/min() over prefixes
        or raw codes visits them in (network, length) order."""
        prefixes = [
            IPv4Prefix("10.0.0.0/8"),
            IPv4Prefix("10.0.0.0/16"),
            IPv4Prefix("10.0.0.0/24"),
            IPv4Prefix("10.0.1.0/24"),
            IPv4Prefix("9.255.255.0/24"),
            IPv4Prefix("0.0.0.0/0"),
            IPv4Prefix("255.255.255.255/32"),
        ] + PrefixGenerator(11).generate(200)
        by_tuple = sorted(prefixes, key=lambda prefix: prefix.as_tuple())
        assert sorted(prefixes) == by_tuple
        assert sorted(int(prefix) for prefix in prefixes) == by_tuple

    def test_min_agrees_with_tuple_min(self):
        prefixes = PrefixGenerator(5).generate(50)
        expected = min(prefixes, key=lambda prefix: prefix.as_tuple())
        assert min(prefixes) is expected
        assert min(int(prefix) for prefix in prefixes) == expected

    def test_str_of_a_wrapped_code(self):
        code = int(IPv4Prefix("198.51.100.0/24"))
        assert str(IPv4Prefix.from_code(code)) == "198.51.100.0/24"
        assert str(code) != "198.51.100.0/24"  # a plain code prints as a number

    def test_contains_address_from_a_wrapped_code(self):
        prefix = IPv4Prefix.from_code(int(IPv4Prefix("192.0.2.0/24")))
        assert prefix.contains(IPv4Address("192.0.2.17"))
        assert not prefix.contains(IPv4Address("192.0.3.17"))
        assert IPv4Prefix.from_code(0).contains(IPv4Address(0xFFFFFFFF))

    def test_length_bits_leave_room_for_any_network(self):
        assert IPv4Prefix.LENGTH_BITS >= 6  # lengths 0..32 need six bits
        top = IPv4Prefix("255.255.255.255/32")
        assert top < 1 << (32 + IPv4Prefix.LENGTH_BITS)
        assert top >> IPv4Prefix.LENGTH_BITS == 0xFFFFFFFF


class TestAddressesAreInts:
    """An address is its 32-bit value and a MAC its 48-bit value, the way a
    prefix is its code: these pin what ``int`` would otherwise change."""

    def test_are_ints_equal_to_their_values(self):
        assert isinstance(IPv4Address("10.0.0.1"), int)
        assert IPv4Address("10.0.0.1") == 0x0A000001
        assert MacAddress("00:00:00:00:01:02") == 0x0102
        assert type(IPv4Address("10.0.0.1").value) is int
        assert type(MacAddress(7).value) is int

    def test_zero_is_truthy(self):
        assert IPv4Address("0.0.0.0") == 0
        assert bool(IPv4Address("0.0.0.0"))
        assert MacAddress(0) == 0
        assert bool(MacAddress(0))

    @pytest.mark.parametrize(
        "build, value",
        [(MacAddress, IPv4Address("10.0.0.1")), (IPv4Address, MacAddress("00:00:00:00:00:05"))],
        ids=["mac-from-ip", "ip-from-mac"],
    )
    def test_other_kinds_are_refused_although_they_are_ints(self, build, value):
        # A prefix passed to either constructor: test_prefix_rejected_although_it_is_an_int.
        with pytest.raises(AddressError):
            build(value)

    def test_pickle_deepcopy_and_asdict_keep_the_type(self):
        values = [IPv4Address("0.0.0.0"), IPv4Address("192.0.2.1"), MacAddress(0), BROADCAST_MAC]
        packet = ArpPacket(
            ArpOp.REPLY, MacAddress(5), IPv4Address(5), MacAddress(0), IPv4Address(0)
        )
        clones = [
            pickle.loads(pickle.dumps(values)),
            [copy.copy(value) for value in values],
            copy.deepcopy({"key": values})["key"],
            list(copy.deepcopy(packet)._asdict().values())[1:],
        ]
        assert [type(v) for v in clones[-1]] == [MacAddress, IPv4Address] * 2
        for cloned in clones[:3]:
            assert [type(clone) for clone in cloned] == [type(v) for v in values]
            assert cloned == values
        message = copy.deepcopy(OpenMessage(router_id=IPv4Address("1.1.1.1")))
        router_id = message._asdict()["router_id"]
        assert type(router_id) is IPv4Address and str(router_id) == "1.1.1.1"

    def test_format_as_text_not_as_a_number(self):
        address, mac = IPv4Address("10.1.0.7"), MacAddress("00:1a:2b:3c:4d:5e")
        assert str(address) == f"{address}" == "%s" % address == "10.1.0.7"
        assert f"{address:>10}" == "  10.1.0.7"
        assert repr(address) == "IPv4Address('10.1.0.7')"
        assert str(mac) == f"{mac}" == "00:1a:2b:3c:4d:5e"
        assert f"{mac:<18}|" == "00:1a:2b:3c:4d:5e |"
        assert repr(mac) == "MacAddress('00:1a:2b:3c:4d:5e')"
        assert str(MacAddress(0)) == "00:00:00:00:00:00"
        assert json.dumps(str(address)) == '"10.1.0.7"'


_ADDRESS_TYPES = (IPv4Address, MacAddress, IPv4Prefix)


def _leaked_values(payload, path="$"):
    """Every address, MAC or prefix object inside a JSON-ready payload."""
    if isinstance(payload, _ADDRESS_TYPES):
        return [f"{path}={payload!r}"]
    if isinstance(payload, dict):
        found = [f"{path}[key {key!r}]" for key in payload if isinstance(key, _ADDRESS_TYPES)]
        for key, value in payload.items():
            found.extend(_leaked_values(value, f"{path}.{key}"))
        return found
    if isinstance(payload, (list, tuple)):
        return [
            leak
            for index, item in enumerate(payload)
            for leak in _leaked_values(item, f"{path}[{index}]")
        ]
    return []


class TestExportsCarryNoAddressObjects:
    """``json.dumps`` writes an address, a MAC or a prefix as a number, so a
    leaked one would silently change an export: exports must ``str()`` them.
    Each test captures the object a CLI command serialises and walks it."""

    def test_sweep_record(self, monkeypatch, tmp_path):
        reports = []
        monkeypatch.setattr(
            CampaignResult, "write", lambda self, path: reports.append(self.to_report())
        )
        cli.main(
            ["scenarios", "sweep", "--preset", "remote-supercharge", "--prefixes-grid", "40",
             "--flows", "4", "--failures", "remote_withdraw", "link_down",
             "--output", str(tmp_path / "sweep.json")]
        )
        (report,) = reports
        assert len(report["scenarios"]) == 2
        assert _leaked_values(report) == []

    def test_trace_dump(self, monkeypatch):
        payloads = []
        monkeypatch.setattr(cli, "_print_json", payloads.append)
        cli.main(
            ["trace", "--preset", "remote-supercharge", "--prefixes", "40", "--flows", "4",
             "--json"]
        )
        (payload,) = payloads
        assert payload["events"]
        assert _leaked_values(payload) == []

    def test_report_json(self, monkeypatch):
        reports = []
        real = cli.report_to_json
        monkeypatch.setattr(
            cli, "report_to_json", lambda report: reports.append(report) or real(report)
        )
        cli.main(["report", "--preset", "figure4", "--prefixes", "40", "--flows", "4", "--json"])
        (report,) = reports
        assert _leaked_values(report) == []
