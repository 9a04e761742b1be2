"""Tests for BGP message types."""

from repro.bgp.attributes import AsPath, PathAttributes
from repro.bgp.messages import (
    KeepaliveMessage,
    NotificationMessage,
    OpenMessage,
    UpdateMessage,
)
from repro.net.addresses import IPv4Address, IPv4Prefix


def _attrs(next_hop="10.0.0.2"):
    return PathAttributes(next_hop=IPv4Address(next_hop), as_path=AsPath((65001,)))


def test_announce_and_withdraw_flags():
    prefix = IPv4Prefix("1.0.0.0/24")
    announce = UpdateMessage.announce(prefix, _attrs())
    withdraw = UpdateMessage.withdraw(prefix)
    assert not announce.is_withdraw
    assert withdraw.is_withdraw


def test_a_message_is_its_payload():
    prefix = IPv4Prefix("1.0.0.0/24")
    assert KeepaliveMessage() == KeepaliveMessage()
    assert UpdateMessage.announce(prefix, _attrs()) == UpdateMessage.announce(prefix, _attrs())
    assert UpdateMessage.announce(prefix, _attrs()) != UpdateMessage.withdraw(prefix)
    assert NotificationMessage(reason="bye") != NotificationMessage(reason="hold")


def test_open_message_carries_identity():
    message = OpenMessage(asn=65000, router_id=IPv4Address("10.0.0.1"))
    assert message.asn == 65000
    assert message.router_id == IPv4Address("10.0.0.1")
