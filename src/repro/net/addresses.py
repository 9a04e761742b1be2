"""MAC addresses, IPv4 addresses and IPv4 prefixes.

The types are small immutable value objects with parsing, formatting and
the arithmetic the rest of the library needs (prefix containment, LPM
comparisons, iteration over host addresses, virtual-MAC allocation).
They are deliberately independent of :mod:`ipaddress` so the library has
no behavioural surprises around exotic notations and stays fast on the
hot paths (hundreds of thousands of FIB entries).
"""

from __future__ import annotations

import functools
import re
from typing import Callable, Tuple, Union


class AddressError(ValueError):
    """Raised when an address or prefix string cannot be parsed."""


_MAC_RE = re.compile(r"^([0-9a-fA-F]{2}[:\-]){5}[0-9a-fA-F]{2}$")


@functools.total_ordering
class MacAddress:
    """48-bit Ethernet MAC address."""

    __slots__ = ("_value",)

    MAX = (1 << 48) - 1

    def __init__(self, value: Union[int, str, "MacAddress"]) -> None:
        if isinstance(value, MacAddress):
            self._value = value._value
            return
        if isinstance(value, int):
            if isinstance(value, IPv4Prefix):  # an int, but not a MAC value
                raise AddressError("cannot build MacAddress from IPv4Prefix")
            if not 0 <= value <= self.MAX:
                raise AddressError(f"MAC integer out of range: {value}")
            self._value = value
            return
        if isinstance(value, str):
            if not _MAC_RE.match(value):
                raise AddressError(f"invalid MAC address: {value!r}")
            self._value = int(value.replace("-", ":").replace(":", ""), 16)
            return
        raise AddressError(f"cannot build MacAddress from {type(value).__name__}")

    @property
    def value(self) -> int:
        """The 48-bit integer value."""
        return self._value

    @property
    def is_broadcast(self) -> bool:
        """True for ff:ff:ff:ff:ff:ff."""
        return self._value == self.MAX

    def __str__(self) -> str:
        raw = f"{self._value:012x}"
        return ":".join(raw[i : i + 2] for i in range(0, 12, 2))

    def __repr__(self) -> str:
        return f"MacAddress('{self}')"

    def __eq__(self, other: object) -> bool:
        return isinstance(other, MacAddress) and other._value == self._value

    def __hash__(self) -> int:
        return hash(("mac", self._value))

    def __lt__(self, other: "MacAddress") -> bool:
        return self._value < other._value


@functools.total_ordering
class IPv4Address:
    """32-bit IPv4 address."""

    __slots__ = ("_value",)

    MAX = (1 << 32) - 1

    def __init__(self, value: Union[int, str, "IPv4Address"]) -> None:
        if isinstance(value, IPv4Address):
            self._value = value._value
            return
        if isinstance(value, int):
            if isinstance(value, IPv4Prefix):  # an int, but not an address
                raise AddressError("cannot build IPv4Address from IPv4Prefix")
            if not 0 <= value <= self.MAX:
                raise AddressError(f"IPv4 integer out of range: {value}")
            self._value = value
            return
        if isinstance(value, str):
            self._value = self._parse(value)
            return
        raise AddressError(f"cannot build IPv4Address from {type(value).__name__}")

    @staticmethod
    def _parse(text: str) -> int:
        parts = text.split(".")
        if len(parts) != 4:
            raise AddressError(f"invalid IPv4 address: {text!r}")
        value = 0
        for part in parts:
            if not (part.isascii() and part.isdigit()):
                raise AddressError(f"invalid IPv4 address: {text!r}")
            octet = int(part)
            if octet > 255 or (len(part) > 1 and part[0] == "0"):
                raise AddressError(f"invalid IPv4 address: {text!r}")
            value = (value << 8) | octet
        return value

    @property
    def value(self) -> int:
        """The 32-bit integer value."""
        return self._value

    def __str__(self) -> str:
        v = self._value
        return f"{(v >> 24) & 0xFF}.{(v >> 16) & 0xFF}.{(v >> 8) & 0xFF}.{v & 0xFF}"

    def __repr__(self) -> str:
        return f"IPv4Address('{self}')"

    def __eq__(self, other: object) -> bool:
        return isinstance(other, IPv4Address) and other._value == self._value

    def __hash__(self) -> int:
        return hash(("ipv4", self._value))

    def __lt__(self, other: "IPv4Address") -> bool:
        return self._value < other._value


#: Netmask per prefix length (index = length): the one table the prefix,
#: the LPM table and the MRT reader index.
MASKS: Tuple[int, ...] = tuple(
    (0xFFFFFFFF << (32 - length)) & 0xFFFFFFFF for length in range(33)
)


class IPv4Prefix(int):
    """IPv4 prefix (network address + mask length) with LPM helpers.

    A prefix *is* its integer code ``(network << 6) | length``: equality,
    hashing and ordering are ``int``'s, a prefix and its raw code are the
    same dictionary key, and codes sort exactly like ``(network, length)``
    tuples.  Bulk pipelines (synthetic table streams, MRT ingest, the
    compact RIB) trade plain ``int`` codes and wrap one with
    :meth:`from_code` only where a prefix has to be printed.  Because it is
    an ``int``, ``json.dumps`` writes a leaked prefix as a number instead
    of raising: exports must pass ``str(prefix)``.
    """

    __slots__ = ()

    #: Low bits of the code that hold the mask length (0..32 needs six);
    #: the methods below inline it as ``>> 6`` / ``& 0x3F``.
    LENGTH_BITS = 6

    def __new__(
        cls,
        network: Union[str, int, IPv4Address, "IPv4Prefix"],
        length: int = None,
    ) -> "IPv4Prefix":
        if isinstance(network, IPv4Prefix):
            return network
        if isinstance(network, str) and "/" in network:
            address_text, _, length_text = network.partition("/")
            if not (length_text.isascii() and length_text.isdigit()):
                raise AddressError(f"invalid prefix: {network!r}")
            network = address_text
            length = int(length_text)
        if length is None:
            raise AddressError("prefix length is required")
        if not 0 <= length <= 32:
            raise AddressError(f"prefix length out of range: {length}")
        masked = IPv4Address(network).value & MASKS[length]
        return int.__new__(cls, (masked << 6) | length)

    @classmethod
    def from_code(cls, code: int) -> "IPv4Prefix":
        """The prefix whose integer code is ``code`` (``int(prefix)``)."""
        network, length = code >> 6, code & 0x3F
        if length > 32 or not 0 <= network <= 0xFFFFFFFF or network & ~MASKS[length]:
            raise AddressError(f"invalid prefix code: {code}")
        return int.__new__(cls, code)

    def __reduce__(self) -> Tuple[Callable[[int], "IPv4Prefix"], Tuple[int]]:
        # int.__getnewargs__ would re-enter __new__(cls, code) as "a
        # network without a length" on unpickle / deepcopy / asdict.
        return (IPv4Prefix.from_code, (int(self),))

    def __bool__(self) -> bool:
        return True  # 0.0.0.0/0 has code 0 and is still a prefix

    @staticmethod
    def mask_for(length: int) -> int:
        """The 32-bit netmask integer for a given prefix length."""
        return MASKS[length]

    @property
    def network(self) -> IPv4Address:
        """The (masked) network address."""
        return IPv4Address(self >> 6)

    @property
    def length(self) -> int:
        """The mask length (0-32)."""
        return self & 0x3F

    @property
    def num_addresses(self) -> int:
        """Number of addresses covered by the prefix."""
        return 1 << (32 - (self & 0x3F))

    @property
    def last_address(self) -> IPv4Address:
        """The highest address of the prefix (the broadcast address)."""
        return IPv4Address((self >> 6) | (self.num_addresses - 1))

    def contains(self, item: Union[IPv4Address, "IPv4Prefix", str]) -> bool:
        """Whether an address (or a more-specific prefix) falls inside this prefix."""
        if isinstance(item, str):
            item = IPv4Prefix(item) if "/" in item else IPv4Address(item)
        network, length = self >> 6, self & 0x3F
        if isinstance(item, IPv4Address):
            return (item.value & MASKS[length]) == network
        if isinstance(item, IPv4Prefix):
            return (item & 0x3F) >= length and ((item >> 6) & MASKS[length]) == network
        raise AddressError(f"cannot test containment of {type(item).__name__}")

    def as_tuple(self) -> Tuple[int, int]:
        """``(network_int, length)`` of the prefix."""
        return (self >> 6, self & 0x3F)

    def __str__(self) -> str:
        return f"{IPv4Address(self >> 6)}/{self & 0x3F}"

    def __repr__(self) -> str:
        return f"IPv4Prefix('{self}')"

    def __format__(self, spec: str) -> str:
        return format(str(self), spec)


#: The Ethernet broadcast address (down here because building a MAC from
#: an int consults :class:`IPv4Prefix`).
BROADCAST_MAC = MacAddress(MacAddress.MAX)
