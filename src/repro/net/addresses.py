"""MAC addresses, IPv4 addresses and IPv4 prefixes.

The types are small immutable value objects with parsing, formatting and
the arithmetic the rest of the library needs (prefix containment, LPM
comparisons, iteration over host addresses, virtual-MAC allocation).
They are deliberately independent of :mod:`ipaddress` so the library has
no behavioural surprises around exotic notations and stays fast on the
hot paths (hundreds of thousands of FIB entries).

All three are ``int`` subclasses with no per-instance storage: an
address is its 32-bit value, a MAC its 48-bit value, a prefix its code.
Equality, hashing and ordering are ``int``'s (in C, and not salted by
``PYTHONHASHSEED``), and every value stays truthy.  Two consequences:

* a MAC, an address and a prefix code of equal integer value are equal
  and collide as dictionary keys, so a mapping must never mix the kinds
  (none in the library does: ARP binds addresses to MACs, flow matches
  name their fields, and the switch's port map holds port numbers);
* ``json.dumps`` writes a leaked address, MAC or prefix as a number
  instead of raising, so exports must pass ``str(value)``.
"""

from __future__ import annotations

import re
from typing import Callable, Tuple, Union


class AddressError(ValueError):
    """Raised when an address or prefix string cannot be parsed."""


_MAC_RE = re.compile(r"^([0-9a-fA-F]{2}[:\-]){5}[0-9a-fA-F]{2}$")


class _IntValue(int):
    """An ``int`` that is a value of its own kind: always truthy, and
    formatted as its text (``f"{value:>18}"``), never as a number."""

    __slots__ = ()

    def __bool__(self) -> bool:
        return True  # 0.0.0.0, 00:00:00:00:00:00 and 0.0.0.0/0 are values

    def __format__(self, spec: str) -> str:
        return format(str(self), spec)


class MacAddress(_IntValue):
    """48-bit Ethernet MAC address.

    A MAC *is* its 48-bit integer: equality, hashing and ordering are
    ``int``'s.  ``MacAddress(0)`` stays truthy, and the constructor
    refuses the other address types although they are ints too.
    """

    __slots__ = ()

    MAX = (1 << 48) - 1

    def __new__(cls, value: Union[int, str, "MacAddress"]) -> "MacAddress":
        if isinstance(value, MacAddress):
            return value
        if isinstance(value, int):
            if isinstance(value, (IPv4Address, IPv4Prefix)):  # ints, not MACs
                raise AddressError(f"cannot build MacAddress from {type(value).__name__}")
            if not 0 <= value <= cls.MAX:
                raise AddressError(f"MAC integer out of range: {value}")
            return int.__new__(cls, value)
        if isinstance(value, str):
            if not _MAC_RE.match(value):
                raise AddressError(f"invalid MAC address: {value!r}")
            return int.__new__(cls, int(value.replace("-", ":").replace(":", ""), 16))
        raise AddressError(f"cannot build MacAddress from {type(value).__name__}")

    @property
    def value(self) -> int:
        """The 48-bit integer value, as a plain ``int``."""
        return int(self)

    @property
    def is_broadcast(self) -> bool:
        """True for ff:ff:ff:ff:ff:ff."""
        return self == self.MAX

    def __str__(self) -> str:
        raw = "%012x" % self
        return ":".join(raw[i : i + 2] for i in range(0, 12, 2))

    def __repr__(self) -> str:
        return f"MacAddress('{self}')"


class IPv4Address(_IntValue):
    """32-bit IPv4 address.

    An address *is* its 32-bit integer, like :class:`IPv4Prefix` is its
    code: ``0.0.0.0`` stays truthy, and the constructor refuses a MAC or
    a prefix although they are ints too.
    """

    __slots__ = ()

    MAX = (1 << 32) - 1

    def __new__(cls, value: Union[int, str, "IPv4Address"]) -> "IPv4Address":
        if isinstance(value, IPv4Address):
            return value
        if isinstance(value, int):
            if isinstance(value, (MacAddress, IPv4Prefix)):  # ints, not addresses
                raise AddressError(f"cannot build IPv4Address from {type(value).__name__}")
            if not 0 <= value <= cls.MAX:
                raise AddressError(f"IPv4 integer out of range: {value}")
            return int.__new__(cls, value)
        if isinstance(value, str):
            return int.__new__(cls, cls._parse(value))
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
        """The 32-bit integer value, as a plain ``int``."""
        return int(self)

    def __str__(self) -> str:
        return f"{(self >> 24) & 0xFF}.{(self >> 16) & 0xFF}.{(self >> 8) & 0xFF}.{self & 0xFF}"

    def __repr__(self) -> str:
        return f"IPv4Address('{self}')"


#: Netmask per prefix length (index = length): the one table the prefix,
#: the LPM table and the MRT reader index.
MASKS: Tuple[int, ...] = tuple(
    (0xFFFFFFFF << (32 - length)) & 0xFFFFFFFF for length in range(33)
)


class IPv4Prefix(_IntValue):
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
        masked = IPv4Address(network) & MASKS[length]
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
            return (item & MASKS[length]) == network
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


#: The Ethernet broadcast address (down here because building a MAC from
#: an int consults :class:`IPv4Prefix`).
BROADCAST_MAC = MacAddress(MacAddress.MAX)
