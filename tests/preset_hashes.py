"""Print ``<preset> <sha256>`` for every preset's smoke-size campaign export.

``tests/test_determinism.py`` starts this script in fresh interpreters
under different ``PYTHONHASHSEED``s and compares the lines; by hand::

    PYTHONPATH=src python -B tests/preset_hashes.py
"""

import hashlib

from repro.scenarios import CampaignRunner, get_preset, preset_names

for name in preset_names():
    spec = get_preset(name, num_prefixes=300, monitored_flows=10)
    export = CampaignRunner([spec]).run().scenarios_json()
    print(name, hashlib.sha256(export.encode()).hexdigest())
