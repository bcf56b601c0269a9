"""Run configuration: budgets, tolerance overrides, seed.

The config file is plain JSON with these keys (all optional):

    sieve_limit   number >= 0, max table entries a sieve may allocate
    tolerances    object, check-name -> threshold override (number >= 0)
    seed          integer >= 0, base seed for every randomized sweep

Other keys are ignored; a malformed file or value raises DomainError.

Identical (config, seed) pairs produce byte-identical outputs.
"""

import hashlib
import json
from dataclasses import dataclass, field

from .divisor_core import DEFAULT_SIEVE_BUDGET
from .errors import DomainError, require_seed


@dataclass
class RunConfig:
    sieve_limit: int = DEFAULT_SIEVE_BUDGET
    tolerances: dict = field(default_factory=dict)
    seed: int = 0

    def __post_init__(self):
        if not (isinstance(self.sieve_limit, (int, float)) and self.sieve_limit >= 0):
            raise DomainError(f"sieve_limit must be a number >= 0, got {self.sieve_limit!r}")
        require_seed(self.seed)
        for name, tol in self.tolerances.items():
            try:
                ok = float(tol) >= 0
            except (TypeError, ValueError):
                ok = False
            if not ok:
                raise DomainError(f"tolerance override {name!r} must be a number >= 0, got {tol!r}")

    def canonical(self):
        return {
            "sieve_limit": self.sieve_limit,
            "tolerances": dict(sorted(self.tolerances.items())),
            "seed": self.seed,
            # the values of the removed output section, so that existing hashes hold
            "output_path": None,
            "output_format": "csv",
        }

    def config_hash(self):
        blob = json.dumps(self.canonical(), sort_keys=True).encode()
        return hashlib.sha256(blob).hexdigest()


def read_json(path):
    """The parsed contents of a JSON file, or DomainError with one line."""
    with open(path) as fh:
        try:
            return json.load(fh)
        except ValueError as exc:  # JSONDecodeError, or bytes that are not text
            raise DomainError(f"{path} is not valid JSON: {exc}") from None


def load_config(path):
    raw = read_json(path)
    if not isinstance(raw, dict) or not isinstance(raw.get("tolerances", {}), dict):
        raise DomainError(f"config {path} must be an object whose tolerances are an object")
    return RunConfig(
        sieve_limit=raw.get("sieve_limit", DEFAULT_SIEVE_BUDGET),
        tolerances=raw.get("tolerances", {}),
        seed=raw.get("seed", 0),
    )
