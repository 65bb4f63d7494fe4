"""Small shared utilities: bit tricks, timers, RNG handling, validation."""

from repro import _lazy

#: submodule -> the names it exports; each loads on first access (PEP 562),
#: so a command imports only the modules it runs.
__all__, __getattr__, __dir__ = _lazy(__name__, {
    "bits": "next_power_of_two is_power_of_two ilog2 popcount32 popcount_array "
            "pack_bytes_to_words unpack_words_to_bytes",
    "timer": "Timer PhaseTimer",
    "rng": "make_rng derive_seed",
    "memory": "sizeof_array human_bytes",
    "validation": "require require_positive require_in_range require_power_of_two",
})
