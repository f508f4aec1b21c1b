"""Sum-checker parameterisation and the Table 2 / Table 3 configurations.

A sum-checker configuration is ``#its × d  m⌈log2 r̂⌉`` in the paper's
syntax: ``iterations`` independent repetitions, each hashing keys into ``d``
buckets and reducing values modulo a random ``r`` drawn uniformly from
``r̂+1 .. 2r̂``.  Lemma 2 bounds a single iteration's failure probability by
``1/r̂ + 1/d``, so the configuration guarantees

    δ  ≤  (1/r̂ + 1/d) ** iterations                        (Lemma 3)

and ships a minireduction table of ``iterations · d · ⌈log2(2r̂)⌉`` bits.

:func:`optimize_parameters` reproduces the paper's **Table 2**: given an
effective minimum message size ``b`` (bits) and a target δ, it finds the
minimum number of iterations and, among those, the (d, r̂) minimising the
achieved failure bound subject to the table fitting in ``b`` bits.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field

from repro.util.bits import ceil_log2


@dataclass(frozen=True)
class SumCheckConfig:
    """Parameters of the §4 sum-aggregation checker.

    Attributes
    ----------
    iterations:
        Number of independent repetitions (all executed in one input pass).
    d:
        Size of the condensed key space (buckets per iteration), ≥ 2.
    rhat:
        Modulus parameter r̂; each iteration draws r uniformly from
        ``r̂+1 .. 2r̂``.  The paper writes configurations as ``m<k>`` meaning
        ``r̂ = 2^k``.
    hash_family:
        Name of the bucket-hash family (see :mod:`repro.hashing.families`).
    """

    iterations: int
    d: int
    rhat: int
    hash_family: str = "Mix"

    def __post_init__(self):
        if self.iterations < 1:
            raise ValueError(f"iterations must be >= 1, got {self.iterations}")
        if self.d < 2:
            raise ValueError(f"d must be >= 2, got {self.d}")
        if self.rhat < 1:
            # r̂ = 1 is the degenerate-but-valid floor: r is always 2 and the
            # table carries one residue bit per bucket (Lemma 2's bound is
            # vacuous there, but the checker itself stays one-sided correct).
            raise ValueError(f"rhat must be >= 1, got {self.rhat}")

    # -- analysis ----------------------------------------------------------
    @property
    def single_iteration_failure_bound(self) -> float:
        """Lemma 2 bound: 1/r̂ + 1/d."""
        return 1.0 / self.rhat + 1.0 / self.d

    @property
    def failure_bound(self) -> float:
        """Lemma 3 bound δ = (1/r̂ + 1/d)^iterations."""
        return self.single_iteration_failure_bound**self.iterations

    @property
    def residue_bits(self) -> int:
        """Bits per bucket counter: ⌈log2(2r̂)⌉."""
        return ceil_log2(2 * self.rhat)

    @property
    def table_bits(self) -> int:
        """Total minireduction table size in bits (the message payload)."""
        return self.iterations * self.d * self.residue_bits

    # -- naming --------------------------------------------------------------
    def label(self, with_hash: bool = True) -> str:
        """Paper syntax, e.g. ``"4x8 CRC m5"`` for 4×8 CRC m5."""
        m = (self.rhat - 1).bit_length()  # log2 for powers of two
        base = f"{self.iterations}x{self.d}"
        hash_part = f" {self.hash_family}" if with_hash else ""
        return f"{base}{hash_part} m{m}"

    @classmethod
    def parse(cls, label: str) -> "SumCheckConfig":
        """Parse the paper's ``#its×d [Hash] m<log2 r̂>`` syntax.

        Accepts ``x`` or ``×`` as the separator, an optional hash-family
        token, and ``m<k>`` meaning ``r̂ = 2^k``.  Example: ``"4x8 Tab m5"``.
        """
        match = re.fullmatch(
            r"\s*(\d+)\s*[x×]\s*(\d+)\s*(?:([A-Za-z][A-Za-z0-9]*)\s*)?m(\d+)\s*",
            label,
        )
        if not match:
            raise ValueError(f"cannot parse configuration label {label!r}")
        its, d, fam, m = match.groups()
        return cls(
            iterations=int(its),
            d=int(d),
            rhat=1 << int(m),
            hash_family=fam or "Mix",
        )

    def with_hash(self, family: str) -> "SumCheckConfig":
        """Same parameters, different hash family."""
        return SumCheckConfig(self.iterations, self.d, self.rhat, family)


#: The configuration every sum-family checker, pipeline and service tenant
#: falls back to when none is given: 8x16 Mix m15.
DEFAULT_CONFIG = SumCheckConfig(iterations=8, d=16, rhat=1 << 15)


def optimize_parameters(
    message_bits: int, delta: float, max_log_rhat: int = 40
) -> SumCheckConfig:
    """Numerically determine optimal (d, r̂, iterations) — paper Table 2.

    Minimises the number of iterations subject to the minireduction table
    fitting the effective minimum message size ``message_bits`` and the
    failure bound reaching δ; among minimum-iteration solutions, picks the
    (d, r̂) minimising the achieved failure bound.  Matches the constraint of
    §4:  ``d · ⌈log2(2r̂)⌉ · ⌈log_{1/r̂+1/d} δ⌉ ≤ b``.
    """
    if message_bits < 8:
        raise ValueError(f"message_bits too small: {message_bits}")
    if not 0.0 < delta < 1.0:
        raise ValueError(f"delta must be in (0, 1), got {delta}")

    for iterations in range(1, 513):
        best: SumCheckConfig | None = None
        for log_rhat in range(1, max_log_rhat + 1):
            residue_bits = log_rhat + 1  # ⌈log2(2·2^k)⌉ = k + 1
            d = message_bits // (iterations * residue_bits)
            if d < 2:
                continue
            config = SumCheckConfig(iterations, d, 1 << log_rhat)
            if best is None or config.failure_bound < best.failure_bound:
                best = config
        if best is not None and best.failure_bound <= delta:
            return best
    raise ValueError(
        f"no configuration with <= 512 iterations reaches delta={delta} "
        f"within {message_bits} message bits"
    )


# ---------------------------------------------------------------------------
# Paper reference data
# ---------------------------------------------------------------------------

#: Table 2 of the paper: (b, δ) -> (d, log2 r̂, iterations, achieved δ).
#: Used by tests/benches to demonstrate digit-for-digit reproduction.
PAPER_TABLE2_ROWS: list[dict] = [
    {"b": 1024, "delta": 1e-4, "d": 37, "log_rhat": 8, "its": 3, "achieved": 3.0e-5},
    {"b": 1024, "delta": 1e-6, "d": 25, "log_rhat": 7, "its": 5, "achieved": 2.5e-7},
    {"b": 1024, "delta": 1e-8, "d": 18, "log_rhat": 7, "its": 7, "achieved": 4.1e-9},
    {"b": 1024, "delta": 1e-10, "d": 14, "log_rhat": 6, "its": 10, "achieved": 2.5e-11},
    {"b": 1024, "delta": 1e-20, "d": 6, "log_rhat": 4, "its": 32, "achieved": 3.3e-21},
    {"b": 4096, "delta": 1e-6, "d": 124, "log_rhat": 10, "its": 3, "achieved": 7.4e-7},
    {"b": 4096, "delta": 1e-10, "d": 68, "log_rhat": 9, "its": 6, "achieved": 2.1e-11},
    {"b": 4096, "delta": 1e-20, "d": 32, "log_rhat": 8, "its": 14, "achieved": 4.4e-21},
    {"b": 16384, "delta": 1e-7, "d": 420, "log_rhat": 12, "its": 3, "achieved": 1.8e-8},
    {"b": 16384, "delta": 1e-10, "d": 273, "log_rhat": 11, "its": 5, "achieved": 1.2e-12},
    {"b": 16384, "delta": 1e-20, "d": 148, "log_rhat": 10, "its": 10, "achieved": 7.6e-22},
    {"b": 16384, "delta": 1e-30, "d": 93, "log_rhat": 10, "its": 16, "achieved": 1.3e-31},
    {"b": 65536, "delta": 1e-10, "d": 1170, "log_rhat": 13, "its": 4, "achieved": 9.1e-13},
    {"b": 65536, "delta": 1e-20, "d": 630, "log_rhat": 12, "its": 8, "achieved": 1.3e-22},
    {"b": 65536, "delta": 1e-30, "d": 420, "log_rhat": 12, "its": 12, "achieved": 1.1e-31},
    {"b": 65536, "delta": 1e-40, "d": 321, "log_rhat": 11, "its": 17, "achieved": 2.9e-42},
]

#: Table 3, first block: configurations used for the accuracy tests (Fig 3).
#: Each is instantiated with both CRC and Tab hashing in the experiments.
PAPER_TABLE3_ACCURACY: list[str] = [
    "1x2 m31",
    "1x4 m31",
    "4x2 m4",
    "4x4 m3",
    "4x4 m5",
    "4x8 m3",
    "4x8 m5",
    "4x8 m7",
]

#: Table 3, second block: configurations used for the scaling tests (Fig 4)
#: and the overhead measurements (Table 5), with the paper's hash families.
PAPER_TABLE3_SCALING: list[str] = [
    "5x16 CRC m5",
    "6x32 CRC m9",
    "8x16 CRC m15",
    "4x256 CRC m15",
    "5x128 Tab64 m11",
    "8x256 Tab64 m15",
    "16x16 Tab64 m15",
]


def table3_expected_failure_rate(label: str) -> float:
    """δ column of Table 3, computed from the configuration label."""
    return SumCheckConfig.parse(label).failure_bound


@dataclass(frozen=True)
class PermCheckConfig:
    """Configuration of the §5 permutation/sort checker accuracy runs.

    Paper syntax ``Hashfn logH`` (Fig 5): one hash-sum iteration with the
    hash output truncated to ``log_h`` bits; expected maximum failure rate
    δ = 2^-log_h for a single-element manipulation.
    """

    log_h: int
    hash_family: str = "Mix"
    iterations: int = 1

    def __post_init__(self):
        if not 1 <= self.log_h <= 64:
            raise ValueError(f"log_h must be in 1..64, got {self.log_h}")
        if self.iterations < 1:
            raise ValueError(f"iterations must be >= 1, got {self.iterations}")

    @property
    def failure_bound(self) -> float:
        """δ = H^-iterations with H = 2^log_h (Lemma 4 / Theorem 6)."""
        return float(2.0 ** (-self.log_h * self.iterations))

    def label(self) -> str:
        return f"{self.hash_family}{self.log_h}"


#: Fig 5 sweep: logH values (sorted as in the paper's alphabetical axis).
PAPER_FIG5_LOG_H: list[int] = [1, 2, 3, 4, 6, 8, 12]
