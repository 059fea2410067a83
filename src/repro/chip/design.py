"""Complete chip-design descriptions.

A :class:`ChipDesign` bundles everything that is fixed at chip design /
manufacturing time: geometry, vendor class, the subarray isolation map's
calibration target, per-row variation distributions, and the DRAM-internal
logical→physical row scrambling.  Individual chips of the same design share
the isolation map (design-induced, §4.4.1) but differ in per-row variation
through their chip seed.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.chip.isolation import IsolationMap
from repro.chip.variation import DesignVariation
from repro.chip.vendor import VendorClass
from repro.dram.geometry import Geometry


def tested_subarray_sample(geometry: Geometry, chunk_rows: int = 2048) -> list[int]:
    """Subarrays containing the paper's tested rows (first/middle/last 2K)."""
    rows_per_bank = geometry.rows_per_bank
    chunk = min(chunk_rows, rows_per_bank // 3)
    middle_start = (rows_per_bank - chunk) // 2
    subarrays: set[int] = set()
    for start in (0, middle_start, rows_per_bank - chunk):
        first_sa = start // geometry.rows_per_subarray
        last_sa = (start + chunk - 1) // geometry.rows_per_subarray
        subarrays.update(range(first_sa, last_sa + 1))
    return sorted(subarrays)


@dataclass(frozen=True)
class ChipDesign:
    """Design-time description of a DRAM chip.

    Attributes:
        name: Human-readable label (e.g. ``"SK Hynix 4Gb F-die x8"``).
        geometry: Bank/subarray/row organization.
        vendor: Vendor class (determines HiRA support, §12).
        design_seed: Seeds the isolation map and row scrambling.
        target_coverage: Calibration target for the isolation map (fraction
            of a bank's rows pairable with a given row; Table 4).
        variation: Per-row variation distribution parameters.
        scramble_xor: DRAM-internal row-address scrambling: the physical row
            offset within a subarray is ``logical_offset XOR scramble_xor``.
            Real chips remap row addresses internally (§4.3 footnote 8);
            low-bit XOR masks are the commonly reverse-engineered form.
    """

    name: str
    geometry: Geometry = field(default_factory=Geometry)
    vendor: VendorClass = VendorClass.HYNIX_LIKE
    design_seed: int = 1
    target_coverage: float = 0.32
    variation: DesignVariation = field(default_factory=DesignVariation)
    scramble_xor: int = 0b110

    def build_isolation_map(self) -> IsolationMap:
        """The design's subarray isolation map (identical across banks).

        The map is calibrated against the paper's tested-row sample (first /
        middle / last 2K rows of the bank, §4 footnote 4) because Table 4's
        coverage statistics — our calibration targets — are computed over
        exactly that sample.
        """
        sample = tested_subarray_sample(self.geometry)
        # Row-level coverage includes same-subarray candidates (which can
        # never pair); scale the subarray-level calibration target so the
        # row-level average lands on ``target_coverage``.
        correction = len(sample) / max(1, len(sample) - 1)
        return IsolationMap(
            subarrays=self.geometry.subarrays_per_bank,
            design_seed=self.design_seed,
            target_coverage=min(0.95, self.target_coverage * correction),
            calibration_sample=sample,
        )

    # ------------------------------------------------------------------
    # Internal row-address scrambling
    # ------------------------------------------------------------------
    def logical_to_physical(self, row: int) -> int:
        """Map a memory-controller-visible row to its physical position."""
        self.geometry.check_row(row)
        sa = row // self.geometry.rows_per_subarray
        offset = row % self.geometry.rows_per_subarray
        phys_offset = offset ^ self.scramble_xor
        if phys_offset >= self.geometry.rows_per_subarray:
            phys_offset = offset  # mask falls outside the subarray: identity
        return sa * self.geometry.rows_per_subarray + phys_offset

    def physical_to_logical(self, phys_row: int) -> int:
        """Inverse of :meth:`logical_to_physical` (XOR is an involution)."""
        return self.logical_to_physical(phys_row)

    def physical_neighbors(self, row: int) -> list[int]:
        """Physical rows adjacent to a logical row, within its subarray.

        RowHammer disturbance couples physically adjacent rows; subarray
        boundaries isolate it (sense-amp strips separate the cell mats).
        """
        return self.neighbors_of_physical(self.logical_to_physical(row))

    def neighbors_of_physical(self, phys: int) -> list[int]:
        """Physical rows adjacent to physical row ``phys``, within its subarray."""
        sa = phys // self.geometry.rows_per_subarray
        return [
            cand
            for cand in (phys - 1, phys + 1)
            if 0 <= cand < self.geometry.rows_per_bank
            and cand // self.geometry.rows_per_subarray == sa
        ]

    def aggressors_for_victim(self, victim_row: int) -> list[int]:
        """Logical rows whose activation disturbs ``victim_row``.

        This is the ground truth that §4.3's reverse-engineering procedure
        recovers experimentally; tests cross-validate the two.
        """
        return [self.physical_to_logical(cand) for cand in self.physical_neighbors(victim_row)]


def make_design(
    name: str = "generic-hynix-4Gb",
    vendor: VendorClass = VendorClass.HYNIX_LIKE,
    target_coverage: float = 0.32,
    design_seed: int = 1,
    subarrays_per_bank: int = 64,
    rows_per_subarray: int = 512,
    variation: DesignVariation | None = None,
    scramble_xor: int = 0b110,
) -> ChipDesign:
    """Convenience constructor with a characterization-friendly geometry."""
    geom = Geometry(
        subarrays_per_bank=subarrays_per_bank,
        rows_per_subarray=rows_per_subarray,
    )
    return ChipDesign(
        name=name,
        geometry=geom,
        vendor=vendor,
        design_seed=design_seed,
        target_coverage=target_coverage,
        variation=variation or DesignVariation(),
        scramble_xor=scramble_xor,
    )
