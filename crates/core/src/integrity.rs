//! End-to-end data integrity: CRC32C stamps and verification state.
//!
//! Loud failures (alloc errors, lane aborts, `DeviceLost`) are survived by
//! retries and checkpoints; *silent* corruption is the failure mode this
//! module exists for. Every [`EvictedPage`] is stamped with a CRC32C
//! (Castagnoli) checksum computed from the pristine bytes before they cross
//! the simulated PCIe bus, and the stamp is re-verified at host adoption,
//! [`HostStore`] absorption, serving reads, [`HostIndex`] build, and an
//! end-of-run scrub. The persisted formats (`SEPOHST2`, `SEPOCKP2`,
//! `SEPOCKS2`) carry whole-image trailing checksums so any single flipped
//! bit on disk is rejected at load, never parsed into a silently wrong
//! image.
//!
//! CRC32C detects *all* single-bit errors (and all odd-weight errors, all
//! burst errors up to 32 bits), which is exactly the fault model
//! [`CorruptionKind`] injects — so a seeded-corruption run either recovers
//! to a byte-identical image or fails loudly with a witness; it can never
//! complete with a divergent image.
//!
//! [`EvictedPage`]: crate::evict::EvictedPage
//! [`HostStore`]: crate::serve::HostStore
//! [`HostIndex`]: crate::hostquery::HostIndex
//! [`CorruptionKind`]: gpu_sim::CorruptionKind

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

use gpu_sim::{CorruptionError, FaultPlan};

/// CRC32C (Castagnoli, reflected polynomial `0x82F63B78`) lookup table,
/// built at compile time: the portable fallback of [`crc32c`], one byte
/// per step.
const CRC32C_TABLE: [u32; 256] = {
    let mut table = [0u32; 256];
    let mut i = 0;
    while i < 256 {
        let mut crc = i as u32;
        let mut bit = 0;
        while bit < 8 {
            crc = if crc & 1 != 0 {
                (crc >> 1) ^ 0x82F6_3B78
            } else {
                crc >> 1
            };
            bit += 1;
        }
        table[i] = crc;
        i += 1;
    }
    table
};

/// CRC32C of `data` (initial value all-ones, final inversion — the standard
/// iSCSI/ext4 convention, so `crc32c(b"123456789") == 0xE3069283`).
///
/// Uses the SSE4.2 `crc32` instruction when the CPU has it and the table
/// otherwise; both compute the same function, so stamps and persisted
/// images do not depend on the host.
pub fn crc32c(data: &[u8]) -> u32 {
    #[cfg(target_arch = "x86_64")]
    if std::arch::is_x86_feature_detected!("sse4.2") {
        // SAFETY: the CPU was just checked for SSE4.2.
        return unsafe { crc32c_sse42(data) };
    }
    crc32c_table(data)
}

/// Table-driven [`crc32c`].
fn crc32c_table(data: &[u8]) -> u32 {
    let mut crc = !0u32;
    for &b in data {
        crc = (crc >> 8) ^ CRC32C_TABLE[((crc ^ b as u32) & 0xFF) as usize];
    }
    !crc
}

/// [`crc32c`] by the SSE4.2 `crc32` instruction, eight bytes per step.
///
/// # Safety
///
/// The CPU must support SSE4.2; [`crc32c`] checks before calling.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "sse4.2")]
fn crc32c_sse42(data: &[u8]) -> u32 {
    use std::arch::x86_64::{_mm_crc32_u64, _mm_crc32_u8};
    let mut words = data.chunks_exact(8);
    let mut crc = u64::from(!0u32);
    for word in &mut words {
        crc = _mm_crc32_u64(
            crc,
            u64::from_le_bytes(word.try_into().expect("8-byte chunk")),
        );
    }
    let mut crc = crc as u32;
    for &b in words.remainder() {
        crc = _mm_crc32_u8(crc, b);
    }
    !crc
}

/// How many times a transfer whose checksum failed verification is
/// re-issued before the eviction is declared unrecoverable. Mirrors the
/// bus's own `MAX_TRANSFER_RETRIES` for loud transfer errors.
pub const MAX_TRANSFER_RETRANSMITS: u32 = 8;

/// The witness carried by `SepoError::CorruptTransfer` when retransmission
/// is exhausted: which host page's eviction transfer kept failing
/// verification, and the corruption draw that condemned the final attempt.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TransferFailure {
    /// Host id of the page whose eviction transfer failed verification.
    pub host_id: u64,
    /// The corruption draw behind the final failed attempt.
    pub error: CorruptionError,
}

/// Shared integrity state attached to a `SepoTable`. Holds the fault plan
/// (installed by the driver at run start so eviction paths can draw
/// in-flight corruption without signature changes) plus detection counters
/// and the unrecovered-transfer witness slot the driver polls at iteration
/// boundaries.
#[derive(Debug, Default)]
pub struct IntegrityState {
    plan: Mutex<Option<Arc<FaultPlan>>>,
    pages_stamped: AtomicU64,
    pages_verified: AtomicU64,
    retransmits: AtomicU64,
    failure: Mutex<Option<TransferFailure>>,
}

impl IntegrityState {
    /// Install the run's fault plan so eviction paths can draw in-flight
    /// corruption decisions. Passing a plan without corruption streams (or
    /// calling with the same plan twice) is harmless.
    pub fn install_plan(&self, plan: Arc<FaultPlan>) {
        *self.plan.lock().unwrap() = Some(plan);
    }

    /// Detach the fault plan (end of run).
    pub fn clear_plan(&self) {
        *self.plan.lock().unwrap() = None;
    }

    /// The installed plan, if it draws corruption. `None` when corruption
    /// is off, so callers can skip the entire injection path.
    pub fn corrupting_plan(&self) -> Option<Arc<FaultPlan>> {
        let guard = self.plan.lock().unwrap();
        guard.as_ref().filter(|p| p.has_corruption()).cloned()
    }

    /// Record a page stamped at eviction.
    pub fn note_stamped(&self) {
        self.pages_stamped.fetch_add(1, Ordering::Relaxed);
    }

    /// Record a page whose stamp was re-verified clean.
    pub fn note_verified(&self) {
        self.pages_verified.fetch_add(1, Ordering::Relaxed);
    }

    /// Record one detected-and-retransmitted in-flight corruption.
    pub fn note_retransmit(&self) {
        self.retransmits.fetch_add(1, Ordering::Relaxed);
    }

    /// Record an eviction transfer that failed verification on every
    /// retransmit attempt. The first failure wins (it is the one the
    /// driver reports); later ones are counted but not stored.
    pub fn note_failure(&self, failure: TransferFailure) {
        let mut slot = self.failure.lock().unwrap();
        if slot.is_none() {
            *slot = Some(failure);
        }
    }

    /// Take the pending unrecovered-transfer witness, if any. Called by
    /// the driver at iteration boundaries; a `Some` aborts the run with
    /// `SepoError::CorruptTransfer`.
    pub fn take_failure(&self) -> Option<TransferFailure> {
        self.failure.lock().unwrap().take()
    }

    /// Pages stamped at eviction so far.
    pub fn pages_stamped(&self) -> u64 {
        self.pages_stamped.load(Ordering::Relaxed)
    }

    /// Stamp re-verifications that passed so far.
    pub fn pages_verified(&self) -> u64 {
        self.pages_verified.load(Ordering::Relaxed)
    }

    /// Detected-and-retransmitted in-flight corruptions so far.
    pub fn retransmits(&self) -> u64 {
        self.retransmits.load(Ordering::Relaxed)
    }
}

/// Flip a single bit (chosen by `entropy`) in `data`, returning the damaged
/// copy. Used by injection sites; the offset is derived deterministically
/// from the corruption draw's entropy so damage is reproducible.
pub fn flip_bit(data: &[u8], entropy: u64) -> Vec<u8> {
    let mut out = data.to_vec();
    if !out.is_empty() {
        let bit = (entropy % (out.len() as u64 * 8)) as usize;
        out[bit / 8] ^= 1 << (bit % 8);
    }
    out
}

/// Flip a single whole byte (XOR with a nonzero mask chosen by `entropy`)
/// at a deterministic offset, in place. Used for disk-image corruption.
pub fn flip_byte_in_place(data: &mut [u8], entropy: u64) {
    if data.is_empty() {
        return;
    }
    let at = (entropy % data.len() as u64) as usize;
    // Mask is never zero, so the byte always changes.
    let mask = ((entropy >> 32) as u8) | 1;
    data[at] ^= mask;
}

#[cfg(test)]
mod tests {
    use super::*;
    use gpu_sim::{CorruptionKind, FaultConfig};

    #[test]
    fn crc32c_matches_reference_vector() {
        // The canonical iSCSI check value.
        assert_eq!(crc32c(b"123456789"), 0xE306_9283);
        assert_eq!(crc32c(b""), 0);
    }

    #[test]
    #[cfg(target_arch = "x86_64")]
    fn crc32c_instruction_matches_the_table() {
        if !std::arch::is_x86_feature_detected!("sse4.2") {
            return;
        }
        let data: Vec<u8> = (0..1032u32)
            .map(|i| (i.wrapping_mul(2_654_435_761) >> 13) as u8)
            .collect();
        for offset in 0..8 {
            for len in 0..=1024 {
                let slice = &data[offset..offset + len];
                // SAFETY: the CPU was checked for SSE4.2 above.
                let instruction = unsafe { crc32c_sse42(slice) };
                assert_eq!(
                    instruction,
                    crc32c_table(slice),
                    "offset {offset} len {len}"
                );
            }
        }
    }

    #[test]
    fn crc32c_detects_every_single_bit_flip() {
        let data: Vec<u8> = (0..257u32).map(|i| (i * 31 % 251) as u8).collect();
        let clean = crc32c(&data);
        for bit in 0..data.len() * 8 {
            let mut bad = data.clone();
            bad[bit / 8] ^= 1 << (bit % 8);
            assert_ne!(crc32c(&bad), clean, "bit {bit} flip went undetected");
        }
    }

    #[test]
    fn flip_bit_damages_exactly_one_bit_deterministically() {
        let data = vec![0u8; 64];
        let a = flip_bit(&data, 12345);
        let b = flip_bit(&data, 12345);
        assert_eq!(a, b);
        let flipped: u32 = a.iter().map(|b| b.count_ones()).sum();
        assert_eq!(flipped, 1);
    }

    #[test]
    fn flip_byte_always_changes_the_image() {
        for entropy in [0u64, 1, 0xFFFF_FFFF_0000_0000, u64::MAX, 42 << 32] {
            let mut data = vec![7u8; 16];
            flip_byte_in_place(&mut data, entropy);
            assert_ne!(data, vec![7u8; 16], "entropy {entropy:#x} was a no-op");
        }
    }

    #[test]
    fn integrity_state_keeps_first_failure_and_counts() {
        let s = IntegrityState::default();
        assert!(s.corrupting_plan().is_none());
        s.install_plan(Arc::new(FaultPlan::new(FaultConfig::quiet(1))));
        assert!(
            s.corrupting_plan().is_none(),
            "plan without corruption streams must not enable injection"
        );
        s.note_stamped();
        s.note_verified();
        s.note_retransmit();
        let first = TransferFailure {
            host_id: 3,
            error: CorruptionError {
                kind: CorruptionKind::PcieBitFlip,
                draw: 9,
            },
        };
        s.note_failure(first);
        s.note_failure(TransferFailure {
            host_id: 4,
            error: CorruptionError {
                kind: CorruptionKind::PcieBitFlip,
                draw: 10,
            },
        });
        assert_eq!(s.take_failure(), Some(first));
        assert_eq!(s.take_failure(), None);
        assert_eq!(
            (s.pages_stamped(), s.pages_verified(), s.retransmits()),
            (1, 1, 1)
        );
    }
}
