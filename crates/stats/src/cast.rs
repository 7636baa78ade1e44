//! Checked numeric casts.
//!
//! Bare `as` casts to integer types silently truncate or wrap; in the
//! statistics kernels that is exactly where a rank or an index diverges
//! without a test noticing. Every cast in this crate goes through one of
//! these helpers, which either saturate explicitly or clamp against a known
//! bound — the only `as` casts live here, each individually justified.

/// `usize` → `u64`. Lossless on every supported platform (usize ≤ 64 bits),
/// expressed as a saturating conversion so no platform assumption is silent.
#[inline]
pub fn u64_from_usize(n: usize) -> u64 {
    u64::try_from(n).unwrap_or(u64::MAX)
}

/// `u64` → `usize`, saturating at `usize::MAX`. Callers reduce the value
/// below a `usize` bound first (e.g. `x % u64_from_usize(n)`), making the
/// saturation unreachable in practice but explicit in form.
#[inline]
pub fn usize_from_u64(x: u64) -> usize {
    usize::try_from(x).unwrap_or(usize::MAX)
}

/// `usize` → `u32`, saturating. Ranks beyond `u32::MAX` cannot occur (list
/// lengths are bounded by the simulated site count) but are pinned rather
/// than wrapped if they ever do.
#[inline]
pub fn u32_from_usize(n: usize) -> u32 {
    u32::try_from(n).unwrap_or(u32::MAX)
}

/// `u64` → `u32`, saturating. CSR offsets accumulate in `u64` during shard
/// splicing and are structurally bounded by the `u32` edge count; saturation
/// pins the impossible tail instead of wrapping it.
#[inline]
pub fn u32_from_u64(x: u64) -> u32 {
    u32::try_from(x).unwrap_or(u32::MAX)
}

/// `u32` → `usize`. Lossless on every supported platform (usize ≥ 32 bits),
/// expressed as a saturating conversion so no platform assumption is silent.
#[inline]
pub fn usize_from_u32(x: u32) -> usize {
    usize::try_from(x).unwrap_or(usize::MAX)
}

/// `u32` → `i32`, saturating (calendar components and other small fields).
#[inline]
pub fn i32_from_u32(x: u32) -> i32 {
    i32::try_from(x).unwrap_or(i32::MAX)
}

/// `u64` → `u16`, saturating. Callers bound the value structurally (a
/// `.min(..)` cap or a modulus below 2^16); saturation pins the impossible
/// tail instead of wrapping it.
#[inline]
pub fn u16_from_u64(x: u64) -> u16 {
    u16::try_from(x).unwrap_or(u16::MAX)
}

/// `usize` → `u8`, saturating (per-site host indices and similar tiny
/// cardinalities).
#[inline]
pub fn u8_from_usize(n: usize) -> u8 {
    u8::try_from(n).unwrap_or(u8::MAX)
}

/// `f64` → `u16`, truncating toward zero and clamping to the type's range
/// (NaN → 0). Matches Rust's saturating float-to-int `as` semantics, but
/// spells the edge handling out.
#[inline]
pub fn u16_from_f64(x: f64) -> u16 {
    if x.is_nan() || x <= 0.0 {
        return 0;
    }
    if x >= f64::from(u16::MAX) {
        return u16::MAX;
    }
    // topple-lint: allow(lossy-cast): range-checked above; truncation toward zero is the intent
    x as u16
}

/// Floors a non-negative float to an index clamped into `0..len`.
///
/// NaN and negative inputs clamp to 0; anything at or beyond `len - 1`
/// clamps to the last index. `len` must be non-zero.
#[inline]
pub fn floor_index(x: f64, len: usize) -> usize {
    debug_assert!(len > 0, "floor_index on an empty slice");
    let last = len.saturating_sub(1);
    if x.is_nan() || x <= 0.0 {
        return 0;
    }
    let f = x.floor();
    if f >= last as f64 {
        return last;
    }
    // topple-lint: allow(lossy-cast): f is floored, non-negative and range-checked against len above
    f as usize
}

/// Ceils a non-negative float to an index clamped into `0..len`.
#[inline]
pub fn ceil_index(x: f64, len: usize) -> usize {
    debug_assert!(len > 0, "ceil_index on an empty slice");
    let last = len.saturating_sub(1);
    if x.is_nan() || x <= 0.0 {
        return 0;
    }
    let c = x.ceil();
    if c >= last as f64 {
        return last;
    }
    // topple-lint: allow(lossy-cast): c is a non-negative whole number range-checked against len above
    c as usize
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn widening_roundtrips() {
        assert_eq!(u64_from_usize(0), 0);
        assert_eq!(u64_from_usize(usize::MAX) as u128, usize::MAX as u128);
        assert_eq!(usize_from_u64(17), 17);
        assert_eq!(u32_from_usize(9), 9);
        assert_eq!(u32_from_usize(usize::MAX), u32::MAX);
        assert_eq!(u32_from_u64(41), 41);
        assert_eq!(u32_from_u64(u64::MAX), u32::MAX);
        assert_eq!(usize_from_u32(u32::MAX), u32::MAX as usize);
        assert_eq!(i32_from_u32(12), 12);
        assert_eq!(i32_from_u32(u32::MAX), i32::MAX);
        assert_eq!(u16_from_u64(3600), 3600);
        assert_eq!(u16_from_u64(1 << 20), u16::MAX);
        assert_eq!(u8_from_usize(3), 3);
        assert_eq!(u8_from_usize(999), u8::MAX);
        assert_eq!(u16_from_f64(3599.9), 3599);
        assert_eq!(u16_from_f64(-1.0), 0);
        assert_eq!(u16_from_f64(f64::NAN), 0);
        assert_eq!(u16_from_f64(1e9), u16::MAX);
    }

    #[test]
    fn float_indexing_clamps() {
        assert_eq!(floor_index(2.9, 10), 2);
        assert_eq!(floor_index(-1.0, 10), 0);
        assert_eq!(floor_index(f64::NAN, 10), 0);
        assert_eq!(floor_index(99.0, 10), 9);
        assert_eq!(floor_index(9.0, 10), 9);
        assert_eq!(ceil_index(2.1, 10), 3);
        assert_eq!(ceil_index(0.0, 10), 0);
        assert_eq!(ceil_index(12.0, 4), 3);
    }
}
