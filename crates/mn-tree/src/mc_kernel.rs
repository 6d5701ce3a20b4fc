//! Vectorized Monte-Carlo confirmation draws for split assignment.
//!
//! The MC confirmation loop of Algorithm 5 ([`crate::splits`]) draws,
//! per candidate item, `s_eff · n` uniform picks from the node's
//! observations and tests each pick's consistency with the candidate
//! predicate. With the per-candidate consistency *bitmask* precomputed
//! by `SplitScratch::compute_masks` (bit `i` = "pick `i` agrees", in
//! `w = ⌈n/64⌉` words), one draw reduces to: step the per-item
//! [`Lcg128`] state, map the output to a pick in `[0, n)`, and test one
//! bit. That is exactly the shape SIMD wants: many independent lanes
//! running the *same* affine recurrence in lockstep.
//!
//! Two engines implement the same contract:
//!
//! * **AVX-512 IFMA** (x86-64, runtime-detected): the 128-bit LCG state
//!   is decomposed into three 52/52/24-bit limbs `s0, s1, s2` and
//!   stepped with `vpmadd52{lo,hi}uq` — 9 multiply-adds per step across
//!   8 lanes per vector, four interleaved vectors to hide the carry
//!   chain's latency. Limbs are *carry-tolerant* between steps: IFMA
//!   reads only bits 0–51 of a multiplicand, so limbs 0 and 1 keep the
//!   carry bits above bit 51 (each column's carry is taken from the
//!   unmasked sum) and only limb 2 is masked to its 24 bits. Bits 0–51
//!   of lane `i`'s limbs always equal the limbs of the scalar state.
//!   With `r = state >> 64 = s2·2^40 + (s1 >> 12)`, the pick
//!   `⌊r·n / 2^64⌋` is `(s2·n + ⌊(s1 & M52 & !0xFFF)·n / 2^52⌋) >> 24`:
//!   one `madd52lo`, one `madd52hi`, one `and` and one shift. It is
//!   exact while `s2·n < 2^52`, i.e. for every `n ≤ 2^28` (`s2 < 2^24`),
//!   which the entry points assert — so the engine produces **the same
//!   picks, bit for bit**. The bit test rotates the lane's mask word
//!   right by the pick: masks of up to 4 words (`n ≤ 256`) stay in
//!   registers, the word chosen by blends on pick bits 6 and 7; wider
//!   masks are read with one 8-lane gather of word
//!   `lane·w + (pick >> 6)` per vector and draw.
//! * **Scalar fallback** (everything else): for one-word masks, 8 lanes
//!   of the plain `u128` recurrence stepped in lockstep arrays, which
//!   the compiler schedules across the multiplier pipeline; for wider
//!   masks, the one-lane [`scalar_hits_wide`] reference per lane.
//!
//! Both are verified against [`scalar_hits`] / [`scalar_hits_wide`] —
//! the literal one-lane transcriptions of `Lcg128::next_u64` +
//! `index_one_draw` using the generator's public constants — by
//! exact-equality tests, and the dispatched engine (IFMA where the
//! host has it) against the directly called fallback. Because the
//! *number of hits* determines the MC loop's `agree` tally exactly
//! (`agree = 2·hits − draws`), the caller recovers the naive loop's
//! result without materializing individual picks.

use mn_rand::Lcg128;

/// Number of lanes the engines process per group: four interleaved
/// 8-lane vectors. The LCG step's limb carry chain is the
/// loop-carried latency (≈10 cycles); four independent vectors keep
/// the vector ports busy across it, where two leave them half idle.
pub const LANES: usize = 32;

/// Largest node width whose picks the IFMA engine computes exactly
/// (see the module doc).
const MAX_N: usize = 1 << 28;

/// One-lane scalar reference: run `t` draws of the `Lcg128` recurrence
/// from `state`, counting picks whose bit in `cons` is set.
///
/// This is the semantic anchor: `state` must be `Lcg128::state()` of
/// the per-item generator, and each draw is
/// `pick = (next_u64() · n) >> 64` — identical to
/// `Lcg128::index_one_draw(n)`.
#[inline]
pub fn scalar_hits(mut state: u128, cons: u64, n: usize, t: usize) -> u64 {
    let mut hits = 0u64;
    for _ in 0..t {
        state = state
            .wrapping_mul(Lcg128::MULTIPLIER)
            .wrapping_add(Lcg128::INCREMENT);
        let r = (state >> 64) as u64;
        let pick = ((r as u128 * n as u128) >> 64) as usize;
        hits += cons >> pick & 1;
    }
    hits
}

/// [`scalar_hits`] for a multi-word mask: bit `i` of the lane's mask is
/// bit `i & 63` of `cons[i >> 6]`. The reference for the wide engine,
/// and its fallback where IFMA is unavailable.
#[inline]
pub fn scalar_hits_wide(mut state: u128, cons: &[u64], n: usize, t: usize) -> u64 {
    let mut hits = 0u64;
    for _ in 0..t {
        state = state
            .wrapping_mul(Lcg128::MULTIPLIER)
            .wrapping_add(Lcg128::INCREMENT);
        let r = (state >> 64) as u64;
        let pick = ((r as u128 * n as u128) >> 64) as usize;
        hits += cons[pick >> 6] >> (pick & 63) & 1;
    }
    hits
}

/// Interleaved scalar engine: 8 independent lanes stepped in lockstep.
fn scalar_hits8(states: &[u128; 8], cons: &[u64; 8], n: usize, t: usize) -> [u64; 8] {
    let mut s = *states;
    let mut hits = [0u64; 8];
    for _ in 0..t {
        for i in 0..8 {
            s[i] = s[i]
                .wrapping_mul(Lcg128::MULTIPLIER)
                .wrapping_add(Lcg128::INCREMENT);
            let r = (s[i] >> 64) as u64;
            let pick = ((r as u128 * n as u128) >> 64) as usize;
            hits[i] += cons[i] >> pick & 1;
        }
    }
    hits
}

#[cfg(target_arch = "x86_64")]
mod ifma {
    use super::LANES;
    use mn_rand::Lcg128;
    use std::arch::x86_64::*;

    const M52: u64 = (1 << 52) - 1;
    const M24: u64 = (1 << 24) - 1;
    /// Bits 12–51 of limb 1: state bits 64–103, the low 40 bits of
    /// `r = state >> 64`, in place (scaled by 2^12).
    const R_LO: u64 = M52 & !0xFFF;

    /// Decompose a 128-bit state into three 52/52/24-bit limbs.
    #[inline]
    pub fn limbs(x: u128) -> [u64; 3] {
        [
            (x as u64) & M52,
            ((x >> 52) as u64) & M52,
            (x >> 104) as u64,
        ]
    }

    /// Scalar transcription of [`Step::pick`]'s pick from limbs 1 and
    /// 2: `madd52lo` adds the low 52 bits of a 52 × 52-bit product,
    /// `madd52hi` the high 52.
    #[cfg(test)]
    pub fn pick_of_limbs(s1: u64, s2: u64, n: u64) -> u64 {
        let product = |a: u64, b: u64| (a & M52) as u128 * (b & M52) as u128;
        let lo = product(s2, n) as u64 & M52;
        let hi = (product(s1 & R_LO, n) >> 52) as u64;
        (lo + hi) >> 24
    }

    /// The broadcast constants of the limb-decomposed LCG step and the
    /// 52-bit range pick, shared by both IFMA engines.
    struct Step {
        a: [__m512i; 3],
        c: [__m512i; 3],
        m24: __m512i,
        r_lo: __m512i,
        n: __m512i,
    }

    impl Step {
        #[inline]
        #[target_feature(enable = "avx512f,avx512dq,avx512ifma,avx512vl")]
        fn new(n: u64) -> Self {
            let a = limbs(Lcg128::MULTIPLIER).map(|x| _mm512_set1_epi64(x as i64));
            let c = limbs(Lcg128::INCREMENT).map(|x| _mm512_set1_epi64(x as i64));
            Self {
                a,
                c,
                m24: _mm512_set1_epi64(M24 as i64),
                r_lo: _mm512_set1_epi64(R_LO as i64),
                n: _mm512_set1_epi64(n as i64),
            }
        }

        /// Advance one 8-lane limb triple `s` by one LCG step and
        /// return the lanes' picks `⌊r·n / 2^64⌋` (`r = state >> 64`).
        #[inline]
        #[target_feature(enable = "avx512f,avx512dq,avx512ifma,avx512vl")]
        fn pick(&self, s: &mut [__m512i; 3]) -> __m512i {
            let [a0, a1, a2] = self.a;
            let [c0, c1, c2] = self.c;
            // state = state · A + C (mod 2^128) in 52-bit limbs: the
            // column sums stay below 2^64 (≤ 5 terms below 2^52 plus a
            // carry). IFMA reads only bits 0–51 of a multiplicand, so
            // limbs 0 and 1 keep their carry bits above bit 51 instead
            // of being masked: each column's carry is taken from the
            // unmasked sum, and the stale high bits are never read.
            // Limb 2 is masked to its 24 bits, which the pick needs.
            let u0 = _mm512_madd52lo_epu64(c0, s[0], a0);
            let mut u1 = _mm512_madd52hi_epu64(c1, s[0], a0);
            u1 = _mm512_madd52lo_epu64(u1, s[0], a1);
            u1 = _mm512_madd52lo_epu64(u1, s[1], a0);
            let mut u2 = _mm512_madd52hi_epu64(c2, s[0], a1);
            u2 = _mm512_madd52hi_epu64(u2, s[1], a0);
            u2 = _mm512_madd52lo_epu64(u2, s[0], a2);
            u2 = _mm512_madd52lo_epu64(u2, s[1], a1);
            u2 = _mm512_madd52lo_epu64(u2, s[2], a0);
            u1 = _mm512_add_epi64(u1, _mm512_srli_epi64(u0, 52));
            u2 = _mm512_add_epi64(u2, _mm512_srli_epi64(u1, 52));
            s[0] = u0;
            s[1] = u1;
            s[2] = _mm512_and_si512(u2, self.m24);
            // r = s2·2^40 + (s1 >> 12), so (r · n) >> 64 is
            // (s2·n + ⌊(s1 & R_LO)·n / 2^52⌋) >> 24: one madd52lo for
            // s2·n (exact, below 2^52 for n ≤ 2^28), one madd52hi for
            // the low part, then the shift.
            let tv = _mm512_madd52lo_epu64(_mm512_setzero_si512(), s[2], self.n);
            let tv = _mm512_madd52hi_epu64(tv, _mm512_and_si512(s[1], self.r_lo), self.n);
            _mm512_srli_epi64(tv, 24)
        }
    }

    /// The first `8·K` lanes of `states` as 8-lane limb triples. Both
    /// engines call it, so its bound `8·K ≤ LANES` also covers their
    /// unchecked 8-lane loads from `LANES`-long buffers.
    #[inline]
    #[target_feature(enable = "avx512f,avx512dq,avx512ifma,avx512vl")]
    fn load_states<const K: usize>(states: &[u128; LANES]) -> [[__m512i; 3]; K] {
        const { assert!(8 * K <= LANES) };
        let mut out = [[_mm512_setzero_si512(); 3]; K];
        for (v, limb_vecs) in out.iter_mut().enumerate() {
            for (j, vec) in limb_vecs.iter_mut().enumerate() {
                let lane = |i: usize| limbs(states[8 * v + i])[j] as i64;
                *vec = _mm512_set_epi64(
                    lane(7),
                    lane(6),
                    lane(5),
                    lane(4),
                    lane(3),
                    lane(2),
                    lane(1),
                    lane(0),
                );
            }
        }
        out
    }

    /// The per-vector hit counts as the first `8·K` lane counts.
    #[inline]
    #[target_feature(enable = "avx512f,avx512dq,avx512ifma,avx512vl")]
    fn store_counts<const K: usize>(h: &[__m512i; K]) -> [u64; LANES] {
        const { assert!(8 * K <= LANES) };
        let mut out = [0u64; LANES];
        for (v, &hv) in h.iter().enumerate() {
            // Safety: `8·v + 8 ≤ 8·K ≤ LANES` slots are written.
            unsafe { _mm512_storeu_si512(out.as_mut_ptr().add(8 * v) as *mut _, hv) };
        }
        out
    }

    /// Each lane's mask word `pick >> 6` out of its `W ≤ 4` words:
    /// pick bit 6 chooses within a pair of words, bit 7 between the
    /// pairs. Picks are below `64·W`, so no higher bit is needed.
    #[inline]
    #[target_feature(enable = "avx512f,avx512dq,avx512ifma,avx512vl")]
    fn word_of<const W: usize>(words: &[__m512i; W], p: __m512i) -> __m512i {
        if W == 1 {
            return words[0];
        }
        let odd = _mm512_test_epi64_mask(p, _mm512_set1_epi64(64));
        let low = _mm512_mask_blend_epi64(odd, words[0], words[1]);
        if W == 2 {
            return low;
        }
        let high = if W == 4 {
            _mm512_mask_blend_epi64(odd, words[2], words[3])
        } else {
            words[2]
        };
        let upper = _mm512_test_epi64_mask(p, _mm512_set1_epi64(128));
        _mm512_mask_blend_epi64(upper, low, high)
    }

    /// `K` interleaved 8-lane sets (`8·K` items, `K ≤ 4`) of the
    /// limb-decomposed LCG step + pick + bit test against a `W`-word
    /// mask per lane (`n ≤ 64·W`, `W ≤ 4`) held in registers: lane
    /// `i < m` tests its picks against `cons[i·W .. (i+1)·W]`, padding
    /// lanes `i ≥ m` against lane 0's. The picked word is chosen by
    /// blends on pick bits 6 and 7 (see [`word_of`]), and the picked bit
    /// is that word rotated right by `pick` (a rotation counts modulo
    /// 64). The first `8·K` slots of the return value are the lane
    /// counts; they are exact for `1 ≤ m ≤ 8·K`, `n ≤ 64·W` and
    /// `n ≤ 2^28`. Panics if `cons.len() < m·W`.
    ///
    /// # Safety
    /// Caller must have verified `avx512ifma` (plus f/dq/vl) support,
    /// e.g. via [`super::ifma_available`]. (`K ≤ 4` is checked at
    /// compile time.)
    #[target_feature(enable = "avx512f,avx512dq,avx512ifma,avx512vl")]
    pub unsafe fn hits_group<const K: usize, const W: usize>(
        states: &[u128; LANES],
        cons: &[u64],
        m: usize,
        n: u64,
        t: usize,
    ) -> [u64; LANES] {
        let step = Step::new(n);
        let one = _mm512_set1_epi64(1);
        let mut s = load_states::<K>(states);
        let mut words = [[0u64; LANES]; W];
        for (i, lane) in cons[..m * W].chunks_exact(W).enumerate() {
            for (k, &word) in lane.iter().enumerate() {
                words[k][i] = word;
            }
        }
        for row in &mut words {
            let pad = row[0];
            row[m..].fill(pad);
        }
        let mut mv = [[_mm512_setzero_si512(); W]; K];
        for (v, vec) in mv.iter_mut().enumerate() {
            for (k, word) in vec.iter_mut().enumerate() {
                *word = _mm512_loadu_si512(words[k].as_ptr().add(8 * v) as *const _);
            }
        }
        let mut h = [_mm512_setzero_si512(); K];

        for _ in 0..t {
            // The K vectors are fully independent; the compiler unrolls
            // this inner loop and interleaves their instruction streams
            // across the loop-carried limb chain.
            for v in 0..K {
                let p = step.pick(&mut s[v]);
                // A rotation, not `srlv`: `_mm512_srlv_epi64` compiles
                // to the shift plus a compare for its count ≥ 64 case,
                // one more µop per draw than `rorv`.
                let bit = _mm512_rorv_epi64(word_of(&mv[v], p), p);
                h[v] = _mm512_add_epi64(h[v], _mm512_and_si512(bit, one));
            }
        }
        store_counts(&h)
    }

    /// [`hits_group`] for masks too wide to hold in registers: lane
    /// `i < m` tests its picks against `cons[i·w .. (i+1)·w]`, fetching
    /// word `i·w + (pick >> 6)` with one gather per vector and draw;
    /// padding lanes `i ≥ m` read lane 0's mask.
    ///
    /// # Safety
    /// Caller must have verified `avx512ifma` (plus f/dq/vl) support,
    /// e.g. via [`super::ifma_available`], and must guarantee
    /// `1 ≤ m ≤ 8·K`, `n ≤ 64·w`, `n ≤ 2^28` (so every pick is below
    /// `n`) and `cons.len() ≥ m·w`: every gather index is then below
    /// `m·w`.
    #[target_feature(enable = "avx512f,avx512dq,avx512ifma,avx512vl")]
    pub unsafe fn hits_group_gather<const K: usize>(
        states: &[u128; LANES],
        cons: &[u64],
        m: usize,
        w: usize,
        n: u64,
        t: usize,
    ) -> [u64; LANES] {
        let step = Step::new(n);
        let one = _mm512_set1_epi64(1);
        let mut s = load_states::<K>(states);
        let mut base = [0i64; LANES];
        for (i, b) in base.iter_mut().enumerate().take(m) {
            *b = (i * w) as i64;
        }
        let mut bv = [_mm512_setzero_si512(); K];
        let mut h = [_mm512_setzero_si512(); K];
        for (v, b) in bv.iter_mut().enumerate() {
            *b = _mm512_loadu_si512(base.as_ptr().add(8 * v) as *const _);
        }

        for _ in 0..t {
            for v in 0..K {
                let p = step.pick(&mut s[v]);
                let idx = _mm512_add_epi64(bv[v], _mm512_srli_epi64(p, 6));
                let word = _mm512_i64gather_epi64::<8>(idx, cons.as_ptr() as *const i64);
                // Rotating by `pick` shifts by `pick & 63`.
                let bit = _mm512_rorv_epi64(word, p);
                h[v] = _mm512_add_epi64(h[v], _mm512_and_si512(bit, one));
            }
        }
        store_counts(&h)
    }
}

/// Whether the AVX-512 IFMA engine can run on this CPU (cached).
#[cfg(target_arch = "x86_64")]
pub fn ifma_available() -> bool {
    static AVAILABLE: std::sync::OnceLock<bool> = std::sync::OnceLock::new();
    *AVAILABLE.get_or_init(|| {
        std::arch::is_x86_feature_detected!("avx512f")
            && std::arch::is_x86_feature_detected!("avx512dq")
            && std::arch::is_x86_feature_detected!("avx512vl")
            && std::arch::is_x86_feature_detected!("avx512ifma")
    })
}

/// Whether the AVX-512 IFMA engine can run on this CPU (non-x86: no).
#[cfg(not(target_arch = "x86_64"))]
pub fn ifma_available() -> bool {
    false
}

/// Hit counts for a group of independent MC items sharing one draw
/// shape: lane `i` runs `t` draws of the `Lcg128` recurrence from
/// `states[i]`, counting picks in `[0, n)` whose bit in `cons[i]` is
/// set. `out` receives one count per lane, in lane order.
///
/// Groups larger than [`LANES`] are processed in [`LANES`]-wide chunks;
/// ragged tails run on a narrower vector group (8-lane granularity),
/// padded with replicas of the tail's first lane (the padding lanes'
/// counts are discarded, at most 7 of them). Picks are bit-identical
/// to [`scalar_hits`] on every engine.
pub fn mc_hits(states: &[u128], cons: &[u64], n: usize, t: usize, out: &mut Vec<u64>) {
    assert_eq!(states.len(), cons.len());
    assert!((1..=64).contains(&n), "mc_hits requires 1 ≤ n ≤ 64, got {n}");
    out.clear();
    for (schunk, cchunk) in states.chunks(LANES).zip(cons.chunks(LANES)) {
        let m = schunk.len();
        let mut s = [schunk[0]; LANES];
        let mut c = [cchunk[0]; LANES];
        s[..m].copy_from_slice(schunk);
        c[..m].copy_from_slice(cchunk);
        let counts = group_hits(m.div_ceil(8), &s, &c, n, t);
        out.extend_from_slice(&counts[..m]);
    }
}

/// `ifma::$f::<k, …>(…)` for a runtime vector count `k` (`k ≥ 4`
/// takes 4): one monomorphized lane group per count.
#[cfg(target_arch = "x86_64")]
macro_rules! by_vectors {
    ($k:expr, $f:ident::<_ $(, $w:tt)?>($($arg:expr),*)) => {
        match $k {
            1 => ifma::$f::<1 $(, $w)?>($($arg),*),
            2 => ifma::$f::<2 $(, $w)?>($($arg),*),
            3 => ifma::$f::<3 $(, $w)?>($($arg),*),
            _ => ifma::$f::<4 $(, $w)?>($($arg),*),
        }
    };
}

/// [`mc_hits`] for masks of `w = ⌈n/64⌉` words: lane `i`'s mask is
/// `cons[i·w .. (i+1)·w]`, so `cons.len() == states.len() · w`.
/// One-word masks (`n ≤ 64`) take [`mc_hits`] itself; on the IFMA
/// engine, masks of up to 4 words stay in registers and wider ones are
/// gathered per draw. Picks are bit-identical to [`scalar_hits_wide`]
/// on every engine.
pub fn mc_hits_wide(states: &[u128], cons: &[u64], n: usize, t: usize, out: &mut Vec<u64>) {
    assert!(
        (1..=MAX_N).contains(&n),
        "mc_hits_wide requires 1 ≤ n ≤ 2^28, got {n}"
    );
    let w = n.div_ceil(64);
    if w == 1 {
        return mc_hits(states, cons, n, t, out);
    }
    assert_eq!(states.len() * w, cons.len());
    out.clear();
    for (schunk, cchunk) in states.chunks(LANES).zip(cons.chunks(LANES * w)) {
        #[cfg(target_arch = "x86_64")]
        if ifma_available() {
            let m = schunk.len();
            let mut s = [schunk[0]; LANES];
            s[..m].copy_from_slice(schunk);
            let (k, n) = (m.div_ceil(8), n as u64);
            // Safety: feature support verified by `ifma_available`;
            // the chunk's `1 ≤ m ≤ LANES` lanes fill `k = ⌈m/8⌉`
            // vectors, `n ≤ 64·w` by the choice of `w`, `n ≤ 2^28` and
            // `cchunk` holds exactly `m·w` words (both asserted above).
            let counts = unsafe {
                match w {
                    2 => by_vectors!(k, hits_group::<_, 2>(&s, cchunk, m, n, t)),
                    3 => by_vectors!(k, hits_group::<_, 3>(&s, cchunk, m, n, t)),
                    4 => by_vectors!(k, hits_group::<_, 4>(&s, cchunk, m, n, t)),
                    _ => by_vectors!(k, hits_group_gather::<_>(&s, cchunk, m, w, n, t)),
                }
            };
            out.extend_from_slice(&counts[..m]);
            continue;
        }
        out.extend(
            schunk
                .iter()
                .zip(cchunk.chunks(w))
                .map(|(&state, mask)| scalar_hits_wide(state, mask, n, t)),
        );
    }
}

/// One lane-group of `k ≤ 4` vectors (8 lanes each) on the best
/// available engine; only the first `8·k` output slots are meaningful.
fn group_hits(k: usize, states: &[u128; LANES], cons: &[u64; LANES], n: usize, t: usize) -> [u64; LANES] {
    #[cfg(target_arch = "x86_64")]
    if ifma_available() {
        // Safety: feature support verified by `ifma_available`; all
        // `8·k` lanes are real, each with one word, and `n ≤ 64`.
        return unsafe { by_vectors!(k, hits_group::<_, 1>(states, cons, 8 * k, n as u64, t)) };
    }
    scalar_group_hits(k, states, cons, n, t)
}

/// [`group_hits`] on the interleaved scalar engine, whatever the CPU.
fn scalar_group_hits(
    k: usize,
    states: &[u128; LANES],
    cons: &[u64; LANES],
    n: usize,
    t: usize,
) -> [u64; LANES] {
    let mut out = [0u64; LANES];
    for v in 0..k {
        let s: &[u128; 8] = states[8 * v..8 * v + 8].try_into().unwrap();
        let c: &[u64; 8] = cons[8 * v..8 * v + 8].try_into().unwrap();
        out[8 * v..8 * v + 8].copy_from_slice(&scalar_hits8(s, c, n, t));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use mn_rand::{Domain, Lcg128};

    fn item_state(seed: u64, item: u64) -> u128 {
        Lcg128::from_key(seed, Domain::SplitPosterior.tag(), item).state()
    }

    #[test]
    fn scalar_reference_matches_lcg128_draws() {
        // The reference's manual recurrence must track the real
        // generator draw for draw.
        for item in 0..8u64 {
            let mut rng = Lcg128::from_key(7, Domain::SplitPosterior.tag(), item);
            let mut state = rng.state();
            let n = 37;
            let cons = 0x00ff_00ff_00ff_00ffu64 & ((1u64 << n) - 1);
            let mut want = 0u64;
            for _ in 0..100 {
                let pick = rng.index_one_draw(n);
                want += cons >> pick & 1;
            }
            // Recompute the same thing through scalar_hits' stepping.
            let got = scalar_hits(state, cons, n, 100);
            assert_eq!(got, want, "item {item}");
            // And the state advances identically.
            for _ in 0..100 {
                state = state
                    .wrapping_mul(Lcg128::MULTIPLIER)
                    .wrapping_add(Lcg128::INCREMENT);
            }
            assert_eq!(state, rng.state());
        }
    }

    #[test]
    fn engines_match_scalar_reference_exactly() {
        // Exact bit-equality of every lane's count against the
        // one-lane reference, across group sizes (ragged tails), node
        // widths, and draw counts — on whatever engine dispatch picks.
        let mut mask_rng = Lcg128::from_key(99, 1, 1);
        for rep in 0..50 {
            let n = 1 + (rep * 7) % 64;
            let t = (rep % 9) * n + 1;
            let lanes = 1 + (rep * 5) % 40;
            let states: Vec<u128> = (0..lanes)
                .map(|i| item_state(4, (rep * 100 + i) as u64))
                .collect();
            let full = if n == 64 { !0u64 } else { (1u64 << n) - 1 };
            let cons: Vec<u64> = (0..lanes).map(|_| mask_rng.next_u64() & full).collect();
            let mut out = Vec::new();
            mc_hits(&states, &cons, n, t, &mut out);
            assert_eq!(out.len(), lanes);
            for i in 0..lanes {
                assert_eq!(
                    out[i],
                    scalar_hits(states[i], cons[i], n, t),
                    "rep {rep} lane {i} (n={n}, t={t})"
                );
            }
        }
    }

    #[test]
    fn scalar_fallback_matches_reference_even_with_ifma() {
        // The non-SIMD path must hold the same contract on every
        // machine (CI runners may or may not have IFMA).
        let states: Vec<u128> = (0..16).map(|i| item_state(11, i)).collect();
        let cons = [0xdead_beef_u64 & ((1 << 32) - 1); 16];
        let a = scalar_hits8(states[..8].try_into().unwrap(), &cons[..8].try_into().unwrap(), 32, 257);
        for i in 0..8 {
            assert_eq!(a[i], scalar_hits(states[i], cons[i], 32, 257));
        }
    }

    #[test]
    fn zero_draws_and_empty_groups() {
        let mut out = Vec::new();
        mc_hits(&[], &[], 5, 10, &mut out);
        assert!(out.is_empty());
        mc_hits(&[item_state(1, 1)], &[0b1], 1, 0, &mut out);
        assert_eq!(out, vec![0]);
        mc_hits_wide(&[], &[], 130, 10, &mut out);
        assert!(out.is_empty());
        mc_hits_wide(&[item_state(1, 1)], &[!0, !0, 0b11], 130, 0, &mut out);
        assert_eq!(out, vec![0]);
    }

    #[test]
    fn scalar_wide_reference_matches_lcg128_draws() {
        let n = 150;
        let cons = [0x0f0f_0f0f_0f0f_0f0fu64, !0, 0x2a_aaaa];
        for item in 0..8u64 {
            let mut rng = Lcg128::from_key(7, Domain::SplitPosterior.tag(), item);
            let state = rng.state();
            let mut want = 0u64;
            for _ in 0..300 {
                let pick = rng.index_one_draw(n);
                want += cons[pick >> 6] >> (pick & 63) & 1;
            }
            assert_eq!(scalar_hits_wide(state, &cons, n, 300), want, "item {item}");
        }
        // One-word masks agree with the narrow reference.
        assert_eq!(
            scalar_hits_wide(item_state(3, 3), &[0xdead_beef], 40, 200),
            scalar_hits(item_state(3, 3), 0xdead_beef, 40, 200)
        );
    }

    #[test]
    fn wide_engine_matches_scalar_reference_exactly() {
        // Every lane of the wide engine against the one-lane wide
        // reference, at every width boundary of the dispatch (one word,
        // 2–4 words in registers, 5 words gathered), for ragged tails
        // of 1–70 lanes (2+ full groups plus every tail shape).
        let mut mask_rng = Lcg128::from_key(98, 2, 2);
        for n in [64usize, 65, 128, 129, 192, 193, 255, 256, 257] {
            let w = n.div_ceil(64);
            for lanes in 1..=70 {
                let t = (lanes % 4) * n + 1;
                let states: Vec<u128> = (0..lanes)
                    .map(|i| item_state(5, (n * 100 + lanes * 71 + i) as u64))
                    .collect();
                let mut cons: Vec<u64> = (0..lanes * w).map(|_| mask_rng.next_u64()).collect();
                for lane in 0..lanes {
                    cons[lane * w + w - 1] &= u64::MAX >> (64 * w - n);
                }
                let mut out = Vec::new();
                mc_hits_wide(&states, &cons, n, t, &mut out);
                assert_eq!(out.len(), lanes);
                for i in 0..lanes {
                    assert_eq!(
                        out[i],
                        scalar_hits_wide(states[i], &cons[i * w..(i + 1) * w], n, t),
                        "lanes {lanes} lane {i} (n={n}, t={t})"
                    );
                }
            }
        }
    }

    #[cfg(target_arch = "x86_64")]
    #[test]
    fn limb_pick_equals_the_u128_pick() {
        // The IFMA pick from limbs 1 and 2 against `(r · n) >> 64`, on
        // random states, extreme limbs (s2 = 2^24 − 1, the low 12 bits
        // of s1 set) and states whose `r · n` sits just below a
        // multiple of 2^64, where state bits 52–63 would carry the pick
        // over if they were not masked off. Limb 1 is also passed with
        // a carry bit above bit 51, as the engine leaves it.
        use super::ifma::{limbs, pick_of_limbs};
        let mut rng = Lcg128::from_key(96, 4, 4);
        for n in [1u64, 2, 63, 64, 65, 1 << 20, 1 << 28] {
            let mut states = Vec::new();
            for _ in 0..200 {
                let (hi, lo) = (rng.next_u64() as u128, rng.next_u64() as u128);
                states.push(hi << 64 | lo);
                states.push((0xFF_FFFF << 104) | (hi << 64 | lo | 0xFFF << 52) & ((1 << 104) - 1));
                // The largest r whose pick is k − 1, for k ∈ [1, n].
                let k = 1 + rng.next_u64() as u128 % n as u128;
                let r = ((k << 64) - 1) / n as u128;
                states.push(r << 64 | lo | 0xFFF << 52);
            }
            states.extend([u128::MAX, 0, 1 << 64, (1 << 64) - 1]);
            for state in states {
                let [_, s1, s2] = limbs(state);
                let want = (((state >> 64) * n as u128) >> 64) as u64;
                assert_eq!(pick_of_limbs(s1, s2, n), want, "state {state:#x}, n {n}");
                assert_eq!(
                    pick_of_limbs(s1 | 1 << 52, s2, n),
                    want,
                    "carry, state {state:#x}, n {n}"
                );
            }
        }
    }

    #[test]
    fn one_word_wide_calls_take_the_narrow_engine() {
        let states: Vec<u128> = (0..20).map(|i| item_state(8, i)).collect();
        let cons: Vec<u64> = (0..20)
            .map(|i| 0x1234_5678_9abc_def0u64.rotate_left(i))
            .collect();
        let (mut narrow, mut wide) = (Vec::new(), Vec::new());
        mc_hits(&states, &cons, 64, 640, &mut narrow);
        mc_hits_wide(&states, &cons, 64, 640, &mut wide);
        assert_eq!(narrow, wide);
    }

    #[test]
    fn dispatched_engine_matches_scalar_fallback_called_directly() {
        // The differential test of the dispatched engine (IFMA where
        // the host has it) against the scalar fallback with the
        // feature out of the picture, without a switch: the fallback
        // is called directly. Whole groups of every vector count, so
        // the padding lanes are compared too.
        let mut mask_rng = Lcg128::from_key(97, 3, 3);
        for rep in 0..16usize {
            let k = 1 + rep % 4;
            let n = 1 + (rep * 13) % 64;
            let t = 3 * n + rep;
            let states: [u128; LANES] =
                std::array::from_fn(|i| item_state(6, (rep * 100 + i) as u64));
            let cons: [u64; LANES] = std::array::from_fn(|_| mask_rng.next_u64());
            assert_eq!(
                group_hits(k, &states, &cons, n, t)[..8 * k],
                scalar_group_hits(k, &states, &cons, n, t)[..8 * k],
                "rep {rep} (k={k}, n={n}, ifma={})",
                ifma_available()
            );
        }
    }
}
