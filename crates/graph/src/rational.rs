//! Exact rational arithmetic.
//!
//! Throughput values in SDF analysis are exact rationals such as 1/7 or
//! 147/2036. Floating point cannot represent these exactly, and the
//! design-space exploration relies on exact comparisons of throughputs
//! (e.g. to decide that distribution sizes 3 and 6 realize the *same*
//! maximal throughput). [`Rational`] is a small, always-normalized
//! numerator/denominator pair backed by `i128`.
//!
//! # Examples
//!
//! ```
//! use buffy_graph::Rational;
//!
//! let a = Rational::new(1, 7);
//! let b = Rational::new(2, 14);
//! assert_eq!(a, b);
//! assert!(a < Rational::new(1, 6));
//! assert_eq!((a + b).to_string(), "2/7");
//! ```

use crate::error::GraphError;
use core::cmp::Ordering;
use core::fmt;
use core::ops::{Add, AddAssign, Div, DivAssign, Mul, MulAssign, Neg, Sub, SubAssign};
use core::str::FromStr;

/// Greatest common divisor of two unsigned 128-bit integers.
///
/// `gcd_u128(0, 0)` is defined as 0.
///
/// ```
/// assert_eq!(buffy_graph::gcd_u128(12, 18), 6);
/// assert_eq!(buffy_graph::gcd_u128(0, 5), 5);
/// ```
pub const fn gcd_u128(mut a: u128, mut b: u128) -> u128 {
    while b != 0 {
        let t = a % b;
        a = b;
        b = t;
    }
    a
}

/// Greatest common divisor of two `u64` values (0 when both are 0).
///
/// ```
/// assert_eq!(buffy_graph::gcd_u64(147, 160), 1);
/// assert_eq!(buffy_graph::gcd_u64(8, 12), 4);
/// ```
pub const fn gcd_u64(a: u64, b: u64) -> u64 {
    gcd_u128(a as u128, b as u128) as u64
}

/// Least common multiple of two `u64` values; `checked_lcm_u64(0, x)` is 0.
///
/// # Errors
///
/// Returns [`GraphError::ArithmeticOverflow`] when the result does not fit
/// in `u64` — the unchecked `(a / g) * b` would silently wrap in release
/// builds.
///
/// ```
/// assert_eq!(buffy_graph::checked_lcm_u64(4, 6), Ok(12));
/// assert_eq!(buffy_graph::checked_lcm_u64(0, 6), Ok(0));
/// assert!(buffy_graph::checked_lcm_u64(u64::MAX, u64::MAX - 1).is_err());
/// ```
pub fn checked_lcm_u64(a: u64, b: u64) -> Result<u64, GraphError> {
    if a == 0 || b == 0 {
        return Ok(0);
    }
    let g = gcd_u64(a, b);
    (a / g)
        .checked_mul(b)
        .ok_or(GraphError::ArithmeticOverflow {
            operation: format!("lcm({a}, {b})"),
        })
}

/// An exact rational number.
///
/// Invariants: the denominator is strictly positive and
/// `gcd(|numerator|, denominator) == 1` (0 is stored as `0/1`).
#[derive(Clone, Copy, PartialEq, Eq, Hash)]
pub struct Rational {
    num: i128,
    den: i128,
}

impl Rational {
    /// The rational number 0.
    pub const ZERO: Rational = Rational { num: 0, den: 1 };
    /// The rational number 1.
    pub const ONE: Rational = Rational { num: 1, den: 1 };

    /// Creates a new rational `num/den`, normalized.
    ///
    /// # Panics
    ///
    /// Panics if `den == 0`.
    ///
    /// ```
    /// use buffy_graph::Rational;
    /// assert_eq!(Rational::new(-4, -6), Rational::new(2, 3));
    /// ```
    pub fn new(num: i128, den: i128) -> Rational {
        assert!(den != 0, "rational denominator must be non-zero");
        let sign = if (num < 0) != (den < 0) && num != 0 {
            -1
        } else {
            1
        };
        let n = num.unsigned_abs();
        let d = den.unsigned_abs();
        let g = gcd_u128(n, d);
        if g == 0 {
            return Rational::ZERO;
        }
        Rational {
            num: sign * (n / g) as i128,
            den: (d / g) as i128,
        }
    }

    /// Creates a rational from an integer.
    ///
    /// ```
    /// use buffy_graph::Rational;
    /// assert_eq!(Rational::from_integer(5), Rational::new(5, 1));
    /// ```
    pub const fn from_integer(n: i128) -> Rational {
        Rational { num: n, den: 1 }
    }

    /// The normalized numerator (carries the sign).
    pub const fn numer(&self) -> i128 {
        self.num
    }

    /// The normalized denominator (always positive).
    pub const fn denom(&self) -> i128 {
        self.den
    }

    /// Whether this rational is exactly zero.
    pub const fn is_zero(&self) -> bool {
        self.num == 0
    }

    /// Whether this rational is an integer.
    pub const fn is_integer(&self) -> bool {
        self.den == 1
    }

    /// Multiplicative inverse.
    ///
    /// # Panics
    ///
    /// Panics if the value is zero.
    ///
    /// ```
    /// use buffy_graph::Rational;
    /// assert_eq!(Rational::new(2, 3).recip(), Rational::new(3, 2));
    /// ```
    pub fn recip(&self) -> Rational {
        assert!(self.num != 0, "cannot invert zero");
        Rational::new(self.den, self.num)
    }

    /// Absolute value.
    pub fn abs(&self) -> Rational {
        Rational {
            num: self.num.abs(),
            den: self.den,
        }
    }

    /// Largest integer not greater than the value.
    ///
    /// ```
    /// use buffy_graph::Rational;
    /// assert_eq!(Rational::new(7, 2).floor(), 3);
    /// assert_eq!(Rational::new(-7, 2).floor(), -4);
    /// ```
    pub fn floor(&self) -> i128 {
        self.num.div_euclid(self.den)
    }

    /// Smallest integer not less than the value.
    ///
    /// ```
    /// use buffy_graph::Rational;
    /// assert_eq!(Rational::new(7, 2).ceil(), 4);
    /// assert_eq!(Rational::new(-7, 2).ceil(), -3);
    /// ```
    pub fn ceil(&self) -> i128 {
        -(-*self).floor()
    }

    /// Lossy conversion to `f64` (for display / plotting only — never used
    /// in decisions inside the library).
    pub fn to_f64(&self) -> f64 {
        self.num as f64 / self.den as f64
    }

    /// Midpoint of two rationals, `(a + b) / 2`.
    ///
    /// Used by the binary search in the throughput dimension of the
    /// design-space exploration.
    pub fn midpoint(a: Rational, b: Rational) -> Rational {
        (a + b) / Rational::from_integer(2)
    }

    /// Rounds this value down to the nearest multiple of `quantum`.
    ///
    /// Used by the throughput-quantization option of the exploration
    /// (paper §11, the H.263 case).
    ///
    /// # Panics
    ///
    /// Panics if `quantum` is not strictly positive.
    ///
    /// ```
    /// use buffy_graph::Rational;
    /// let q = Rational::new(1, 100);
    /// assert_eq!(Rational::new(1, 7).quantize_down(q), Rational::new(14, 100));
    /// ```
    pub fn quantize_down(&self, quantum: Rational) -> Rational {
        assert!(
            quantum > Rational::ZERO,
            "quantization step must be positive"
        );
        let k = (*self / quantum).floor();
        quantum * Rational::from_integer(k)
    }

    /// Checked addition, `None` on overflow.
    pub fn checked_add(&self, other: &Rational) -> Option<Rational> {
        let g = gcd_u128(self.den.unsigned_abs(), other.den.unsigned_abs()) as i128;
        let lhs = self.num.checked_mul(other.den / g)?;
        let rhs = other.num.checked_mul(self.den / g)?;
        let num = lhs.checked_add(rhs)?;
        let den = (self.den / g).checked_mul(other.den)?;
        Some(Rational::new(num, den))
    }

    /// Checked multiplication, `None` on overflow.
    pub fn checked_mul(&self, other: &Rational) -> Option<Rational> {
        // Cross-reduce first to keep intermediates small.
        let g1 = gcd_u128(self.num.unsigned_abs(), other.den.unsigned_abs()) as i128;
        let g2 = gcd_u128(other.num.unsigned_abs(), self.den.unsigned_abs()) as i128;
        let g1 = g1.max(1);
        let g2 = g2.max(1);
        let num = (self.num / g1).checked_mul(other.num / g2)?;
        let den = (self.den / g2).checked_mul(other.den / g1)?;
        Some(Rational::new(num, den))
    }
}

impl Default for Rational {
    fn default() -> Self {
        Rational::ZERO
    }
}

impl From<i64> for Rational {
    fn from(n: i64) -> Self {
        Rational::from_integer(n as i128)
    }
}

impl From<u64> for Rational {
    fn from(n: u64) -> Self {
        Rational::from_integer(n as i128)
    }
}

impl From<u32> for Rational {
    fn from(n: u32) -> Self {
        Rational::from_integer(n as i128)
    }
}

impl Add for Rational {
    type Output = Rational;
    fn add(self, other: Rational) -> Rational {
        self.checked_add(&other)
            .expect("rational addition overflowed i128")
    }
}

impl Sub for Rational {
    type Output = Rational;
    fn sub(self, other: Rational) -> Rational {
        self + (-other)
    }
}

impl Mul for Rational {
    type Output = Rational;
    fn mul(self, other: Rational) -> Rational {
        self.checked_mul(&other)
            .expect("rational multiplication overflowed i128")
    }
}

impl Div for Rational {
    type Output = Rational;
    // Division by a rational IS multiplication by its reciprocal.
    #[allow(clippy::suspicious_arithmetic_impl)]
    fn div(self, other: Rational) -> Rational {
        self * other.recip()
    }
}

impl Neg for Rational {
    type Output = Rational;
    fn neg(self) -> Rational {
        Rational {
            num: -self.num,
            den: self.den,
        }
    }
}

impl AddAssign for Rational {
    fn add_assign(&mut self, other: Rational) {
        *self = *self + other;
    }
}

impl SubAssign for Rational {
    fn sub_assign(&mut self, other: Rational) {
        *self = *self - other;
    }
}

impl MulAssign for Rational {
    fn mul_assign(&mut self, other: Rational) {
        *self = *self * other;
    }
}

impl DivAssign for Rational {
    fn div_assign(&mut self, other: Rational) {
        *self = *self / other;
    }
}

impl PartialOrd for Rational {
    fn partial_cmp(&self, other: &Rational) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for Rational {
    fn cmp(&self, other: &Rational) -> Ordering {
        // a/b ? c/d  <=>  a*d ? c*b   (b, d > 0). When all four parts fit
        // in `i64`, each product fits in `i128` (|x·y| ≤ 2¹²⁶): one widening
        // multiplication each, no overflow check.
        let narrow = |x: i128| x as i64;
        let fits = |x: i128| i128::from(narrow(x)) == x;
        if fits(self.num) & fits(self.den) & fits(other.num) & fits(other.den) {
            let lhs = i128::from(narrow(self.num)) * i128::from(narrow(other.den));
            let rhs = i128::from(narrow(other.num)) * i128::from(narrow(self.den));
            return lhs.cmp(&rhs);
        }
        cmp_checked(self, other)
    }
}

/// [`Ord for Rational`](Rational) without the `i64` fast path: checked
/// cross-multiplication, falling back to [`cmp_by_parts`] on overflow.
fn cmp_checked(a: &Rational, b: &Rational) -> Ordering {
    let lhs = a.num.checked_mul(b.den);
    let rhs = b.num.checked_mul(a.den);
    match (lhs, rhs) {
        (Some(l), Some(r)) => l.cmp(&r),
        // Overflow fallback: exact continued-fraction comparison. In
        // practice SDF throughputs stay far below this regime; keep a
        // conservative, still-correct path.
        _ => cmp_by_parts(a, b),
    }
}

/// Exact comparison via Euclidean decomposition, used only when the direct
/// cross-multiplication would overflow `i128`.
fn cmp_by_parts(a: &Rational, b: &Rational) -> Ordering {
    // Compare integer parts, then recurse on the fractional remainders with
    // swapped roles (standard continued-fraction comparison).
    let (mut an, mut ad) = (a.num, a.den);
    let (mut bn, mut bd) = (b.num, b.den);
    // Normalize signs: denominators are positive by invariant.
    loop {
        let qa = an.div_euclid(ad);
        let qb = bn.div_euclid(bd);
        match qa.cmp(&qb) {
            Ordering::Equal => {}
            o => return o,
        }
        let ra = an.rem_euclid(ad);
        let rb = bn.rem_euclid(bd);
        match (ra == 0, rb == 0) {
            (true, true) => return Ordering::Equal,
            (true, false) => return Ordering::Less,
            (false, true) => return Ordering::Greater,
            (false, false) => {
                // a' = ra/ad, b' = rb/bd, both in (0,1):
                // ra/ad ? rb/bd <=> bd/rb ? ad/ra (reversed)
                let (nan, nad) = (bd, rb);
                let (nbn, nbd) = (ad, ra);
                an = nan;
                ad = nad;
                bn = nbn;
                bd = nbd;
            }
        }
    }
}

impl fmt::Debug for Rational {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Rational({}/{})", self.num, self.den)
    }
}

impl fmt::Display for Rational {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.den == 1 {
            write!(f, "{}", self.num)
        } else {
            write!(f, "{}/{}", self.num, self.den)
        }
    }
}

/// Error returned when parsing a [`Rational`] from a string fails.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseRationalError {
    input: String,
}

impl fmt::Display for ParseRationalError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "invalid rational number syntax: {:?}", self.input)
    }
}

impl std::error::Error for ParseRationalError {}

impl FromStr for Rational {
    type Err = ParseRationalError;

    /// Parses `"a/b"` or `"a"`.
    ///
    /// ```
    /// use buffy_graph::Rational;
    /// let r: Rational = "3/9".parse().unwrap();
    /// assert_eq!(r, Rational::new(1, 3));
    /// ```
    fn from_str(s: &str) -> Result<Self, Self::Err> {
        let err = || ParseRationalError {
            input: s.to_string(),
        };
        let s = s.trim();
        match s.split_once('/') {
            Some((n, d)) => {
                let n: i128 = n.trim().parse().map_err(|_| err())?;
                let d: i128 = d.trim().parse().map_err(|_| err())?;
                if d == 0 {
                    return Err(err());
                }
                Ok(Rational::new(n, d))
            }
            None => {
                let n: i128 = s.parse().map_err(|_| err())?;
                Ok(Rational::from_integer(n))
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn gcd_basics() {
        assert_eq!(gcd_u128(0, 0), 0);
        assert_eq!(gcd_u128(0, 7), 7);
        assert_eq!(gcd_u128(7, 0), 7);
        assert_eq!(gcd_u128(12, 18), 6);
        assert_eq!(gcd_u64(147, 160), 1);
        assert_eq!(checked_lcm_u64(4, 6), Ok(12));
        assert_eq!(checked_lcm_u64(0, 6), Ok(0));
        assert_eq!(checked_lcm_u64(6, 0), Ok(0));
        assert!(matches!(
            checked_lcm_u64(u64::MAX, u64::MAX - 1),
            Err(GraphError::ArithmeticOverflow { .. })
        ));
        // Co-prime factors just below the limit still work.
        assert_eq!(checked_lcm_u64(1 << 32, 1 << 31), Ok(1 << 32));
    }

    #[test]
    fn i64_fast_path_agrees_with_the_checked_comparison() {
        const MAX: i128 = i64::MAX as i128;
        const MIN: i128 = i64::MIN as i128;
        // Zero, ±1, the `i64` extremes and values just beyond them.
        let parts = [
            0,
            1,
            -1,
            2,
            MAX,
            -MAX,
            MIN,
            MAX - 1,
            MAX + 1,
            MAX + 2,
            MIN - 1,
            MIN + 1,
            -MAX - 2,
        ];
        let mut values = Vec::new();
        for &num in &parts {
            for &den in &parts {
                if den != 0 {
                    values.push(Rational::new(num, den));
                }
            }
        }
        // Seeded random pairs, mostly within `i64`, some wider.
        let mut state: u64 = 0x9E37_79B9_7F4A_7C15;
        let mut next = || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state
        };
        for i in 0..2000 {
            let shift = [0, 1, 32, 62][i % 4];
            let num = (next() as i64 as i128) << shift;
            let den = (next() >> (i % 64)).max(1) as i128;
            values.push(Rational::new(num, den));
        }
        for a in &values {
            for b in values.iter().step_by(7) {
                assert_eq!(a.cmp(b), cmp_checked(a, b), "{a:?} vs {b:?}");
                assert_eq!(b.cmp(a), cmp_checked(b, a), "{b:?} vs {a:?}");
            }
        }
    }

    #[test]
    fn normalization() {
        assert_eq!(Rational::new(2, 4), Rational::new(1, 2));
        assert_eq!(Rational::new(-2, 4), Rational::new(1, -2));
        assert_eq!(Rational::new(-2, -4), Rational::new(1, 2));
        assert_eq!(Rational::new(0, 5).denom(), 1);
        assert_eq!(Rational::new(0, -5), Rational::ZERO);
    }

    #[test]
    #[should_panic(expected = "non-zero")]
    fn zero_denominator_panics() {
        let _ = Rational::new(1, 0);
    }

    #[test]
    fn arithmetic() {
        let a = Rational::new(1, 6);
        let b = Rational::new(1, 7);
        assert_eq!(a + b, Rational::new(13, 42));
        assert_eq!(a - b, Rational::new(1, 42));
        assert_eq!(a * b, Rational::new(1, 42));
        assert_eq!(a / b, Rational::new(7, 6));
        assert_eq!(-a, Rational::new(-1, 6));
        let mut c = a;
        c += b;
        c -= b;
        assert_eq!(c, a);
        c *= b;
        c /= b;
        assert_eq!(c, a);
    }

    #[test]
    fn ordering() {
        assert!(Rational::new(1, 7) < Rational::new(1, 6));
        assert!(Rational::new(-1, 2) < Rational::ZERO);
        assert!(Rational::new(3, 2) > Rational::ONE);
        assert_eq!(
            Rational::new(4, 8).cmp(&Rational::new(1, 2)),
            Ordering::Equal
        );
    }

    #[test]
    fn ordering_huge_values_no_overflow() {
        let big = i128::MAX / 2;
        let a = Rational::new(big, big - 1);
        let b = Rational::new(big - 1, big - 2);
        // a = big/(big-1) ≈ 1+1/(big-1); b ≈ 1+1/(big-2) so a < b.
        assert!(a < b);
        assert_eq!(a.cmp(&a), Ordering::Equal);
    }

    #[test]
    fn floor_ceil() {
        assert_eq!(Rational::new(7, 3).floor(), 2);
        assert_eq!(Rational::new(7, 3).ceil(), 3);
        assert_eq!(Rational::new(-7, 3).floor(), -3);
        assert_eq!(Rational::new(-7, 3).ceil(), -2);
        assert_eq!(Rational::from_integer(4).floor(), 4);
        assert_eq!(Rational::from_integer(4).ceil(), 4);
    }

    #[test]
    fn midpoint_and_quantize() {
        let m = Rational::midpoint(Rational::ZERO, Rational::new(1, 4));
        assert_eq!(m, Rational::new(1, 8));
        let q = Rational::new(1, 100);
        assert_eq!(Rational::new(1, 7).quantize_down(q), Rational::new(7, 50));
        assert_eq!(Rational::new(1, 4).quantize_down(q), Rational::new(1, 4));
    }

    #[test]
    fn parse_and_display() {
        assert_eq!("1/7".parse::<Rational>().unwrap(), Rational::new(1, 7));
        assert_eq!(
            " -3 / 9 ".parse::<Rational>().unwrap(),
            Rational::new(-1, 3)
        );
        assert_eq!("5".parse::<Rational>().unwrap(), Rational::from_integer(5));
        assert!("1/0".parse::<Rational>().is_err());
        assert!("x".parse::<Rational>().is_err());
        assert_eq!(Rational::new(3, 9).to_string(), "1/3");
        assert_eq!(Rational::from_integer(-2).to_string(), "-2");
        assert!(!format!("{:?}", Rational::ZERO).is_empty());
    }

    #[test]
    fn recip_and_predicates() {
        assert_eq!(Rational::new(2, 5).recip(), Rational::new(5, 2));
        assert!(Rational::ZERO.is_zero());
        assert!(Rational::from_integer(9).is_integer());
        assert!(!Rational::new(1, 2).is_integer());
        assert_eq!(Rational::new(-1, 2).abs(), Rational::new(1, 2));
    }

    #[test]
    #[should_panic(expected = "invert zero")]
    fn recip_zero_panics() {
        let _ = Rational::ZERO.recip();
    }

    #[test]
    fn to_f64_is_close() {
        assert!((Rational::new(1, 7).to_f64() - 1.0 / 7.0).abs() < 1e-12);
    }

    #[test]
    fn checked_ops_detect_overflow() {
        let huge = Rational::from_integer(i128::MAX);
        assert!(huge.checked_add(&huge).is_none());
        assert!(huge.checked_mul(&huge).is_none());
        // Different denominators force a cross-multiplication that
        // overflows even though each operand is representable.
        let a = Rational::new(i128::MAX - 1, 3);
        let b = Rational::new(1, i128::MAX - 2);
        assert!(a.checked_add(&b).is_none());
        // Cross-reduction lets this one succeed despite big operands.
        let a = Rational::new(i128::MAX / 2, 7);
        let b = Rational::new(7, i128::MAX / 2);
        assert_eq!(a.checked_mul(&b), Some(Rational::ONE));
        // Normal values round-trip through the checked paths.
        let x = Rational::new(3, 4);
        let y = Rational::new(5, 6);
        assert_eq!(x.checked_add(&y), Some(x + y));
        assert_eq!(x.checked_mul(&y), Some(x * y));
    }

    #[test]
    fn conversions_from_integers() {
        assert_eq!(Rational::from(3i64), Rational::from_integer(3));
        assert_eq!(Rational::from(3u64), Rational::from_integer(3));
        assert_eq!(Rational::from(3u32), Rational::from_integer(3));
        assert_eq!(Rational::default(), Rational::ZERO);
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn quantize_zero_quantum_panics() {
        let _ = Rational::ONE.quantize_down(Rational::ZERO);
    }
}
