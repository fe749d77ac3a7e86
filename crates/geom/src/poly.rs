//! Dense univariate polynomials with `f64` coefficients: the arithmetic
//! of the Sturm-chain reference solver ([`crate::sturm`]) that the tests
//! hold [`crate::roots::find_roots`] to.

use std::fmt;

/// A polynomial `c0 + c1 x + c2 x^2 + ...` stored low-degree first.
///
/// The zero polynomial is represented by an empty coefficient vector.
#[derive(Debug, Clone, PartialEq)]
pub struct Poly {
    coeffs: Vec<f64>,
}

impl Poly {
    /// Creates a polynomial from coefficients, lowest degree first.
    /// Trailing (near-)zero leading coefficients are trimmed.
    pub fn new(coeffs: Vec<f64>) -> Self {
        let mut p = Poly { coeffs };
        p.trim(0.0);
        p
    }

    /// The zero polynomial.
    pub fn zero() -> Self {
        Poly { coeffs: vec![] }
    }

    /// The constant polynomial `c`.
    pub fn constant(c: f64) -> Self {
        Poly::new(vec![c])
    }

    /// Coefficients, lowest degree first (empty for the zero polynomial).
    pub fn coeffs(&self) -> &[f64] {
        &self.coeffs
    }

    /// Degree, or `None` for the zero polynomial.
    pub fn degree(&self) -> Option<usize> {
        if self.coeffs.is_empty() {
            None
        } else {
            Some(self.coeffs.len() - 1)
        }
    }

    /// `true` when this is the zero polynomial.
    pub fn is_zero(&self) -> bool {
        self.coeffs.is_empty()
    }

    /// The leading coefficient (of the highest-degree term).
    pub fn leading(&self) -> f64 {
        *self.coeffs.last().unwrap_or(&0.0)
    }

    /// Largest absolute coefficient (0 for the zero polynomial).
    pub fn max_abs_coeff(&self) -> f64 {
        self.coeffs.iter().fold(0.0, |m, c| m.max(c.abs()))
    }

    fn trim(&mut self, tol: f64) {
        while let Some(&last) = self.coeffs.last() {
            if last.abs() <= tol {
                self.coeffs.pop();
            } else {
                break;
            }
        }
    }

    /// Removes leading coefficients smaller than `rel_tol` times the
    /// largest coefficient magnitude. Used to keep Euclidean remainders
    /// from accumulating spurious high-degree noise.
    pub fn trim_relative(&mut self, rel_tol: f64) {
        let scale = self.max_abs_coeff();
        if scale > 0.0 {
            self.trim(scale * rel_tol);
        }
    }

    /// Evaluates the polynomial at `x` using Horner's scheme.
    pub fn eval(&self, x: f64) -> f64 {
        let mut acc = 0.0;
        for &c in self.coeffs.iter().rev() {
            acc = acc * x + c;
        }
        acc
    }

    /// First derivative.
    pub fn derivative(&self) -> Poly {
        if self.coeffs.len() <= 1 {
            return Poly::zero();
        }
        let coeffs = self
            .coeffs
            .iter()
            .enumerate()
            .skip(1)
            .map(|(i, &c)| c * i as f64)
            .collect();
        Poly::new(coeffs)
    }

    /// Polynomial sum.
    pub fn add(&self, other: &Poly) -> Poly {
        let n = self.coeffs.len().max(other.coeffs.len());
        let mut out = vec![0.0; n];
        for (i, &c) in self.coeffs.iter().enumerate() {
            out[i] += c;
        }
        for (i, &c) in other.coeffs.iter().enumerate() {
            out[i] += c;
        }
        Poly::new(out)
    }

    /// Polynomial difference.
    pub fn sub(&self, other: &Poly) -> Poly {
        let n = self.coeffs.len().max(other.coeffs.len());
        let mut out = vec![0.0; n];
        for (i, &c) in self.coeffs.iter().enumerate() {
            out[i] += c;
        }
        for (i, &c) in other.coeffs.iter().enumerate() {
            out[i] -= c;
        }
        Poly::new(out)
    }

    /// Polynomial product.
    pub fn mul(&self, other: &Poly) -> Poly {
        if self.is_zero() || other.is_zero() {
            return Poly::zero();
        }
        let mut out = vec![0.0; self.coeffs.len() + other.coeffs.len() - 1];
        for (i, &a) in self.coeffs.iter().enumerate() {
            for (j, &b) in other.coeffs.iter().enumerate() {
                out[i + j] += a * b;
            }
        }
        Poly::new(out)
    }

    /// Scales all coefficients by `s`.
    pub fn scale(&self, s: f64) -> Poly {
        Poly::new(self.coeffs.iter().map(|&c| c * s).collect())
    }

    /// Euclidean division: returns `(quotient, remainder)` with
    /// `self = quotient * divisor + remainder` and
    /// `deg(remainder) < deg(divisor)`.
    ///
    /// # Panics
    ///
    /// Panics when dividing by the zero polynomial.
    pub fn div_rem(&self, divisor: &Poly) -> (Poly, Poly) {
        assert!(!divisor.is_zero(), "polynomial division by zero");
        let dd = divisor.coeffs.len();
        if self.coeffs.len() < dd {
            return (Poly::zero(), self.clone());
        }
        let mut rem = self.coeffs.clone();
        let mut quot = vec![0.0; self.coeffs.len() - dd + 1];
        let lead = divisor.leading();
        for k in (0..quot.len()).rev() {
            let q = rem[k + dd - 1] / lead;
            quot[k] = q;
            if q != 0.0 {
                for (j, &dc) in divisor.coeffs.iter().enumerate() {
                    rem[k + j] -= q * dc;
                }
            }
        }
        rem.truncate(dd - 1);
        let mut r = Poly { coeffs: rem };
        // The subtraction above should zero the top terms exactly in exact
        // arithmetic; trim rounding residue relative to the operand scale.
        let scale = self.max_abs_coeff().max(1.0);
        r.trim(scale * 1e-14);
        (Poly { coeffs: quot }, r)
    }

    /// Monic normalization (leading coefficient 1).
    pub fn monic(&self) -> Poly {
        if self.is_zero() {
            return Poly::zero();
        }
        self.scale(1.0 / self.leading())
    }

    /// Greatest common divisor via the Euclidean algorithm with relative
    /// tolerance; the result is monic. `gcd(p, 0) = monic(p)`.
    pub fn gcd(&self, other: &Poly) -> Poly {
        let mut a = self.clone();
        let mut b = other.clone();
        // Normalize magnitudes to make the relative trimming meaningful.
        if !a.is_zero() {
            a = a.monic();
        }
        if !b.is_zero() {
            b = b.monic();
        }
        while !b.is_zero() {
            let (_, mut r) = a.div_rem(&b);
            r.trim_relative(1e-10);
            a = b;
            b = if r.is_zero() { Poly::zero() } else { r.monic() };
        }
        if a.is_zero() {
            Poly::zero()
        } else {
            a.monic()
        }
    }

    /// The square-free part `p / gcd(p, p')`: same distinct roots, all of
    /// multiplicity one. Essential before building Sturm sequences.
    pub fn squarefree(&self) -> Poly {
        if self.degree().unwrap_or(0) <= 1 {
            return self.clone();
        }
        let g = self.gcd(&self.derivative());
        if g.degree().unwrap_or(0) == 0 {
            return self.clone();
        }
        let (q, _) = self.div_rem(&g);
        q
    }

    /// An upper bound on the absolute value of all real roots
    /// (Cauchy's bound `1 + max |c_i / c_n|`).
    pub fn root_bound(&self) -> f64 {
        if self.coeffs.len() <= 1 {
            return 0.0;
        }
        let lead = self.leading().abs();
        let m = self.coeffs[..self.coeffs.len() - 1]
            .iter()
            .fold(0.0_f64, |acc, c| acc.max(c.abs()));
        1.0 + m / lead
    }
}

impl fmt::Display for Poly {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.is_zero() {
            return write!(f, "0");
        }
        let mut first = true;
        for (i, &c) in self.coeffs.iter().enumerate().rev() {
            if c == 0.0 {
                continue;
            }
            if !first {
                write!(f, " {} ", if c < 0.0 { "-" } else { "+" })?;
            } else if c < 0.0 {
                write!(f, "-")?;
            }
            let a = c.abs();
            match i {
                0 => write!(f, "{a}")?,
                1 => write!(f, "{a}·x")?,
                _ => write!(f, "{a}·x^{i}")?,
            }
            first = false;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn poly(coeffs: &[f64]) -> Poly {
        Poly::new(coeffs.to_vec())
    }

    #[test]
    fn construction_trims_leading_zeros() {
        let p = poly(&[1.0, 2.0, 0.0, 0.0]);
        assert_eq!(p.degree(), Some(1));
        assert!(poly(&[0.0, 0.0]).is_zero());
        assert_eq!(Poly::zero().degree(), None);
    }

    #[test]
    fn eval_horner() {
        let p = poly(&[1.0, -2.0, 3.0]); // 1 - 2x + 3x^2
        assert_eq!(p.eval(0.0), 1.0);
        assert_eq!(p.eval(1.0), 2.0);
        assert_eq!(p.eval(2.0), 9.0);
    }

    #[test]
    fn arithmetic() {
        let a = poly(&[1.0, 1.0]); // 1 + x
        let b = poly(&[-1.0, 1.0]); // -1 + x
        assert_eq!(a.add(&b), poly(&[0.0, 2.0]));
        assert_eq!(a.sub(&b), poly(&[2.0]));
        assert_eq!(a.mul(&b), poly(&[-1.0, 0.0, 1.0])); // x^2 - 1
        assert_eq!(a.scale(2.0), poly(&[2.0, 2.0]));
    }

    #[test]
    fn derivative() {
        let p = poly(&[5.0, 3.0, 2.0, 1.0]); // 5 + 3x + 2x^2 + x^3
        assert_eq!(p.derivative(), poly(&[3.0, 4.0, 3.0]));
        assert_eq!(Poly::constant(7.0).derivative(), Poly::zero());
    }

    #[test]
    fn division_exact() {
        // (x^2 - 1) / (x - 1) = (x + 1), rem 0
        let num = poly(&[-1.0, 0.0, 1.0]);
        let den = poly(&[-1.0, 1.0]);
        let (q, r) = num.div_rem(&den);
        assert_eq!(q, poly(&[1.0, 1.0]));
        assert!(r.is_zero());
    }

    #[test]
    fn division_with_remainder() {
        // x^3 + 2 divided by x^2: q = x, r = 2
        let num = poly(&[2.0, 0.0, 0.0, 1.0]);
        let den = poly(&[0.0, 0.0, 1.0]);
        let (q, r) = num.div_rem(&den);
        assert_eq!(q, poly(&[0.0, 1.0]));
        assert_eq!(r, poly(&[2.0]));
    }

    #[test]
    fn division_by_higher_degree() {
        let num = poly(&[1.0, 1.0]);
        let den = poly(&[0.0, 0.0, 1.0]);
        let (q, r) = num.div_rem(&den);
        assert!(q.is_zero());
        assert_eq!(r, num);
    }

    #[test]
    fn gcd_of_polynomials_with_common_factor() {
        // gcd((x-1)(x-2), (x-1)(x-3)) = (x-1)
        let a = poly(&[2.0, -3.0, 1.0]);
        let b = poly(&[3.0, -4.0, 1.0]);
        let g = a.gcd(&b);
        assert_eq!(g.degree(), Some(1));
        assert!(g.eval(1.0).abs() < 1e-9);
    }

    #[test]
    fn gcd_coprime_is_constant() {
        let a = poly(&[-1.0, 1.0]); // x - 1
        let b = poly(&[-2.0, 1.0]); // x - 2
        assert_eq!(a.gcd(&b).degree(), Some(0));
    }

    #[test]
    fn squarefree_removes_multiplicity() {
        // (x-1)^2 (x-2) = x^3 - 4x^2 + 5x - 2
        let p = poly(&[-2.0, 5.0, -4.0, 1.0]);
        let sf = p.squarefree();
        assert_eq!(sf.degree(), Some(2));
        assert!(sf.eval(1.0).abs() < 1e-9);
        assert!(sf.eval(2.0).abs() < 1e-9);
    }

    #[test]
    fn root_bound_contains_roots() {
        // roots at ±10
        let p = poly(&[-100.0, 0.0, 1.0]);
        assert!(p.root_bound() >= 10.0);
    }

    #[test]
    fn display_formats() {
        let p = poly(&[1.0, -2.0, 3.0]);
        let s = format!("{p}");
        assert!(s.contains("x^2"), "{s}");
    }
}
