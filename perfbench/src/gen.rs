//! Seeded inputs. Every workload derives its expressions, documents and
//! write schedule from the `--seed` argument alone; the program under
//! test only ever receives the generated text.

use pxf_workload::{Regime, XPathGenerator, XmlGenerator};
use std::collections::HashSet;

/// Spelling-distinct NITF expressions drawn for the NITF workloads.
pub const NITF_DRAWN: usize = 100_000;
/// Of those, the expressions held back for the broker's SUB/UNSUB churn.
pub const NITF_CHURN_POOL: usize = 4_096;
/// Registrations of the duplicate-heavy workload.
pub const DUP_REGISTRATIONS: usize = 10_000;
/// Documents in the stream that engine-nitf and broker-nitf cycle
/// through (engine-dup-churn takes twice as many from the same stream).
pub const DOC_POOL: usize = 4_000;

/// Derives an independent sub-seed for one input stream.
pub fn sub_seed(seed: u64, stream: u64) -> u64 {
    let mut rng = pxf_rng::Rng::seed_from_u64(seed ^ stream.wrapping_mul(0xA076_1D64_78BD_642F));
    rng.next_u64()
}

/// The NITF subscription set: `(resident, churn pool)`.
///
/// The generator's `distinct` knob compares spellings; about a quarter of
/// `NITF_DRAWN` spellings share a canonical form with an earlier one, and
/// the canonical space of the regime is nearly exhausted at that size, so
/// drawing until 100k canonical forms would take millions of draws and
/// skew the shapes. Instead every canonical repeat is dropped: no two
/// subscriptions compile to one entry (dedup finds nothing), and the
/// index holds the same canonical entries as the full draw.
pub fn nitf(seed: u64) -> (Vec<String>, Vec<String>) {
    let regime = Regime::nitf();
    let mut params = regime.xpath.clone();
    params.count = NITF_DRAWN + NITF_CHURN_POOL;
    params.seed = sub_seed(seed, 1);
    let mut seen = HashSet::new();
    let mut exprs: Vec<String> = XPathGenerator::new(&regime.dtd, params)
        .generate()
        .into_iter()
        .filter(|e| seen.insert(e.canonical().to_string()))
        .map(|e| e.to_string())
        .collect();
    let churn = exprs.split_off(exprs.len() - NITF_CHURN_POOL);
    (exprs, churn)
}

/// The duplicate-heavy registration list (≈35% verbatim repeats, ≈25%
/// contained sub-paths), in registration order.
pub fn duplicates(seed: u64, count: usize) -> Vec<String> {
    let regime = Regime::duplicates();
    let mut params = regime.xpath.clone();
    params.count = count;
    params.seed = sub_seed(seed, 2);
    XPathGenerator::new(&regime.dtd, params)
        .generate()
        .iter()
        .map(|e| e.to_string())
        .collect()
}

/// The document stream shared by every workload (NITF document shape).
pub fn documents(seed: u64, count: usize) -> Vec<Vec<u8>> {
    let regime = Regime::nitf();
    let mut params = regime.xml.clone();
    params.seed = sub_seed(seed, 3);
    let mut generator = XmlGenerator::new(&regime.dtd, params);
    (0..count)
        .map(|_| generator.generate().to_xml().into_bytes())
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_inputs_other_seed_other_inputs() {
        assert_eq!(documents(5, 4), documents(5, 4));
        assert_ne!(documents(5, 4), documents(6, 4));
        assert_eq!(duplicates(5, 300), duplicates(5, 300));
    }
}
