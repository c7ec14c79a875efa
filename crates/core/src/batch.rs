//! Slate planning for [`crate::SearchContext::evaluate_all`]: a candidate
//! slate is grouped by canonical digest so each canonical class is evaluated
//! once, by its first member in slate order.

use micronas_searchspace::CellTopology;
use micronas_store::ArchDigest;
use std::collections::HashMap;

/// A candidate slate grouped into canonical classes.
pub(crate) struct SlatePlan {
    /// The first member of each canonical class, in slate order.
    pub(crate) representatives: Vec<CellTopology>,
    /// The class of each slate member: an index into `representatives`.
    pub(crate) classes: Vec<usize>,
}

impl SlatePlan {
    /// Groups `cells` by the digest of their canonical form. Exact
    /// duplicates and isomorphic twins share a class.
    pub(crate) fn of(cells: &[CellTopology]) -> Self {
        let mut class_of_digest: HashMap<u64, usize> = HashMap::new();
        let mut representatives: Vec<CellTopology> = Vec::new();
        let classes = cells
            .iter()
            .map(|cell| {
                let digest = ArchDigest::of(&cell.canonical_form()).value();
                *class_of_digest.entry(digest).or_insert_with(|| {
                    representatives.push(*cell);
                    representatives.len() - 1
                })
            })
            .collect();
        Self {
            representatives,
            classes,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{MicroNasConfig, SearchContext};
    use micronas_datasets::DatasetKind;
    use micronas_searchspace::{Operation, SearchSpace};

    fn tiny_context() -> SearchContext {
        SearchContext::new(DatasetKind::Cifar10, &MicroNasConfig::tiny_test()).unwrap()
    }

    #[test]
    fn plan_numbers_classes_in_first_seen_order_and_joins_twins() {
        let space = SearchSpace::nas_bench_201();
        let twin = CellTopology::new([
            Operation::NorConv3x3,
            Operation::SkipConnect,
            Operation::None,
            Operation::AvgPool3x3,
            Operation::NorConv1x1,
            Operation::None,
        ]);
        let a = space.cell(42).unwrap();
        let b = space.cell(7_000).unwrap();
        let cells = [a, twin, b, a, twin.intermediate_swap().unwrap(), b];
        let plan = SlatePlan::of(&cells);
        assert_eq!(plan.classes, vec![0, 1, 2, 0, 1, 2]);
        assert_eq!(plan.representatives, vec![a, twin, b]);
        assert!(SlatePlan::of(&[]).representatives.is_empty());
    }

    #[test]
    fn evaluate_all_resolves_duplicates_exactly_like_the_sequential_path() {
        let space = SearchSpace::nas_bench_201();
        // Duplicates spread across the slate, some far from their first
        // occurrence.
        let indices = [7_000usize, 42, 7_000, 11_111, 404, 42, 9_000, 7_000, 1];
        let cells: Vec<CellTopology> = indices.iter().map(|&i| space.cell(i).unwrap()).collect();
        let seq_ctx = tiny_context();
        let batch_ctx = tiny_context();
        let sequential: Vec<_> = cells
            .iter()
            .map(|&c| seq_ctx.evaluate(c).unwrap())
            .collect();
        let batched = batch_ctx.evaluate_all(&cells).unwrap();
        assert_eq!(batched.len(), sequential.len());
        for (i, (s, b)) in sequential.iter().zip(&batched).enumerate() {
            assert_eq!(**s, **b, "member {i}");
        }
        assert_eq!(seq_ctx.evaluation_count(), batch_ctx.evaluation_count());
        assert_eq!(
            seq_ctx.cache_stats(),
            batch_ctx.cache_stats(),
            "duplicates resolved from their class must count exactly like \
             sequential context-cache hits"
        );
    }
}
