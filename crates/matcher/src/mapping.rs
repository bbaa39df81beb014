//! Mappings `σ` and match results with their probability spaces.

use serde::{Deserialize, Serialize};
use std::fmt;

/// One predicate-to-tuple correspondence `(p ↔ t)` of a mapping, with its
/// combined similarity and its probability within the predicate's
/// correspondence space `Pσ`.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct Correspondence {
    /// Index of the subscription predicate.
    pub predicate: usize,
    /// Index of the event tuple the predicate maps to.
    pub tuple: usize,
    /// Combined attribute/value similarity of the pair (matrix cell).
    pub similarity: f64,
    /// Row-normalized probability of this correspondence among the
    /// predicate's alternatives.
    pub probability: f64,
}

/// A complete mapping `σ` between a subscription and an event: exactly one
/// correspondence per predicate (paper §3.5: "There are exactly n
/// correspondences in any valid mapping").
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Mapping {
    correspondences: Vec<Correspondence>,
    score: f64,
    probability: f64,
}

impl Mapping {
    pub(crate) fn new(correspondences: Vec<Correspondence>) -> Mapping {
        let score = correspondences.iter().map(|c| c.similarity).product();
        let probability = correspondences.iter().map(|c| c.probability).product();
        Mapping {
            correspondences,
            score,
            probability,
        }
    }

    /// The correspondences, ordered by predicate index.
    pub fn correspondences(&self) -> &[Correspondence] {
        &self.correspondences
    }

    /// The raw semantic score of the mapping: the product of its
    /// correspondence similarities, in `[0, 1]`. `1.0` means an exact
    /// match; comparable across events, so this is what the evaluation
    /// ranks events by.
    pub fn score(&self) -> f64 {
        self.score
    }

    /// The probability of the mapping within the mapping space `P`
    /// (product of row-normalized correspondence probabilities,
    /// re-normalized across the enumerated mapping set by the matcher).
    pub fn probability(&self) -> f64 {
        self.probability
    }

    pub(crate) fn set_probability(&mut self, p: f64) {
        self.probability = p;
    }

    /// The tuple index predicate `i` maps to, if `i` is in range.
    pub fn tuple_of(&self, predicate: usize) -> Option<usize> {
        self.correspondences
            .iter()
            .find(|c| c.predicate == predicate)
            .map(|c| c.tuple)
    }
}

impl fmt::Display for Mapping {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "σ[score={:.4}, p={:.4}]{{", self.score, self.probability)?;
        for (i, c) in self.correspondences.iter().enumerate() {
            if i > 0 {
                write!(f, ", ")?;
            }
            write!(f, "p{}↔t{}", c.predicate, c.tuple)?;
        }
        write!(f, "}}")
    }
}

/// The result of matching one subscription against one event: the top-1 or
/// top-k mappings, best first.
///
/// An empty result (no valid mapping, e.g. fewer event tuples than
/// subscription predicates, or every complete mapping hits a zero-score
/// correspondence) means the event is irrelevant.
#[derive(Debug, Clone, PartialEq, Default, Serialize, Deserialize)]
pub struct MatchResult {
    mappings: Vec<Mapping>,
}

impl MatchResult {
    /// A no-match result.
    pub fn no_match() -> MatchResult {
        MatchResult::default()
    }

    pub(crate) fn from_mappings(mut mappings: Vec<Mapping>) -> MatchResult {
        mappings.sort_by(|a, b| {
            b.score()
                .partial_cmp(&a.score())
                .unwrap_or(std::cmp::Ordering::Equal)
        });
        // Re-normalize mapping probabilities over the enumerated set (the
        // paper's probability space P over Σ).
        let total: f64 = mappings.iter().map(Mapping::probability).sum();
        if total > 0.0 {
            for m in &mut mappings {
                let p = m.probability() / total;
                m.set_probability(p);
            }
        }
        MatchResult { mappings }
    }

    /// The mappings, best (highest score) first.
    pub fn mappings(&self) -> &[Mapping] {
        &self.mappings
    }

    /// The best mapping `σ*`, if any.
    pub fn best(&self) -> Option<&Mapping> {
        self.mappings.first()
    }

    /// The best mapping's score, or `0.0` when there is no valid mapping.
    pub fn score(&self) -> f64 {
        self.best().map(Mapping::score).unwrap_or(0.0)
    }

    /// Whether the best score reaches `threshold`.
    pub fn is_match(&self, threshold: f64) -> bool {
        self.score() >= threshold
    }

    /// Whether no valid mapping exists.
    pub fn is_empty(&self) -> bool {
        self.mappings.is_empty()
    }

    /// Returns a copy with every correspondence's predicate index mapped
    /// through `perm` (`perm[old] = new`); indices outside `perm` are kept
    /// as-is, and each mapping's correspondences are re-sorted into
    /// predicate order. Used by subscription aggregation: one match test
    /// against a canonical representative serves subscribers whose
    /// predicate lists are permutations of each other, and each
    /// subscriber's notification must read as a test of *that
    /// subscriber's* predicate list.
    pub fn with_remapped_predicates(&self, perm: &[usize]) -> MatchResult {
        let mappings = self
            .mappings
            .iter()
            .map(|m| {
                let mut correspondences: Vec<Correspondence> = m
                    .correspondences()
                    .iter()
                    .map(|c| Correspondence {
                        predicate: perm.get(c.predicate).copied().unwrap_or(c.predicate),
                        ..*c
                    })
                    .collect();
                correspondences.sort_by_key(|c| c.predicate);
                let mut out = Mapping::new(correspondences);
                out.set_probability(m.probability());
                out
            })
            .collect();
        MatchResult { mappings }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn corr(p: usize, t: usize, sim: f64, prob: f64) -> Correspondence {
        Correspondence {
            predicate: p,
            tuple: t,
            similarity: sim,
            probability: prob,
        }
    }

    #[test]
    fn mapping_score_is_similarity_product() {
        let m = Mapping::new(vec![corr(0, 1, 0.5, 0.5), corr(1, 0, 0.8, 1.0)]);
        assert!((m.score() - 0.4).abs() < 1e-12);
        assert!((m.probability() - 0.5).abs() < 1e-12);
        assert_eq!(m.tuple_of(0), Some(1));
        assert_eq!(m.tuple_of(7), None);
    }

    #[test]
    fn remapped_correspondences_stay_in_predicate_order() {
        let r = MatchResult::from_mappings(vec![Mapping::new(vec![
            corr(0, 3, 1.0, 1.0),
            corr(1, 1, 0.5, 1.0),
        ])]);
        let swapped = r.with_remapped_predicates(&[1, 0]);
        let pairs: Vec<(usize, usize)> = swapped.mappings()[0]
            .correspondences()
            .iter()
            .map(|c| (c.predicate, c.tuple))
            .collect();
        assert_eq!(pairs, [(0, 1), (1, 3)]);
        assert_eq!(swapped.mappings()[0].tuple_of(1), Some(3));
        assert!((swapped.score() - 0.5).abs() < 1e-12);
    }

    #[test]
    fn result_sorts_by_score_and_normalizes_probability() {
        let a = Mapping::new(vec![corr(0, 0, 0.2, 0.25)]);
        let b = Mapping::new(vec![corr(0, 1, 0.6, 0.75)]);
        let r = MatchResult::from_mappings(vec![a, b]);
        assert_eq!(r.mappings().len(), 2);
        assert!(r.mappings()[0].score() > r.mappings()[1].score());
        let total: f64 = r.mappings().iter().map(Mapping::probability).sum();
        assert!((total - 1.0).abs() < 1e-12);
        assert!((r.score() - 0.6).abs() < 1e-12);
    }

    #[test]
    fn empty_result_behaviour() {
        let r = MatchResult::no_match();
        assert!(r.is_empty());
        assert_eq!(r.score(), 0.0);
        assert!(r.best().is_none());
        assert!(!r.is_match(0.1));
        assert!(r.is_match(0.0));
    }

    #[test]
    fn display_shows_correspondences() {
        let m = Mapping::new(vec![corr(0, 2, 1.0, 1.0)]);
        assert!(m.to_string().contains("p0↔t2"));
    }
}
