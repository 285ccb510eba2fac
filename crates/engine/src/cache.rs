//! Compiled-model cache keyed by circuit structure, options, and input-spec
//! signature, with LRU eviction weighted by the junction trees' nonzero
//! potential entries (nnz) — the memory a compiled model actually retains
//! and the work its propagations actually do once zero-compressed cliques
//! skip structural zeros.

use std::collections::HashMap;
use std::sync::Arc;

use swact::{CompiledEstimator, InputSpec, Options};
use swact_circuit::Circuit;

/// Cache key: a structural fingerprint of everything that determines a
/// compiled model — topology, gate kinds, line names, options, and the
/// spec's group/pair signature. Collisions would silently reuse the wrong
/// model, so all of it feeds the hash.
///
/// Delegates to [`swact::artifact::model_key`]: the same key names on-disk
/// artifacts, so the in-memory and disk tiers of the cache agree on
/// identity across processes (a `DefaultHasher` key would be randomized
/// per process and could never address a shared cache directory).
pub(crate) fn model_key(circuit: &Circuit, spec: &InputSpec, options: &Options) -> u128 {
    swact::artifact::model_key(circuit, Some(spec), options)
}

struct Entry {
    model: Arc<CompiledEstimator>,
    /// Nonzero junction-tree potential entries — the model's memory cost
    /// proxy (equals the full state-space size for uncompressed models).
    cost: f64,
    last_used: u64,
}

/// LRU cache of compiled estimators, bounded by total nnz cost rather than
/// entry count, so one huge model counts for what it weighs.
pub(crate) struct ModelCache {
    entries: HashMap<u128, Entry>,
    budget: f64,
    total_cost: f64,
    tick: u64,
}

impl ModelCache {
    pub(crate) fn new(budget_states: f64) -> ModelCache {
        ModelCache {
            entries: HashMap::new(),
            budget: budget_states.max(0.0),
            total_cost: 0.0,
            tick: 0,
        }
    }

    pub(crate) fn get(&mut self, key: u128) -> Option<Arc<CompiledEstimator>> {
        self.tick += 1;
        let tick = self.tick;
        self.entries.get_mut(&key).map(|entry| {
            entry.last_used = tick;
            Arc::clone(&entry.model)
        })
    }

    /// Inserts a freshly compiled model, evicting least-recently-used
    /// entries until the nnz budget holds again. The new entry is
    /// never evicted (a model bigger than the whole budget still gets
    /// cached — evicting it immediately would defeat the batch that needs
    /// it). Returns the number of evictions.
    pub(crate) fn insert(&mut self, key: u128, model: Arc<CompiledEstimator>) -> u64 {
        self.tick += 1;
        let cost = model.nnz() as f64;
        if let Some(old) = self.entries.insert(
            key,
            Entry {
                model,
                cost,
                last_used: self.tick,
            },
        ) {
            self.total_cost -= old.cost;
        }
        self.total_cost += cost;

        let mut evictions = 0;
        while self.total_cost > self.budget && self.entries.len() > 1 {
            let oldest = self
                .entries
                .iter()
                .filter(|(&k, _)| k != key)
                .min_by_key(|(_, entry)| entry.last_used)
                .map(|(&k, _)| k);
            match oldest {
                Some(victim) => {
                    let entry = self.entries.remove(&victim).expect("victim present");
                    self.total_cost -= entry.cost;
                    evictions += 1;
                }
                None => break,
            }
        }
        evictions
    }

    pub(crate) fn len(&self) -> usize {
        self.entries.len()
    }

    #[cfg(test)]
    pub(crate) fn total_cost(&self) -> f64 {
        self.total_cost
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use swact_circuit::parse::parse_bench;

    fn tiny_circuit(tag: &str) -> Circuit {
        let text = format!("INPUT(a)\nINPUT(b)\n{tag} = NAND(a, b)\nOUTPUT({tag})\n");
        parse_bench("tiny", &text).expect("parse tiny circuit")
    }

    fn compiled(circuit: &Circuit) -> Arc<CompiledEstimator> {
        Arc::new(CompiledEstimator::compile(circuit, &Options::default()).expect("compile"))
    }

    #[test]
    fn key_is_stable_and_structure_sensitive() {
        let c1 = tiny_circuit("y");
        let c2 = tiny_circuit("y");
        let c3 = tiny_circuit("z");
        let spec = InputSpec::uniform(c1.num_inputs());
        let options = Options::default();
        assert_eq!(
            model_key(&c1, &spec, &options),
            model_key(&c2, &spec, &options)
        );
        assert_ne!(
            model_key(&c1, &spec, &options),
            model_key(&c3, &spec, &options)
        );

        let other_options = Options {
            max_fanin: 2,
            ..Options::default()
        };
        assert_ne!(
            model_key(&c1, &spec, &options),
            model_key(&c1, &spec, &other_options)
        );

        let sparse_off = Options {
            sparse: swact::SparseMode::Off,
            ..Options::default()
        };
        assert_ne!(
            model_key(&c1, &spec, &options),
            model_key(&c1, &spec, &sparse_off)
        );

        // Same circuit and spec under a different backend must be a
        // different model — the cache may never mix backends.
        for backend in [
            swact::Backend::Bdd,
            swact::Backend::TwoState,
            swact::Backend::Sampling,
        ] {
            assert_ne!(
                model_key(&c1, &spec, &options),
                model_key(&c1, &spec, &Options::with_backend(backend))
            );
        }

        // The sampling seed and CI targets shape sampled posteriors, so
        // they must key the cache too — a warm entry under another seed
        // would silently serve a different random stream.
        let seeded = Options {
            seed: 7,
            ..Options::default()
        };
        assert_ne!(
            model_key(&c1, &spec, &options),
            model_key(&c1, &spec, &seeded)
        );
        let tighter = Options {
            ci_half_width: 0.001,
            ..Options::default()
        };
        assert_ne!(
            model_key(&c1, &spec, &options),
            model_key(&c1, &spec, &tighter)
        );

        // A budget-governed model must not alias the unlimited one.
        let budgeted = Options::with_resource_budget(swact::Budget::states(1e4));
        assert_ne!(
            model_key(&c1, &spec, &options),
            model_key(&c1, &spec, &budgeted)
        );
        let strict = Options {
            no_fallback: true,
            ..budgeted
        };
        assert_ne!(
            model_key(&c1, &spec, &budgeted),
            model_key(&c1, &spec, &strict)
        );
        let deadlined = Options {
            budget: swact::Budget::deadline(std::time::Duration::from_millis(50)),
            ..Options::default()
        };
        assert_ne!(
            model_key(&c1, &spec, &options),
            model_key(&c1, &spec, &deadlined)
        );

        // Each segmentation strategy is its own model: the cache may never
        // serve a topo-cover artifact to a balanced-cut request (or vice
        // versa) — their segments differ.
        assert_ne!(
            model_key(
                &c1,
                &spec,
                &Options::with_segmentation(swact::SegmentationStrategy::TopoCover)
            ),
            model_key(
                &c1,
                &spec,
                &Options::with_segmentation(swact::SegmentationStrategy::BalancedCut)
            ),
            "segmentation strategies must not share a cache entry"
        );
    }

    #[test]
    fn lru_evicts_by_nnz_budget() {
        let circuit = tiny_circuit("y");
        let model = compiled(&circuit);
        let cost = model.nnz() as f64;
        assert!(cost > 0.0);
        // Budget fits exactly two models of this size.
        let mut cache = ModelCache::new(2.0 * cost);

        cache.insert(1, Arc::clone(&model));
        cache.insert(2, Arc::clone(&model));
        assert_eq!(cache.len(), 2);

        // Touch key 1 so key 2 is the LRU victim.
        assert!(cache.get(1).is_some());
        let evicted = cache.insert(3, Arc::clone(&model));
        assert_eq!(evicted, 1);
        assert_eq!(cache.len(), 2);
        assert!(cache.get(2).is_none());
        assert!(cache.get(1).is_some());
        assert!(cache.get(3).is_some());
        assert!(cache.total_cost() <= 2.0 * cost + 1e-9);
    }

    #[test]
    fn oversized_model_still_cached() {
        let circuit = tiny_circuit("y");
        let model = compiled(&circuit);
        let mut cache = ModelCache::new(0.0);
        let evicted = cache.insert(7, Arc::clone(&model));
        assert_eq!(evicted, 0);
        assert!(cache.get(7).is_some());
    }
}
