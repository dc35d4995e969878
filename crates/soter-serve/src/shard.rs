//! Shard planning: splitting a scenario × seed matrix into per-process
//! shards, and the [`CampaignRequest`] that names such a matrix.
//!
//! A request carries catalog scenario *names* (not scenario values): the
//! coordinator resolves them by reference through
//! [`soter_scenarios::catalog::job`] and every worker by value through
//! [`soter_scenarios::catalog::find`], both over the same registry, so job
//! expansion is identical on both sides of the process boundary and a
//! record can be merged purely by its matrix index.

use crate::error::ServeError;
use soter_scenarios::campaign::Campaign;
use soter_scenarios::catalog::{self, CatalogJob};

/// The most jobs one [`CampaignRequest`] may expand to.  Fixed, not
/// configurable: it only has to keep one request line from asking the
/// daemon for an allocation it cannot make.
pub const MAX_JOBS: usize = 100_000;

/// A sharded-campaign request: catalog scenario names fanned out across a
/// seed list, split into `shards` worker processes.
///
/// Job expansion follows [`Campaign::jobs`] exactly: scenario-major, then
/// seed, with an empty seed list restoring each scenario's built-in seed —
/// so the merged report of a sharded run is comparable index-for-index
/// with the in-process campaign over the same request.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CampaignRequest {
    /// Catalog scenario names (see `soter_scenarios::catalog::registry`).
    pub scenarios: Vec<String>,
    /// Seeds fanned out over every scenario (empty = built-in seeds).
    pub seeds: Vec<u64>,
    /// Number of worker processes to split the matrix across (clamped to
    /// `1..=jobs` at planning time).
    pub shards: usize,
}

impl CampaignRequest {
    /// A request over the given catalog names with one shard.
    pub fn new(scenarios: impl IntoIterator<Item = impl Into<String>>) -> Self {
        CampaignRequest {
            scenarios: scenarios.into_iter().map(Into::into).collect(),
            seeds: Vec::new(),
            shards: 1,
        }
    }

    /// Fans every scenario out across the given seeds.
    pub fn with_seeds(mut self, seeds: impl Into<Vec<u64>>) -> Self {
        self.seeds = seeds.into();
        self
    }

    /// Sets the shard count.
    pub fn with_shards(mut self, shards: usize) -> Self {
        self.shards = shards;
        self
    }

    /// Resolves every scenario name through the catalog and expands the
    /// full job list in deterministic matrix order, by reference: each job
    /// borrows its registry entry, and a job at the entry's pinned seed
    /// reuses the entry's memoized fingerprint.  Only a `seeds=` override
    /// fingerprints the re-seeded entry, once per job.
    ///
    /// A request is untrusted input: a matrix above [`MAX_JOBS`] is
    /// refused before anything is resolved or allocated for it.
    pub fn resolve_jobs(&self) -> Result<Vec<CatalogJob>, ServeError> {
        let (scenarios, seeds) = (self.scenarios.len(), self.seeds.len());
        let count = scenarios
            .checked_mul(seeds.max(1))
            .filter(|&count| count <= MAX_JOBS)
            .ok_or_else(|| {
                ServeError::Request(format!(
                    "{scenarios} scenarios x {seeds} seeds exceeds the {MAX_JOBS}-job bound"
                ))
            })?;
        let resolved = self
            .scenarios
            .iter()
            .map(|name| catalog::job(name).ok_or_else(|| ServeError::UnknownScenario(name.clone())))
            .collect::<Result<Vec<_>, _>>()?;
        if self.seeds.is_empty() {
            return Ok(resolved);
        }
        let mut jobs = Vec::with_capacity(count);
        for job in resolved {
            jobs.extend(self.seeds.iter().map(|&seed| job.with_seed(seed)));
        }
        Ok(jobs)
    }

    /// The equivalent in-process campaign (what
    /// [`ShardCoordinator::run`](crate::coordinator::ShardCoordinator) must
    /// reproduce byte-for-byte).
    pub fn in_process_campaign(&self) -> Result<Campaign, ServeError> {
        let scenarios = self
            .scenarios
            .iter()
            .map(|name| {
                catalog::find(name).ok_or_else(|| ServeError::UnknownScenario(name.clone()))
            })
            .collect::<Result<Vec<_>, _>>()?;
        Ok(Campaign::new(scenarios).with_seeds(self.seeds.clone()))
    }
}

/// The shard plan: matrix indices dealt into balanced contiguous chunks,
/// one chunk per worker process.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ShardPlan {
    /// Ascending matrix indices per shard; no shard is empty, and every
    /// index `0..jobs` appears in exactly one shard.
    pub shards: Vec<Vec<usize>>,
}

/// Splits `jobs` matrix indices into at most `shards` balanced contiguous
/// chunks (sizes differ by at most one; empty chunks are dropped, so the
/// plan never spawns an idle worker).
pub fn plan_shards(jobs: usize, shards: usize) -> ShardPlan {
    let indices: Vec<usize> = (0..jobs).collect();
    plan_shards_over(&indices, shards)
}

/// [`plan_shards`] over an explicit index list: used when a result cache
/// has already answered part of the matrix and only the misses need
/// worker processes.  The same balancing rules apply; index order within
/// a shard follows the input order.
pub fn plan_shards_over(indices: &[usize], shards: usize) -> ShardPlan {
    if indices.is_empty() {
        return ShardPlan { shards: Vec::new() };
    }
    let shards = shards.clamp(1, indices.len());
    let base = indices.len() / shards;
    let extra = indices.len() % shards;
    let mut plan = Vec::with_capacity(shards);
    let mut next = 0;
    for shard in 0..shards {
        let len = base + usize::from(shard < extra);
        plan.push(indices[next..next + len].to_vec());
        next += len;
    }
    ShardPlan { shards: plan }
}

#[cfg(test)]
mod tests {
    use super::*;
    use soter_scenarios::scenario_fingerprint;

    #[test]
    fn plans_cover_every_index_exactly_once_and_stay_balanced() {
        for jobs in [1usize, 2, 7, 24, 100] {
            for shards in [1usize, 2, 3, 4, 8, 200] {
                let plan = plan_shards(jobs, shards);
                let mut seen: Vec<usize> = plan.shards.iter().flatten().copied().collect();
                seen.sort_unstable();
                assert_eq!(seen, (0..jobs).collect::<Vec<_>>(), "{jobs}/{shards}");
                assert!(plan.shards.iter().all(|s| !s.is_empty()));
                let min = plan.shards.iter().map(Vec::len).min().unwrap();
                let max = plan.shards.iter().map(Vec::len).max().unwrap();
                assert!(max - min <= 1, "unbalanced plan for {jobs}/{shards}");
                assert!(plan.shards.len() <= shards.max(1));
            }
        }
        assert!(plan_shards(0, 4).shards.is_empty());
    }

    #[test]
    fn plans_over_sparse_indices_preserve_order_and_balance() {
        let indices = [3usize, 5, 8, 13, 21];
        let plan = plan_shards_over(&indices, 2);
        assert_eq!(plan.shards, vec![vec![3, 5, 8], vec![13, 21]]);
        assert!(plan_shards_over(&[], 4).shards.is_empty());
        assert_eq!(plan_shards_over(&[7], 3).shards, vec![vec![7]]);
    }

    #[test]
    fn request_job_expansion_matches_the_in_process_campaign() {
        let request = CampaignRequest::new(["serve-smoke", "planner-rta"])
            .with_seeds([5, 6, 7])
            .with_shards(2);
        let jobs = request.resolve_jobs().unwrap();
        assert_eq!(jobs.len(), 6);
        let scenarios = request.in_process_campaign().unwrap().jobs();
        assert_eq!(scenarios.len(), jobs.len());
        for (job, scenario) in jobs.iter().zip(&scenarios) {
            assert_eq!(
                (job.name(), job.seed()),
                (scenario.name.as_str(), scenario.seed)
            );
            assert_eq!(job.fingerprint(), scenario_fingerprint(scenario));
        }
        assert_eq!(jobs[0].name(), "serve-smoke");
        assert_eq!(jobs[0].seed(), 5);
        assert_eq!(jobs[3].name(), "planner-rta");
        assert_eq!(jobs[3].seed(), 5);
    }

    #[test]
    fn unknown_scenarios_are_rejected_by_name() {
        let request = CampaignRequest::new(["no-such-scenario"]);
        assert!(matches!(
            request.resolve_jobs(),
            Err(ServeError::UnknownScenario(name)) if name == "no-such-scenario"
        ));
    }
}
