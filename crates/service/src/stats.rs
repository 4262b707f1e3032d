//! Aggregate service statistics: the versioned [`StatsV2`] shape the
//! manager maintains, the `metrics` wire response exposes as its `stats`
//! group, and the persisted metadata record carries.

/// Session lifecycle counters.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SessionCounters {
    /// Sessions ever created.
    pub created: u64,
    /// Sessions closed (finished and forgotten).
    pub closed: u64,
    /// Sessions currently live (browser + synthesizer in memory). A
    /// point-in-time gauge, filled in when a snapshot is taken.
    pub live: u64,
    /// Sessions currently evicted to snapshots. A point-in-time gauge,
    /// filled in when a snapshot is taken.
    pub evicted: u64,
}

/// Event dispatch counters.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct EventCounters {
    /// Events dispatched successfully.
    pub ok: u64,
    /// Events rejected with a typed error.
    pub rejected: u64,
}

/// Residency churn counters (the LRU eviction machinery).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ResidencyCounters {
    /// Live→snapshot evictions performed.
    pub evictions: u64,
    /// Snapshot→live restorations performed.
    pub restores: u64,
}

/// Versioned, grouped service statistics — the `stats` group of the
/// `metrics` wire response and the manager's internal accounting.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct StatsV2 {
    /// Session lifecycle counters.
    pub sessions: SessionCounters,
    /// Event dispatch counters.
    pub events: EventCounters,
    /// Residency churn counters.
    pub residency: ResidencyCounters,
}

impl StatsV2 {
    /// Field-wise sum — how a sharded front end aggregates its shards'
    /// counters into one service-wide view. Every field is a disjoint
    /// per-shard count, so addition is exact.
    pub fn absorb(&mut self, other: &StatsV2) {
        self.sessions.created += other.sessions.created;
        self.sessions.closed += other.sessions.closed;
        self.sessions.live += other.sessions.live;
        self.sessions.evicted += other.sessions.evicted;
        self.events.ok += other.events.ok;
        self.events.rejected += other.events.rejected;
        self.residency.evictions += other.residency.evictions;
        self.residency.restores += other.residency.restores;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A sample with every counter distinct, scaled by `k`.
    fn sample(k: u64) -> StatsV2 {
        StatsV2 {
            sessions: SessionCounters {
                created: 5 * k,
                closed: 2 * k,
                live: 7 * k,
                evicted: k,
            },
            events: EventCounters {
                ok: 40 * k,
                rejected: 3 * k,
            },
            residency: ResidencyCounters {
                evictions: 4 * k,
                restores: 6 * k,
            },
        }
    }

    #[test]
    fn absorb_sums_every_field() {
        let mut total = sample(1);
        total.absorb(&sample(2));
        assert_eq!(total, sample(3));
    }
}
