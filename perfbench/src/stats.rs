//! Order statistics over timing samples.

/// The `q`-quantile (0..=1) of `samples` by linear interpolation between
/// closest ranks; `0.0` for an empty set.
pub fn quantile(samples: &[f64], q: f64) -> f64 {
    if samples.is_empty() {
        return 0.0;
    }
    let mut v = samples.to_vec();
    v.sort_by(f64::total_cmp);
    let pos = q.clamp(0.0, 1.0) * (v.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    v[lo] + (v[hi] - v[lo]) * (pos - lo as f64)
}

/// The median of `samples`.
pub fn median(samples: &[f64]) -> f64 {
    quantile(samples, 0.5)
}

/// One timed item of a pass: the work it did (transactions, traces,
/// builds or requests) and its wall time.
#[derive(Debug, Clone, Copy)]
pub struct Timed {
    /// Work done.
    pub work: f64,
    /// Wall time, seconds.
    pub secs: f64,
}

/// Work per second over `items`: their summed work over their summed
/// time.
pub fn rate<'a>(items: impl IntoIterator<Item = &'a Timed>) -> f64 {
    let (work, secs) = items
        .into_iter()
        .fold((0.0, 0.0), |(w, s), t| (w + t.work, s + t.secs));
    work / secs.max(1e-12)
}

/// Each item at its group's best time: the fastest time over the run of
/// any item with the same `shape` (the same work), with the item's own
/// work.
///
/// The host's speed changes by up to half for seconds at a time (on the
/// 2-vCPU container this benchmark was tuned on, one-second rounds of
/// identical work ran at about 0.7×, 1.0× and 1.4× of their median time
/// in stretches of one to fifteen rounds), and how much of a run each
/// state covers differs from run to run. Means, medians and low
/// quantiles over a run follow that share; the best time of like work
/// comes from the run's fastest stretch and repeats from run to run, as
/// long as every run has one. Every item keeps its place, so the mix of
/// work is the run's own, and a program change that slows every item
/// moves the best times alike.
pub fn best_times(items: &[Timed], shapes: &[u64]) -> Vec<Timed> {
    let mut best: std::collections::HashMap<u64, f64> = Default::default();
    for (t, &s) in items.iter().zip(shapes) {
        let b = best.entry(s).or_insert(f64::INFINITY);
        *b = b.min(t.secs);
    }
    items
        .iter()
        .zip(shapes)
        .map(|(t, s)| Timed {
            secs: best[s],
            ..*t
        })
        .collect()
}
