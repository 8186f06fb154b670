//! MnemoT's density rule, once (§IV: keys are knapsack items, sizes
//! their weights, FastMem the knapsack). [`rank`] is the integer sort key
//! of a density, [`order`] ranks items by `value / max(bytes, 1)`,
//! densest first, and [`fill`] fills a byte budget in that order,
//! skipping what does not fit. Ties break by a caller's key, then by
//! position, so every order is total: it is the order a stable
//! comparator sort gives, whatever the sort algorithm.

/// The sort key of one density: ascending keys are descending
/// densities. The bits of a non-negative, non-NaN f64 other than `-0.0`
/// order like `total_cmp` and the complement reverses them; outside that
/// domain they do not, so `density` must be a count or a positive value,
/// or one over a size.
pub fn rank(density: f64) -> u64 {
    debug_assert!(
        density >= 0.0 && density.is_sign_positive(),
        "density {density} is outside the ranked domain"
    );
    !density.to_bits()
}

fn density(value: f64, bytes: u64) -> f64 {
    value / bytes.max(1) as f64
}

/// The positions of `items`, each `(value, bytes, tie)`, ranked by
/// descending `value / max(bytes, 1)`, then ascending `tie`, then
/// position. Each density is computed once.
pub fn order(
    items: impl IntoIterator<Item = (f64, u64, u64)>,
) -> impl ExactSizeIterator<Item = usize> {
    let mut ranked: Vec<(u64, u64, usize)> = items
        .into_iter()
        .enumerate()
        .map(|(pos, (value, bytes, tie))| (rank(density(value, bytes)), tie, pos))
        .collect();
    ranked.sort_unstable();
    ranked.into_iter().map(|(_, _, pos)| pos)
}

/// Classes a group's scan keeps open for matching: the approximate
/// tail of a streamed profile has counts that decay with rank but round
/// unevenly, so neighbouring counts interleave (3, 2, 3, 2, ...).
const OPEN_CLASSES: usize = 4;

/// What [`fill`] grants one group.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Grant {
    /// The granted positions, in grant order.
    pub positions: Vec<u64>,
    /// Their bytes.
    pub bytes: u64,
    /// Their values, added in grant order to 0.
    pub value: f64,
}

/// Fill `budget` bytes with items in density order, across groups.
///
/// `groups` yields each group's items in position order:
/// `Some((value, bytes))` for a candidate, `None` for an item the
/// caller leaves out. Candidates are granted by descending
/// `value / max(bytes, 1)`, ties broken by group, then position, while
/// they fit; one that does not fit is skipped, and later ones may still
/// fit. A zero-byte candidate always fits. The result holds one
/// [`Grant`] per group.
///
/// The fill goes by class, not by item. A class holds candidates of one
/// group with bitwise-equal values and equal sizes, hence one density;
/// a candidate joins a class only if one of the group's `OPEN_CLASSES`
/// most recently opened classes matches, so a value can also open
/// several classes. Classes are sorted by `(density, group, first
/// position)`. A class alone on its `(density, group)` is filled whole:
/// every member costs the same, so the per-item fill takes its lowest
/// `min(len, room / bytes)` members and skips the rest, one division,
/// and adds its value once per member, keeping the per-item sum's bits.
/// Classes that tie on `(density, group)` (a split class, or unequal
/// sizes dividing to one density) are filled item by item in position
/// order.
///
/// `groups` is walked twice: first for its groups' lengths, which size
/// the one link table, then for the items.
pub fn fill<G>(groups: G, budget: u64) -> Vec<Grant>
where
    G: IntoIterator + Clone,
    G::Item: IntoIterator<Item = Option<(f64, u64)>, IntoIter: ExactSizeIterator>,
{
    struct Class {
        /// Sort key; classes of one group never share a first
        /// position, so the order is total and an unstable sort yields
        /// it.
        rank: (u64, usize, u64),
        /// The group's first slot in `next`.
        base: usize,
        /// Slot of the lowest member not yet visited by the fill.
        head: usize,
        /// Slot of the highest member, where the next one links on.
        tail: usize,
        /// Members not yet visited.
        len: u64,
        bytes: u64,
        value: f64,
    }
    // One slot per item of every group; a class's members link upward
    // through it.
    let (mut slots, mut group_count) = (0, 0);
    for items in groups.clone() {
        slots += items.into_iter().len();
        group_count += 1;
    }
    let mut next = vec![0usize; slots];
    let mut classes: Vec<Class> = Vec::new();
    let mut base = 0;
    for (group, items) in groups.into_iter().enumerate() {
        let items = items.into_iter();
        let len = items.len();
        // Indices into `classes`, most recently opened first.
        let mut open = [usize::MAX; OPEN_CLASSES];
        for (pos, item) in (0u64..).zip(items) {
            let Some((value, bytes)) = item else {
                continue;
            };
            let slot = base + pos as usize;
            let member = open.iter().find(|&&c| {
                classes
                    .get(c)
                    .is_some_and(|c| c.bytes == bytes && c.value.to_bits() == value.to_bits())
            });
            match member {
                Some(&c) => {
                    let class = &mut classes[c];
                    next[class.tail] = slot;
                    class.tail = slot;
                    class.len += 1;
                }
                None => {
                    open.rotate_right(1);
                    open[0] = classes.len();
                    classes.push(Class {
                        rank: (rank(density(value, bytes)), group, pos),
                        base,
                        head: slot,
                        tail: slot,
                        len: 1,
                        bytes,
                        value,
                    });
                }
            }
        }
        base += len;
    }
    classes.sort_unstable_by_key(|c| c.rank);

    let mut used = 0u64;
    let mut grants = vec![Grant::default(); group_count];
    let mut rest = classes.as_mut_slice();
    while let Some(first) = rest.first() {
        let (density, group, _) = first.rank;
        let tied = rest
            .iter()
            .position(|c| (c.rank.0, c.rank.1) != (density, group))
            .unwrap_or(rest.len());
        let (tie, after) = rest.split_at_mut(tied);
        rest = after;
        let grant = &mut grants[group];
        if let [class] = tie {
            let n = match class.bytes {
                0 => class.len,
                bytes => class.len.min((budget - used) / bytes),
            };
            used += n * class.bytes;
            grant.bytes += n * class.bytes;
            grant.positions.reserve(n as usize);
            let mut slot = class.head;
            for _ in 0..n {
                grant.positions.push((slot - class.base) as u64);
                grant.value += class.value;
                slot = next[slot];
            }
            continue;
        }
        // Position order across the tied classes: always visit the
        // lowest head.
        while let Some(class) = tie.iter_mut().filter(|c| c.len > 0).min_by_key(|c| c.head) {
            if class.bytes <= budget - used {
                used += class.bytes;
                grant.bytes += class.bytes;
                grant.positions.push((class.head - class.base) as u64);
                grant.value += class.value;
            }
            class.len -= 1;
            class.head = next[class.head];
        }
    }
    grants
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    /// The comparator sort the ranked order replaces: two divisions per
    /// compare, `total_cmp` on the densities, then the tie key, stable.
    fn reference_order(items: &[(f64, u64, u64)]) -> Vec<usize> {
        let mut order: Vec<usize> = (0..items.len()).collect();
        order.sort_by(|&a, &b| {
            let (va, ba, ta) = items[a];
            let (vb, bb, tb) = items[b];
            let da = va / ba.max(1) as f64;
            let db = vb / bb.max(1) as f64;
            db.total_cmp(&da).then(ta.cmp(&tb))
        });
        order
    }

    /// The skip fill as first written: candidates in comparator order,
    /// each taken if it still fits.
    fn reference_fill(items: &[Option<(f64, u64)>], budget: u64) -> Grant {
        let candidates: Vec<(f64, u64, u64)> = items
            .iter()
            .zip(0u64..)
            .filter_map(|(item, pos)| item.map(|(value, bytes)| (value, bytes, pos)))
            .collect();
        let mut grant = Grant::default();
        for i in reference_order(&candidates) {
            let (value, bytes, pos) = candidates[i];
            if grant.bytes + bytes <= budget {
                grant.positions.push(pos);
                grant.bytes += bytes;
                grant.value += value;
            }
        }
        grant
    }

    proptest! {
        #![proptest_config(ProptestConfig { cases: 512, ..ProptestConfig::default() })]

        /// Counts as values, as every ranked caller sends them. Small
        /// ranges make equal densities common; zero values and zero
        /// sizes occur; sizes step by 100, as the Pattern Engine's do;
        /// and tie keys repeat and differ from positions, as the keys of
        /// a filtered key set do.
        #[test]
        fn order_matches_the_comparator_sort(
            items in proptest::collection::vec((0u64..7, 0u64..6, 0u64..8), 0..80),
            hundreds in proptest::bool::ANY,
        ) {
            let items: Vec<(f64, u64, u64)> = items
                .into_iter()
                .map(|(value, bytes, tie)| {
                    (value as f64, if hundreds { bytes * 100 } else { bytes }, tie)
                })
                .collect();
            prop_assert_eq!(order(items.iter().copied()).collect::<Vec<_>>(), reference_order(&items));
        }

        /// One group, as the knapsack greedy and MnemoT's capacity fill
        /// send it: zero values, zero sizes and left-out items occur,
        /// runs of one item fill whole classes, and 1 over 1 byte ties
        /// 3 over 3 bytes.
        #[test]
        fn one_group_fill_matches_the_comparator_fill(
            runs in proptest::collection::vec((0usize..6, 0usize..5, 0.001f64..50.0, 1usize..20), 0..12),
            budget_frac in 0.0f64..1.2,
        ) {
            // Values 0, 1, 2, 3 or the drawn float; index 5 leaves the
            // run out.
            let items: Vec<Option<(f64, u64)>> = runs
                .into_iter()
                .flat_map(|(value, bytes, float, len)| {
                    let value = [0.0, 1.0, 2.0, 3.0, float].get(value).copied();
                    std::iter::repeat_n(value.map(|v| (v, [0, 1, 3, 64, 192][bytes])), len)
                })
                .collect();
            let total: u64 = items.iter().flatten().map(|&(_, bytes)| bytes).sum();
            let budget = (total as f64 * budget_frac) as u64;
            prop_assert_eq!(
                fill([items.iter().copied()], budget),
                vec![reference_fill(&items, budget)]
            );
        }
    }
}
