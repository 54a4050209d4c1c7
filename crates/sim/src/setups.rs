//! Storage-configuration builders for the paper's strategies
//! (Section VII-A):
//!
//! - **MIP**: pinned copies from the solver's placement plus a small
//!   complementary LRU cache,
//! - **Random + LRU / LFU**: one random copy per video, the rest of
//!   each disk used as cache,
//! - **Top-K + LRU**: the K most-requested videos replicated at every
//!   VHO, the rest placed randomly, remaining space as cache,
//! - **Origin servers + LRU** (Section VII-B, Table II): the network is
//!   partitioned into regions, each served by an origin holding the
//!   full library attached to one VHO; VHO disks are pure caches.

use crate::cache::CacheKind;
use crate::engine::VhoConfig;
use rand::Rng;
use vod_core::Placement;
use vod_model::rng::derive_rng;
use vod_model::{Catalog, Gigabytes, VhoId, VideoId};
use vod_net::PathSet;

/// MIP placement + complementary cache: each VHO pins its placement
/// copies and uses `cache_frac` of its disk as an LRU cache (the MIP
/// must have been solved with the remaining `1 − cache_frac` share —
/// Section VII-B reserves ~5 %).
pub fn mip_vho_configs(
    placement: &Placement,
    disks: &[Gigabytes],
    cache_frac: f64,
    kind: CacheKind,
) -> Vec<VhoConfig> {
    assert!((0.0..1.0).contains(&cache_frac));
    let n = disks.len();
    assert_eq!(placement.n_vhos(), n);
    let mut pinned: Vec<Vec<VideoId>> = vec![Vec::new(); n];
    for mi in 0..placement.n_videos() {
        let m = VideoId::from_index(mi);
        for &i in placement.stores(m) {
            pinned[i.index()].push(m);
        }
    }
    pinned
        .into_iter()
        .zip(disks)
        .map(|(p, d)| VhoConfig {
            pinned: p,
            cache: (cache_frac > 0.0).then(|| (kind, d.value() * cache_frac)),
        })
        .collect()
}

/// Place one copy of each video at a random VHO with remaining pinned
/// space (videos assigned largest-first so everything fits), then use
/// each VHO's leftover disk as a cache of the given kind.
///
/// `pin_budget_frac` bounds the pinned share of each disk (the
/// baselines need most of the disk as cache; one copy of the library
/// spread over all VHOs is small).
pub fn random_single_vho_configs(
    catalog: &Catalog,
    disks: &[Gigabytes],
    kind: CacheKind,
    seed: u64,
) -> Vec<VhoConfig> {
    let n = disks.len();
    let mut rng = derive_rng(seed, 0x5E70);
    let mut remaining: Vec<f64> = disks.iter().map(|d| d.value()).collect();
    let mut pinned: Vec<Vec<VideoId>> = vec![Vec::new(); n];

    // Largest videos first so the random fit cannot strand capacity.
    let mut order: Vec<&vod_model::Video> = catalog.iter().collect();
    order.sort_by(|a, b| {
        b.size()
            .value()
            .total_cmp(&a.size().value())
            .then(a.id.cmp(&b.id))
    });
    for v in order {
        let size = v.size().value();
        let fitting: Vec<usize> = (0..n).filter(|&i| remaining[i] >= size).collect();
        assert!(
            !fitting.is_empty(),
            "disks too small to hold one copy of {}",
            v.id
        );
        let pick = fitting[rng.gen_range(0..fitting.len())];
        remaining[pick] -= size;
        pinned[pick].push(v.id);
    }
    pinned
        .into_iter()
        .zip(&remaining)
        .map(|(mut p, &rem)| {
            p.sort();
            VhoConfig {
                pinned: p,
                cache: (rem > 0.0).then_some((kind, rem)),
            }
        })
        .collect()
}

/// Top-K + LRU (the simplified Valancius-style baseline): the `k`
/// most-requested videos (per `ranked`, most popular first) are pinned
/// at *every* VHO; every other video gets one random copy; leftover
/// space is an LRU cache.
pub fn top_k_vho_configs(
    catalog: &Catalog,
    ranked: &[VideoId],
    k: usize,
    disks: &[Gigabytes],
    seed: u64,
) -> Vec<VhoConfig> {
    let n = disks.len();
    let top: Vec<VideoId> = ranked.iter().take(k).copied().collect();
    let top_size: f64 = top.iter().map(|&m| catalog.video(m).size().value()).sum();
    let mut remaining: Vec<f64> = disks
        .iter()
        .map(|d| {
            let rem = d.value() - top_size;
            assert!(rem >= 0.0, "top-{k} videos do not fit in a VHO disk");
            rem
        })
        .collect();
    let mut pinned: Vec<Vec<VideoId>> = vec![top.clone(); n];

    let in_top: std::collections::BTreeSet<VideoId> = top.iter().copied().collect();
    let mut rng = derive_rng(seed, 0x70BC);
    let mut order: Vec<&vod_model::Video> =
        catalog.iter().filter(|v| !in_top.contains(&v.id)).collect();
    order.sort_by(|a, b| {
        b.size()
            .value()
            .total_cmp(&a.size().value())
            .then(a.id.cmp(&b.id))
    });
    for v in order {
        let size = v.size().value();
        let fitting: Vec<usize> = (0..n).filter(|&i| remaining[i] >= size).collect();
        assert!(!fitting.is_empty(), "no space left for {}", v.id);
        let pick = fitting[rng.gen_range(0..fitting.len())];
        remaining[pick] -= size;
        pinned[pick].push(v.id);
    }
    pinned
        .into_iter()
        .zip(&remaining)
        .map(|(mut p, &rem)| {
            p.sort();
            p.dedup();
            VhoConfig {
                pinned: p,
                cache: (rem > 0.0).then_some((CacheKind::Lru, rem)),
            }
        })
        .collect()
}

/// Origin-server setup (Table II): `n_regions` origin servers, each
/// holding the entire library, attached to spread-out VHOs chosen by
/// farthest-point traversal (the paper partitions the network into four
/// regions); every VHO's own disk is purely a cache. The origins'
/// library storage is *extra* capacity, exactly as the paper grants the
/// caching side ("we did not account for this extra storage").
#[expect(
    clippy::disallowed_methods,
    reason = "the traversal walks the dense 0..n VHO id space, seeded at VHO 0"
)]
pub fn origin_vho_configs(
    catalog: &Catalog,
    paths: &PathSet,
    disks: &[Gigabytes],
    n_regions: usize,
    kind: CacheKind,
) -> Vec<VhoConfig> {
    let n = disks.len();
    assert!(n_regions >= 1 && n_regions <= n);
    // Farthest-point traversal from VHO 0 picks well-separated attach
    // points, one per region.
    let mut attach: Vec<VhoId> = vec![VhoId::new(0)];
    while attach.len() < n_regions {
        let next = (0..n)
            .map(VhoId::from_index)
            .filter(|v| !attach.contains(v))
            .max_by_key(|&v| {
                (
                    attach.iter().map(|&a| paths.hops(a, v)).min().unwrap_or(0),
                    std::cmp::Reverse(v),
                )
            })
            .expect("fewer regions than VHOs");
        attach.push(next);
    }
    let full: Vec<VideoId> = catalog.ids().collect();
    (0..n)
        .map(|i| {
            let v = VhoId::from_index(i);
            if attach.contains(&v) {
                VhoConfig {
                    pinned: full.clone(),
                    cache: Some((kind, disks[i].value())),
                }
            } else {
                VhoConfig {
                    pinned: Vec::new(),
                    cache: Some((kind, disks[i].value())),
                }
            }
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use vod_model::{Video, VideoClass, VideoKind};
    use vod_net::topologies;

    fn catalog(n: u32) -> Catalog {
        Catalog::new(
            (0..n)
                .map(|i| Video {
                    id: VideoId::new(i),
                    class: if i % 2 == 0 {
                        VideoClass::Show
                    } else {
                        VideoClass::Movie
                    },
                    kind: VideoKind::Catalog,
                    release_day: 0,
                    weight: 1.0 / (i + 1) as f64,
                })
                .collect(),
        )
    }

    #[test]
    fn random_single_covers_catalog_within_disks() {
        let cat = catalog(40);
        let disks = vec![Gigabytes::new(30.0); 4];
        let vhos = random_single_vho_configs(&cat, &disks, CacheKind::Lru, 3);
        let total: usize = vhos.iter().map(|v| v.pinned.len()).sum();
        assert_eq!(total, 40);
        for (vc, d) in vhos.iter().zip(&disks) {
            let used: f64 = vc.pinned.iter().map(|&m| cat.video(m).size().value()).sum();
            let cache_gb = vc.cache.map(|(_, g)| g).unwrap_or(0.0);
            assert!(used + cache_gb <= d.value() + 1e-9);
            assert!(
                (used + cache_gb - d.value()).abs() < 1e-9,
                "disk fully used"
            );
        }
    }

    #[test]
    fn random_single_deterministic() {
        let cat = catalog(20);
        let disks = vec![Gigabytes::new(30.0); 3];
        let a = random_single_vho_configs(&cat, &disks, CacheKind::Lfu, 9);
        let b = random_single_vho_configs(&cat, &disks, CacheKind::Lfu, 9);
        for (x, y) in a.iter().zip(&b) {
            assert_eq!(x.pinned, y.pinned);
        }
    }

    #[test]
    fn top_k_replicated_everywhere() {
        let cat = catalog(30);
        let ranked: Vec<VideoId> = cat.ids().collect(); // weight-ordered already
        let disks = vec![Gigabytes::new(40.0); 3];
        let vhos = top_k_vho_configs(&cat, &ranked, 5, &disks, 4);
        for vc in &vhos {
            for m in ranked.iter().take(5) {
                assert!(vc.pinned.contains(m), "top video missing");
            }
        }
        // Non-top videos placed exactly once.
        for m in ranked.iter().skip(5) {
            let copies = vhos.iter().filter(|vc| vc.pinned.contains(m)).count();
            assert_eq!(copies, 1, "video {m}");
        }
    }

    #[test]
    fn origin_setup_spreads_attach_points() {
        let net = topologies::line(6);
        let paths = vod_net::PathSet::shortest_paths(&net);
        let cat = catalog(10);
        let disks = vec![Gigabytes::new(5.0); 6];
        let vhos = origin_vho_configs(&cat, &paths, &disks, 2, CacheKind::Lru);
        let origins: Vec<usize> = vhos
            .iter()
            .enumerate()
            .filter(|(_, vc)| !vc.pinned.is_empty())
            .map(|(i, _)| i)
            .collect();
        assert_eq!(origins.len(), 2);
        // Farthest-point on a line from node 0 → the other end.
        assert_eq!(origins, vec![0, 5]);
        assert!(vhos[0].pinned.len() == 10);
        // Non-origin VHOs are pure caches.
        assert!(vhos[2].pinned.is_empty());
        assert!(vhos[2].cache.is_some());
    }

    #[test]
    fn mip_configs_reflect_placement() {
        let placement = Placement::from_stores(
            3,
            vec![vec![VhoId::new(0), VhoId::new(2)], vec![VhoId::new(1)]],
        );
        let disks = vec![Gigabytes::new(10.0); 3];
        let vhos = mip_vho_configs(&placement, &disks, 0.05, CacheKind::Lru);
        assert_eq!(vhos[0].pinned, vec![VideoId::new(0)]);
        assert_eq!(vhos[1].pinned, vec![VideoId::new(1)]);
        assert_eq!(vhos[2].pinned, vec![VideoId::new(0)]);
        assert_eq!(vhos[0].cache, Some((CacheKind::Lru, 0.5)));
        let none = mip_vho_configs(&placement, &disks, 0.0, CacheKind::Lru);
        assert!(none[0].cache.is_none());
    }

    #[test]
    #[should_panic(expected = "do not fit")]
    fn top_k_too_large_for_disk() {
        let cat = catalog(30);
        let ranked: Vec<VideoId> = cat.ids().collect();
        let disks = vec![Gigabytes::new(3.0); 3];
        let _ = top_k_vho_configs(&cat, &ranked, 10, &disks, 4);
    }
}
