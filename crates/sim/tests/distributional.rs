//! Distributional checks on the generated world: the configured shares and
//! shapes must actually materialize in the sampled population and traffic.

// Test harness: aborting on a broken fixture is the correct failure mode
// (clippy.toml's allow-*-in-tests covers `#[test]` fns but not helpers).
#![allow(clippy::unwrap_used, clippy::expect_used, clippy::panic)]

use std::collections::HashMap;

use topple_sim::client::day_factor_for;
use topple_sim::{
    BackgroundQuery, Browser, Category, Country, EventSink, HostKind, PageLoad, Platform,
    ThirdPartyFetch, TrafficScratch, World, WorldConfig,
};

fn world() -> World {
    World::generate(WorldConfig::medium(7777)).unwrap()
}

#[test]
fn client_countries_match_population_shares() {
    let w = world();
    let n = w.clients.len() as f64;
    let mut counts: HashMap<Country, usize> = HashMap::new();
    for c in &w.clients {
        *counts.entry(c.country).or_default() += 1;
    }
    for country in Country::ALL {
        let expected = country.population_share();
        let observed = *counts.get(&country).unwrap_or(&0) as f64 / n;
        // Binomial std-dev tolerance (4 sigma).
        let sigma = (expected * (1.0 - expected) / n).sqrt();
        assert!(
            (observed - expected).abs() < 4.0 * sigma + 0.005,
            "{country:?}: observed {observed:.4}, expected {expected:.4}"
        );
    }
}

#[test]
fn site_categories_match_universe_shares() {
    let w = world();
    let n = w.sites.len() as f64;
    let mut counts: HashMap<Category, usize> = HashMap::new();
    for s in &w.sites {
        *counts.entry(s.category).or_default() += 1;
    }
    for cat in Category::ALL {
        let expected = cat.universe_share();
        let observed = *counts.get(&cat).unwrap_or(&0) as f64 / n;
        let sigma = (expected * (1.0 - expected) / n).sqrt();
        assert!(
            (observed - expected).abs() < 4.0 * sigma + 0.004,
            "{cat:?}: observed {observed:.4}, expected {expected:.4}"
        );
    }
}

#[test]
fn traffic_follows_zipf_shape() {
    // Regress log(visits) on log(base rank) over the head of the catalogue;
    // the slope should approximate -zipf_exponent.
    let w = World::generate(WorldConfig {
        n_clients: 4_000,
        ..WorldConfig::small(7778)
    })
    .unwrap();
    let mut visits = vec![0u32; w.sites.len()];
    for d in 0..7 {
        let t = w.simulate_day(d);
        for pl in &t.page_loads {
            visits[pl.site.index()] += 1;
        }
    }
    // Sites are generated in base-rank order; average within log-spaced bins
    // to suppress per-site noise.
    let mut xs = Vec::new();
    let mut ys = Vec::new();
    let mut lo = 1usize;
    while lo < 1000.min(w.sites.len()) {
        let hi = (lo * 2).min(w.sites.len());
        let mean_v: f64 =
            visits[lo..hi].iter().map(|&v| f64::from(v)).sum::<f64>() / (hi - lo) as f64;
        if mean_v > 0.0 {
            xs.push(((lo + hi) as f64 / 2.0).ln());
            ys.push(mean_v.ln());
        }
        lo = hi;
    }
    let n = xs.len() as f64;
    let mx = xs.iter().sum::<f64>() / n;
    let my = ys.iter().sum::<f64>() / n;
    let slope: f64 = xs
        .iter()
        .zip(&ys)
        .map(|(x, y)| (x - mx) * (y - my))
        .sum::<f64>()
        / xs.iter().map(|x| (x - mx) * (x - mx)).sum::<f64>();
    let expected = -w.config.zipf_exponent;
    assert!(
        (slope - expected).abs() < 0.35,
        "traffic slope {slope:.2} should approximate {expected:.2}"
    );
}

#[test]
fn browser_platform_constraints_hold() {
    let w = world();
    for c in &w.clients {
        match c.platform {
            Platform::Ios => assert!(
                matches!(
                    c.browser,
                    Browser::Safari | Browser::Chrome | Browser::OtherBrowser
                ),
                "implausible iOS browser {:?}",
                c.browser
            ),
            Platform::Android => assert!(
                !matches!(
                    c.browser,
                    Browser::Safari | Browser::Edge | Browser::Automation
                ),
                "implausible Android browser {:?}",
                c.browser
            ),
            _ => {}
        }
    }
    // Chrome is the plurality browser overall.
    let chrome = w
        .clients
        .iter()
        .filter(|c| c.browser == Browser::Chrome)
        .count();
    assert!(
        chrome * 3 > w.clients.len(),
        "Chrome share too low: {chrome}/{}",
        w.clients.len()
    );
}

#[test]
fn mobile_shares_track_country_parameters() {
    let w = world();
    for country in [Country::India, Country::Germany] {
        let clients: Vec<_> = w.clients.iter().filter(|c| c.country == country).collect();
        if clients.len() < 100 {
            continue;
        }
        let mobile =
            clients.iter().filter(|c| c.platform.is_mobile()).count() as f64 / clients.len() as f64;
        let expected = country.mobile_share();
        assert!(
            (mobile - expected).abs() < 0.08,
            "{country:?}: mobile share {mobile:.2} vs configured {expected:.2}"
        );
    }
}

#[test]
fn weekday_total_volume_is_periodic() {
    let w = World::generate(WorldConfig {
        n_clients: 2_000,
        ..WorldConfig::small(7779)
    })
    .unwrap();
    // Enterprise clients drop off on weekends; totals should dip.
    let days: Vec<f64> = (0..14)
        .map(|d| w.simulate_day(d).page_loads.len() as f64)
        .collect();
    let weekend_days: Vec<usize> = w
        .config
        .days
        .iter()
        .take(14)
        .enumerate()
        .filter(|(_, d)| d.weekday().is_weekend())
        .map(|(i, _)| i)
        .collect();
    assert!(!weekend_days.is_empty());
    let weekend_mean: f64 =
        weekend_days.iter().map(|&i| days[i]).sum::<f64>() / weekend_days.len() as f64;
    let weekday_mean: f64 = days
        .iter()
        .enumerate()
        .filter(|(i, _)| !weekend_days.contains(i))
        .map(|(_, v)| v)
        .sum::<f64>()
        / (days.len() - weekend_days.len()) as f64;
    // Direction depends on the enterprise/consumer mix; just require a
    // measurable, consistent weekly signal.
    assert!(
        (weekend_mean - weekday_mean).abs() / weekday_mean > 0.005,
        "no weekly periodicity: weekday {weekday_mean:.0} vs weekend {weekend_mean:.0}"
    );
}

#[test]
fn certify_boosts_exist_but_are_rare_and_never_grey() {
    let w = world();
    let boosted: Vec<_> = w.sites.iter().filter(|s| s.certify_boost > 1.0).collect();
    assert!(!boosted.is_empty(), "no certified sites generated");
    assert!(
        boosted.len() < w.sites.len() / 10,
        "too many certified sites: {}",
        boosted.len()
    );
    for s in &boosted {
        assert!(
            !matches!(
                s.category,
                Category::Adult | Category::Abuse | Category::Parked
            ),
            "{:?} site should not be certified",
            s.category
        );
    }
}

/// An event count: observed total, expected total, and the variance of the
/// draws behind it.
type Tally = [f64; 3];

fn add(acc: &mut Tally, observed: f64, mean: f64, var: f64) {
    acc[0] += observed;
    acc[1] += mean;
    acc[2] += var;
}

/// Adds one Bernoulli(`p`) coin to `acc`.
fn coin(acc: &mut Tally, hit: bool, p: f64) {
    add(acc, f64::from(u8::from(hit)), p, p * (1.0 - p));
}

fn assert_within_6_sigma(label: &str, [observed, mean, var]: Tally) {
    assert!(
        (observed - mean).abs() <= 6.0 * var.sqrt(),
        "{label}: observed {observed}, expected {mean:.1} ± {:.1} at 6σ",
        6.0 * var.sqrt()
    );
}

/// One traffic window's event counts next to the model's expectation for
/// exactly the loads that happened.
#[derive(Default)]
struct ExpectationSink {
    /// Page loads per client index.
    per_client: Vec<u64>,
    loads: u64,
    completed: Tally,
    private_mode: Tally,
    root_path: Tally,
    /// Embed coins of completed loads against the fetches they produced.
    third_party: Tally,
    /// Same-site requests beyond the document: Poisson draws, so the mean
    /// is also the variance. The caps on the draw (2000, or 10 for
    /// incomplete loads) are far in the tails and are ignored.
    own_requests: Tally,
    background: Tally,
}

/// Pairs an [`ExpectationSink`] with the world it reads probabilities from.
struct Observer<'w> {
    world: &'w World,
    sink: ExpectationSink,
}

impl EventSink for Observer<'_> {
    fn page_load(&mut self, pl: &PageLoad) {
        let t = &mut self.sink;
        t.loads += 1;
        t.per_client[pl.client.index()] += 1;
        let site = &self.world.sites[pl.site.index()];
        coin(&mut t.completed, pl.completed, site.completion_rate);
        coin(&mut t.private_mode, pl.private_mode, site.private_share);
        // Only apex and `www` navigations can land on the root path.
        let root_host = matches!(
            site.hosts[usize::from(pl.host_idx)].kind,
            HostKind::Apex | HostKind::Www
        );
        let p_root = if root_host { site.root_nav_share } else { 0.0 };
        coin(&mut t.root_path, pl.is_root_path, p_root);
        let lambda = if pl.completed {
            site.subresource_mean
        } else {
            1.0
        };
        add(
            &mut t.own_requests,
            f64::from(pl.own_requests),
            lambda,
            lambda,
        );
        if pl.completed {
            for &(_, p) in &site.third_party {
                let p = f64::from(p);
                add(&mut t.third_party, 0.0, p, p * (1.0 - p));
            }
        }
    }
    fn third_party(&mut self, _tp: &ThirdPartyFetch) {
        self.sink.third_party[0] += 1.0;
    }
    fn background(&mut self, _bg: &BackgroundQuery) {
        self.sink.background[0] += 1.0;
    }
}

/// Streams the first week of `world`'s window into an [`ExpectationSink`].
fn first_week(world: &World) -> ExpectationSink {
    let mut observer = Observer {
        world,
        sink: ExpectationSink {
            per_client: vec![0; world.clients.len()],
            ..ExpectationSink::default()
        },
    };
    let mut scratch = TrafficScratch::for_world(world);
    for day in 0..7 {
        world.simulate_day_into(day, &mut scratch, &mut observer);
    }
    let mut sink = observer.sink;
    // Every client-day adds Poisson(2.5) background queries.
    let background = 2.5 * (world.clients.len() * 7) as f64;
    add(&mut sink.background, 0.0, background, background);
    sink
}

/// A client's weekly load count is a sum of daily Poisson draws with means
/// `activity × day_factor`, so it must sit within Poisson noise of their
/// sum for every client, and the aggregate within noise of the total.
#[test]
fn weekly_client_loads_match_activity_budget() {
    let w = World::generate(WorldConfig::small(4242)).unwrap();
    let sink = first_week(&w);
    let mut total = Tally::default();
    for (client, &n) in w.clients.iter().zip(&sink.per_client) {
        let lambda: f64 = w.config.days[..7]
            .iter()
            .map(|d| {
                f64::from(client.activity)
                    * day_factor_for(client.enterprise, d.weekday().is_weekend())
            })
            .sum();
        add(&mut total, n as f64, lambda, lambda);
        // 6σ plus slack for small means covers the 2000-client
        // multiplicity deterministically at this seed.
        assert!(
            (n as f64 - lambda).abs() <= 6.0 * lambda.sqrt() + 10.0,
            "client {:?}: {n} loads in the week, expected {lambda:.1}",
            client.id
        );
    }
    assert_within_6_sigma("weekly page loads", total);
}

/// Every per-load outcome is a draw whose parameters are attributes of the
/// site (and, for the root path, of the navigated host). Over the loads
/// that actually happened, the completed, private-mode and root-path counts
/// and the third-party, same-site request and background volumes must each
/// match the sum of those expectations within 6σ.
#[test]
fn load_outcomes_match_site_probabilities() {
    let w = World::generate(WorldConfig::small(4242)).unwrap();
    let sink = first_week(&w);
    assert!(sink.loads > 100_000, "a small week yields plenty of loads");
    for (label, tally) in [
        ("completed", sink.completed),
        ("private-mode", sink.private_mode),
        ("root-path", sink.root_path),
        ("third-party", sink.third_party),
        ("own requests", sink.own_requests),
        ("background", sink.background),
    ] {
        assert_within_6_sigma(label, tally);
    }
}
