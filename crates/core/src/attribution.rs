//! Bias-mechanism attribution (extension; paper §7).
//!
//! The paper closes with "we find that there are biases in top lists, but we
//! do not answer conclusively why these biases arise". A simulator can: turn
//! each modelled mechanism off, re-run the world, and measure how much of a
//! list's inaccuracy that mechanism explains. This is the counterfactual
//! experiment the real study could never run.

use topple_lists::ListSource;
use topple_sim::{Mechanisms, WorldConfig};

use crate::error::CoreError;
use crate::listeval;
use crate::study::Study;

/// One counterfactual scenario's outcome.
#[derive(Debug, Clone)]
pub struct AttributionRow {
    /// Scenario label ("baseline", "no certify", …).
    pub scenario: &'static str,
    /// Mean Figure-2 Jaccard of the Alexa list across the seven metrics.
    pub alexa_ji: f64,
    /// Mean Jaccard of the Umbrella list.
    pub umbrella_ji: f64,
    /// Mean Jaccard of the CrUX list.
    pub crux_ji: f64,
}

fn mean_ji(ev: &listeval::ListEvaluation, src: ListSource) -> Result<f64, CoreError> {
    let i = ev
        .lists
        .iter()
        .position(|&x| x == src)
        .ok_or(CoreError::MissingList(src))?;
    Ok(ev.jaccard[i].iter().sum::<f64>() / ev.jaccard[i].len() as f64)
}

/// Runs the attribution study: the baseline world plus one world per
/// disabled mechanism, evaluated at the scaled top-"100K" magnitude.
///
/// `base` supplies seed and scale; each scenario re-runs the full pipeline,
/// so prefer small configurations.
pub fn mechanism_attribution(base: WorldConfig) -> Result<Vec<AttributionRow>, CoreError> {
    let scenarios: [(&'static str, Mechanisms); 5] = [
        ("baseline (all mechanisms on)", Mechanisms::default()),
        (
            "no Certify inflation",
            Mechanisms {
                certify: false,
                ..Mechanisms::default()
            },
        ),
        (
            "no private browsing",
            Mechanisms {
                private_browsing: false,
                ..Mechanisms::default()
            },
        ),
        (
            "no panel demographic aversion",
            Mechanisms {
                panel_aversion: false,
                ..Mechanisms::default()
            },
        ),
        (
            "no DNS TTL distortion",
            Mechanisms {
                dns_ttl_distortion: false,
                ..Mechanisms::default()
            },
        ),
    ];
    scenarios
        .into_iter()
        .map(|(scenario, mechanisms)| {
            let config = WorldConfig {
                mechanisms,
                ..base.clone()
            };
            let study = Study::run(config)?;
            let mags = study.magnitudes();
            let k = mags[mags.len().saturating_sub(2)].1;
            let ev = listeval::figure2(&study, k);
            Ok(AttributionRow {
                scenario,
                alexa_ji: mean_ji(&ev, ListSource::Alexa)?,
                umbrella_ji: mean_ji(&ev, ListSource::Umbrella)?,
                crux_ji: mean_ji(&ev, ListSource::Crux)?,
            })
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabling_mechanisms_improves_the_affected_list() {
        let rows = mechanism_attribution(WorldConfig::tiny(701)).unwrap();
        assert_eq!(rows.len(), 5);
        let baseline = &rows[0];
        let no_certify = &rows[1];
        // Without Certify inflation the Alexa list can only get better (or
        // stay put within noise).
        assert!(
            no_certify.alexa_ji >= baseline.alexa_ji - 0.03,
            "removing Certify must not hurt Alexa: {:.3} vs baseline {:.3}",
            no_certify.alexa_ji,
            baseline.alexa_ji
        );
        // CrUX is unaffected by panel-side mechanisms.
        for row in &rows[1..2] {
            assert!(
                (row.crux_ji - baseline.crux_ji).abs() < 0.08,
                "{}: CrUX moved from {:.3} to {:.3}",
                row.scenario,
                baseline.crux_ji,
                row.crux_ji
            );
        }
    }

    #[test]
    fn counterfactual_worlds_share_ground_truth_shape() {
        // Disabling a measurement mechanism must not change the underlying
        // world much: site domains and categories stay identical.
        use topple_sim::World;
        let a = World::generate(WorldConfig::tiny(702)).unwrap();
        let b = World::generate(WorldConfig {
            mechanisms: Mechanisms {
                certify: false,
                ..Mechanisms::default()
            },
            ..WorldConfig::tiny(702)
        })
        .unwrap();
        for (x, y) in a.sites.iter().zip(&b.sites) {
            assert_eq!(x.domain, y.domain);
            assert_eq!(x.category, y.category);
            assert!((x.weight - y.weight).abs() < 1e-12);
            assert_eq!(y.certify_boost, 1.0);
        }
    }
}
