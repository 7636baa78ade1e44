//! The simulated client population.

use crate::ids::ClientId;
use crate::taxonomy::{Browser, Country, Platform};

/// Which recursive resolver a client's DNS queries reach.
///
/// Only two resolvers in the simulation publish popularity data: the
/// Umbrella-style enterprise resolver and the Chinese voting resolver behind
/// Secrank. Everyone else uses an unobserved ISP resolver.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Resolver {
    /// Cisco Umbrella-style resolver (enterprise-heavy, US-centric base).
    Umbrella,
    /// The Chinese resolver whose logs feed the Secrank voting algorithm.
    ChinaVoting,
    /// Ordinary ISP resolver — not observed by any top list.
    Isp,
}

/// One simulated web client (a person plus their primary device).
#[derive(Debug, Clone)]
pub struct Client {
    /// Dense id.
    pub id: ClientId,
    /// Country the client browses from.
    pub country: Country,
    /// Device platform.
    pub platform: Platform,
    /// Browser family.
    pub browser: Browser,
    /// Public (post-NAT) IPv4 address as a u32. Enterprise clients share
    /// egress IPs with colleagues; consumers mostly have distinct addresses.
    pub ip: u32,
    /// Whether this is a managed enterprise workstation (weekday-heavy
    /// browsing; candidate for the Umbrella resolver).
    pub enterprise: bool,
    /// Mean page loads per day for this client.
    pub activity: f32,
    /// Where the client's DNS queries land.
    pub resolver: Resolver,
    /// Chrome user who opted into telemetry/history sync (feeds CrUX).
    pub chrome_optin: bool,
    /// Carries the Alexa-style measurement browser extension.
    pub alexa_panelist: bool,
}

impl Client {
    /// Daily activity multiplier for a given weekday class.
    ///
    /// Enterprise clients browse at work (weekday-heavy); consumers browse
    /// slightly more on weekends. The scalar reference for the traffic
    /// generator's [`day_factor_for`] on the SoA flag byte.
    #[cfg(test)]
    pub fn day_factor(&self, weekend: bool) -> f64 {
        day_factor_for(self.enterprise, weekend)
    }
}

/// Daily activity multiplier by `(enterprise, weekend)`. Enterprise
/// clients browse at work (weekday-heavy); consumers browse slightly more
/// on weekends. The traffic generator reads the enterprise bit from the
/// SoA flag byte instead of a `Client` record.
#[inline]
pub fn day_factor_for(enterprise: bool, weekend: bool) -> f64 {
    match (enterprise, weekend) {
        (true, false) => 1.20,
        (true, true) => 0.45,
        (false, false) => 0.95,
        (false, true) => 1.12,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn enterprise_clients_are_weekday_heavy() {
        let mut c = Client {
            id: ClientId(0),
            country: Country::UnitedStates,
            platform: Platform::Windows,
            browser: Browser::Chrome,
            ip: 1,
            enterprise: true,
            activity: 30.0,
            resolver: Resolver::Umbrella,
            chrome_optin: false,
            alexa_panelist: false,
        };
        assert!(c.day_factor(false) > c.day_factor(true));
        c.enterprise = false;
        assert!(c.day_factor(false) < c.day_factor(true));
    }
}
