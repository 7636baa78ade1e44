//! Web origins as aggregated by the Chrome UX Report.

use std::fmt;
use std::str::FromStr;

use crate::{DomainName, OriginError};

/// URL scheme of a web origin. Only the two browsing schemes appear in CrUX.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Scheme {
    /// Plain-text HTTP (default port 80).
    Http,
    /// HTTP over TLS (default port 443).
    Https,
}

impl Scheme {
    /// The scheme's default port.
    pub fn default_port(self) -> u16 {
        match self {
            Scheme::Http => 80,
            Scheme::Https => 443,
        }
    }

    /// Scheme name as it appears in a URL.
    pub fn as_str(self) -> &'static str {
        match self {
            Scheme::Http => "http",
            Scheme::Https => "https",
        }
    }
}

impl fmt::Display for Scheme {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.as_str())
    }
}

/// A web origin: `scheme://host[:port]`, the aggregation unit of the CrUX list.
///
/// Ports equal to the scheme default are normalized away, matching how origins
/// are serialized in the CrUX BigQuery dataset.
///
/// ```
/// use topple_psl::{Origin, Scheme};
///
/// let o: Origin = "https://www.example.com:443".parse().unwrap();
/// assert_eq!(o.to_string(), "https://www.example.com");
/// assert_eq!(o.scheme(), Scheme::Https);
/// assert_eq!(o.host().as_str(), "www.example.com");
/// ```
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Origin {
    scheme: Scheme,
    host: DomainName,
    /// Port, only when it differs from the scheme default.
    port: Option<u16>,
}

impl Origin {
    /// Builds an origin from parts, normalizing a default port to `None`.
    pub fn new(scheme: Scheme, host: DomainName, port: Option<u16>) -> Self {
        let port = port.filter(|&p| p != scheme.default_port());
        Origin { scheme, host, port }
    }

    /// Convenience constructor for an HTTPS origin on the default port.
    pub fn https(host: DomainName) -> Self {
        Origin::new(Scheme::Https, host, None)
    }

    /// Convenience constructor for an HTTP origin on the default port.
    pub fn http(host: DomainName) -> Self {
        Origin::new(Scheme::Http, host, None)
    }

    /// The origin's scheme.
    pub fn scheme(&self) -> Scheme {
        self.scheme
    }

    /// The origin's host name.
    pub fn host(&self) -> &DomainName {
        &self.host
    }

    /// The effective port (explicit or scheme default).
    pub fn port(&self) -> u16 {
        self.port.unwrap_or_else(|| self.scheme.default_port())
    }

    /// Consumes the origin, returning its host.
    pub fn into_host(self) -> DomainName {
        self.host
    }
}

impl FromStr for Origin {
    type Err = OriginError;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        let (scheme_str, rest) = s.split_once("://").ok_or(OriginError::MissingScheme)?;
        let scheme = match scheme_str.to_ascii_lowercase().as_str() {
            "http" => Scheme::Http,
            "https" => Scheme::Https,
            other => {
                return Err(OriginError::UnsupportedScheme {
                    scheme: other.to_owned(),
                });
            }
        };
        if rest.contains(['/', '?', '#']) {
            return Err(OriginError::TrailingComponents);
        }
        let (host_str, port) = match rest.split_once(':') {
            Some((h, p)) => {
                let port: u16 = p
                    .parse()
                    .ok()
                    .filter(|&v| v != 0)
                    .ok_or_else(|| OriginError::InvalidPort { port: p.to_owned() })?;
                (h, Some(port))
            }
            None => (rest, None),
        };
        let host = DomainName::new(host_str).map_err(OriginError::InvalidHost)?;
        Ok(Origin::new(scheme, host, port))
    }
}

impl fmt::Display for Origin {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self.port {
            Some(p) => write!(f, "{}://{}:{}", self.scheme, self.host, p),
            None => write!(f, "{}://{}", self.scheme, self.host),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_basic_origins() {
        let o: Origin = "https://example.com".parse().unwrap();
        assert_eq!(o.scheme(), Scheme::Https);
        assert_eq!(o.host().as_str(), "example.com");
        assert_eq!(o.port(), 443);
        assert_eq!(o.to_string(), "https://example.com");
    }

    #[test]
    fn normalizes_default_port() {
        let o: Origin = "http://example.com:80".parse().unwrap();
        assert_eq!(o.to_string(), "http://example.com");
        let o: Origin = "https://example.com:8443".parse().unwrap();
        assert_eq!(o.to_string(), "https://example.com:8443");
        assert_eq!(o.port(), 8443);
    }

    #[test]
    fn rejects_malformed() {
        assert_eq!(
            "example.com".parse::<Origin>(),
            Err(OriginError::MissingScheme)
        );
        assert!(matches!(
            "ftp://example.com".parse::<Origin>(),
            Err(OriginError::UnsupportedScheme { .. })
        ));
        assert_eq!(
            "https://example.com/path".parse::<Origin>(),
            Err(OriginError::TrailingComponents)
        );
        assert!(matches!(
            "https://example.com:0".parse::<Origin>(),
            Err(OriginError::InvalidPort { .. })
        ));
        assert!(matches!(
            "https://example.com:banana".parse::<Origin>(),
            Err(OriginError::InvalidPort { .. })
        ));
        assert!(matches!(
            "https://ex ample.com".parse::<Origin>(),
            Err(OriginError::InvalidHost(_))
        ));
    }

    #[test]
    fn roundtrips_display_parse() {
        for s in ["https://a.b.example.co.uk", "http://example.com:8080"] {
            let o: Origin = s.parse().unwrap();
            assert_eq!(o.to_string(), s);
            assert_eq!(o.to_string().parse::<Origin>().unwrap(), o);
        }
    }

    #[test]
    fn scheme_case_insensitive() {
        let o: Origin = "HTTPS://EXAMPLE.COM".parse().unwrap();
        assert_eq!(o.to_string(), "https://example.com");
    }
}
