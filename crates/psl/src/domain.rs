//! Validated DNS domain names.

use std::borrow::Borrow;
use std::fmt;
use std::str::FromStr;

use crate::DomainError;

/// A validated, normalized (lowercase, no trailing dot) DNS domain name.
///
/// Validation follows the classic LDH rule per label: ASCII letters, digits, and
/// interior hyphens only, at most 63 bytes per label and 253 bytes total.
/// Internationalized names are accepted in their punycode (`xn--`) form, which is
/// how they appear in every top list the paper studies.
///
/// `DomainName` is cheap to clone (it owns a single `String`) and is ordered and
/// hashable so it can key maps and participate in set intersections.
///
/// ```
/// use topple_psl::DomainName;
///
/// let d: DomainName = "WWW.Example.COM.".parse().unwrap();
/// assert_eq!(d.as_str(), "www.example.com");
/// assert_eq!(d.labels().collect::<Vec<_>>(), ["www", "example", "com"]);
/// assert_eq!(d.parent().unwrap().as_str(), "example.com");
/// ```
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct DomainName {
    name: String,
}

impl DomainName {
    /// Maximum length of a full domain name in bytes.
    pub const MAX_NAME_LEN: usize = 253;
    /// Maximum length of a single label in bytes.
    pub const MAX_LABEL_LEN: usize = 63;

    /// Parses and validates `input`, lowercasing it and stripping one trailing dot.
    pub fn new(input: &str) -> Result<Self, DomainError> {
        let trimmed = input.strip_suffix('.').unwrap_or(input);
        if trimmed.is_empty() {
            return Err(DomainError::Empty);
        }
        if trimmed.len() > Self::MAX_NAME_LEN {
            return Err(DomainError::NameTooLong { len: trimmed.len() });
        }
        let mut name = String::with_capacity(trimmed.len());
        for label in trimmed.split('.') {
            check_label(label)?;
            if !name.is_empty() {
                name.push('.');
            }
            for ch in label.chars() {
                name.push(ch.to_ascii_lowercase());
            }
        }
        Ok(DomainName { name })
    }

    /// The normalized name as a string slice.
    #[inline]
    pub fn as_str(&self) -> &str {
        &self.name
    }

    /// Iterates over labels left to right (`www`, `example`, `com`).
    pub fn labels(&self) -> impl DoubleEndedIterator<Item = &str> {
        self.name.split('.')
    }

    /// Number of labels in the name.
    pub fn label_count(&self) -> usize {
        self.name.bytes().filter(|&b| b == b'.').count() + 1
    }

    /// The name with its leftmost label removed, or `None` for a single label.
    ///
    /// `www.example.com` → `example.com`.
    pub fn parent(&self) -> Option<DomainName> {
        let idx = self.name.find('.')?;
        Some(DomainName {
            name: self.name[idx + 1..].to_owned(),
        })
    }

    /// Returns the suffix of `self` formed by its rightmost `n` labels, if `self`
    /// has at least `n` labels.
    ///
    /// `suffix(2)` of `a.b.example.com` is `example.com`.
    pub fn suffix(&self, n: usize) -> Option<DomainName> {
        if n == 0 {
            return None;
        }
        let total = self.label_count();
        if n > total {
            return None;
        }
        let mut rest = self.name.as_str();
        for _ in 0..total - n {
            // label_count() counts dots, so each strip must find one; fall
            // back to None rather than panicking if that invariant breaks.
            let idx = rest.find('.')?;
            rest = &rest[idx + 1..];
        }
        Some(DomainName {
            name: rest.to_owned(),
        })
    }

    /// Whether `self` equals `other` or is a subdomain of it.
    ///
    /// `api.example.com` is within `example.com`; `notexample.com` is not.
    pub fn is_within(&self, other: &DomainName) -> bool {
        if self.name.len() == other.name.len() {
            return self.name == other.name;
        }
        self.name.len() > other.name.len()
            && self.name.ends_with(other.name.as_str())
            && self.name.as_bytes()[self.name.len() - other.name.len() - 1] == b'.'
    }

    /// Joins a validated label onto the left of this name.
    ///
    /// Used by the simulated world when deriving subdomain FQDNs for a site.
    /// Succeeds exactly when [`DomainName::can_prepend`] holds, building the
    /// name in one allocation.
    pub fn prepend(&self, label: &str) -> Result<DomainName, DomainError> {
        if !self.can_prepend(label) {
            // The slow path only exists to report the precise fault.
            return DomainName::new(&format!("{label}.{}", self.name));
        }
        let mut name = String::with_capacity(label.len() + 1 + self.name.len());
        name.extend(label.chars().map(|c| c.to_ascii_lowercase()));
        name.push('.');
        name.push_str(&self.name);
        Ok(DomainName { name })
    }

    /// Whether [`DomainName::prepend`] of `label` would succeed, decided
    /// without building the name: the joined name must fit
    /// [`DomainName::MAX_NAME_LEN`] and every label of `label` must be valid.
    pub fn can_prepend(&self, label: &str) -> bool {
        label.len() + 1 + self.name.len() <= Self::MAX_NAME_LEN
            && label.split('.').all(|l| check_label(l).is_ok())
    }

    /// Consumes the name, returning its normalized text.
    pub fn into_string(self) -> String {
        self.name
    }

    /// Constructs a name that is already known to be valid and normalized.
    ///
    /// Intended for internal fast paths (e.g. PSL rule storage); panics in debug
    /// builds when the invariant is violated.
    pub(crate) fn from_normalized(name: String) -> DomainName {
        debug_assert!(DomainName::new(&name)
            .map(|d| d.name == name)
            .unwrap_or(false));
        DomainName { name }
    }
}

/// Checks one label against the LDH rule [`DomainName::new`] enforces.
fn check_label(label: &str) -> Result<(), DomainError> {
    if label.is_empty() {
        return Err(DomainError::EmptyLabel);
    }
    if label.len() > DomainName::MAX_LABEL_LEN {
        return Err(DomainError::LabelTooLong {
            label: label.to_owned(),
        });
    }
    if label.starts_with('-') || label.ends_with('-') {
        return Err(DomainError::HyphenEdge {
            label: label.to_owned(),
        });
    }
    for ch in label.chars() {
        if !(ch.is_ascii_alphanumeric() || ch == '-' || ch == '_') {
            return Err(DomainError::InvalidCharacter { ch });
        }
    }
    Ok(())
}

impl FromStr for DomainName {
    type Err = DomainError;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        DomainName::new(s)
    }
}

impl fmt::Display for DomainName {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.name)
    }
}

impl AsRef<str> for DomainName {
    fn as_ref(&self) -> &str {
        &self.name
    }
}

impl Borrow<str> for DomainName {
    fn borrow(&self) -> &str {
        &self.name
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_and_normalizes() {
        let d = DomainName::new("WWW.ExAmple.COM.").unwrap();
        assert_eq!(d.as_str(), "www.example.com");
    }

    #[test]
    fn rejects_empty_and_dots() {
        assert_eq!(DomainName::new(""), Err(DomainError::Empty));
        assert_eq!(DomainName::new("."), Err(DomainError::Empty));
        assert_eq!(DomainName::new("a..b"), Err(DomainError::EmptyLabel));
        assert_eq!(DomainName::new(".a"), Err(DomainError::EmptyLabel));
    }

    #[test]
    fn rejects_bad_characters() {
        assert!(matches!(
            DomainName::new("exa mple.com"),
            Err(DomainError::InvalidCharacter { ch: ' ' })
        ));
        assert!(matches!(
            DomainName::new("héllo.com"),
            Err(DomainError::InvalidCharacter { .. })
        ));
    }

    #[test]
    fn rejects_hyphen_edges() {
        assert!(matches!(
            DomainName::new("-a.com"),
            Err(DomainError::HyphenEdge { .. })
        ));
        assert!(matches!(
            DomainName::new("a-.com"),
            Err(DomainError::HyphenEdge { .. })
        ));
        assert!(DomainName::new("a-b.com").is_ok());
    }

    #[test]
    fn rejects_long_labels_and_names() {
        let long_label = "a".repeat(64);
        assert!(matches!(
            DomainName::new(&format!("{long_label}.com")),
            Err(DomainError::LabelTooLong { .. })
        ));
        let ok_label = "a".repeat(63);
        assert!(DomainName::new(&format!("{ok_label}.com")).is_ok());
        let long_name = format!("{}.{}.{}.{}.com", ok_label, ok_label, ok_label, ok_label);
        assert!(matches!(
            DomainName::new(&long_name),
            Err(DomainError::NameTooLong { .. })
        ));
    }

    #[test]
    fn accepts_punycode() {
        assert!(DomainName::new("xn--bcher-kva.example").is_ok());
    }

    #[test]
    fn label_accessors() {
        let d = DomainName::new("a.b.example.co.uk").unwrap();
        assert_eq!(d.label_count(), 5);
        assert_eq!(d.labels().count(), 5);
        assert_eq!(d.suffix(2).unwrap().as_str(), "co.uk");
        assert_eq!(d.suffix(5).unwrap().as_str(), "a.b.example.co.uk");
        assert_eq!(d.suffix(6), None);
        assert_eq!(d.suffix(0), None);
        assert_eq!(d.parent().unwrap().as_str(), "b.example.co.uk");
    }

    #[test]
    fn parent_of_tld_is_none() {
        assert_eq!(DomainName::new("com").unwrap().parent(), None);
    }

    #[test]
    fn is_within_relations() {
        let base = DomainName::new("example.com").unwrap();
        let sub = DomainName::new("api.v2.example.com").unwrap();
        let other = DomainName::new("notexample.com").unwrap();
        assert!(sub.is_within(&base));
        assert!(base.is_within(&base));
        assert!(!other.is_within(&base));
        assert!(!base.is_within(&sub));
    }

    #[test]
    fn prepend_builds_subdomains() {
        let base = DomainName::new("example.com").unwrap();
        assert_eq!(base.prepend("cdn").unwrap().as_str(), "cdn.example.com");
        assert!(base.prepend("bad label").is_err());
    }

    #[test]
    fn can_prepend_agrees_with_prepend() {
        let long = format!(
            "{}.{}.{}.com",
            "a".repeat(63),
            "b".repeat(63),
            "c".repeat(63)
        );
        let bases = [
            DomainName::new("example.com").unwrap(),
            DomainName::new(&long).unwrap(),
        ];
        let too_long = "a".repeat(64);
        let labels = [
            "www",
            "WWW",
            "m",
            "checkout",
            "a.b",
            "",
            "a..b",
            "-x",
            "x-",
            "bad label",
            "é",
            "under_score",
            too_long.as_str(),
        ];
        for base in &bases {
            for label in labels {
                let built = base.prepend(label);
                assert_eq!(base.can_prepend(label), built.is_ok(), "{label}.{base}");
                if let Ok(built) = built {
                    let parsed = DomainName::new(&format!("{label}.{base}")).unwrap();
                    assert_eq!(built, parsed, "{label}.{base}");
                }
            }
        }
        // 3×63 + 3 dots + "com" = 195 bytes: "www." fits, a 63-byte label does not.
        assert!(bases[1].can_prepend("www"));
        assert!(!bases[1].can_prepend(&"d".repeat(63)));
    }

    #[test]
    fn ordering_is_lexicographic() {
        let a = DomainName::new("a.com").unwrap();
        let b = DomainName::new("b.com").unwrap();
        assert!(a < b);
    }
}
